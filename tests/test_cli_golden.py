"""Golden CLI output: K[M] arithmetic over every field kind, and the CA scans.

Each case runs `moca` in process, from this directory, and compares its exit
code and stdout with the text pinned in cli_golden.txt.  The cases print
K[M] products, matrix products, convolutions, certificates and recovered
matrices over GF(p), GF(p^k) and Q; extension-field literals (parsed,
multiplied and printed through ranks); sentence models, their witness
indices and decoded matrices; the emitted sentence; the counts of
exhaustive CA scans; and a rule over more than 10 symbols, printed and
read back.  The order-2 tables, matrices, patterns, rules, the system file
and its model are files under tables/.  So a change of representation,
of arithmetic or of the scan kernel shows up as a diff here.  After a deliberate change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt

and review the diff.  The same command piped into `diff - tests/cli_golden.txt`
checks the output without pytest, on any supported Python.
"""

import contextlib
import io
import os
import re
import shlex
import sys

from moca.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.txt")
DEFAULT_FIELDS = ("2^2", "2^3", "2^4", "2^5", "2^6", "3^2", "3^3", "5^2", "7^2")
AMUL_LITERALS = {
    "bicyclic": ("p + 2*q - 3*qp + q^2", "q + p^2 - 1"),
    "freecomm:2": ("x1 + 2*x2 - x1x2 + 1", "x1 - x2 + 2*x1^2"),
    "cyclic:3": ("1 + 2*g - g^2", "2*1 + g + g^2"),
}
Q_LITERALS = {
    "bicyclic": ("1/2*p - 2/3*q + 3*1", "q + 3/4*p^2"),
    "freecomm:2": ("1/2*x1 - 2/3*x1x2^2 + 3*1", "x1 + 3/4*x2"),
    "cyclic:3": ("1/2*1 - 2/3*g", "3*g + 3/4*g^2"),
}
C3 = ["--monoid", "cyclic:3"]

CASES = (
    [["amul", "--monoid", "cyclic:3", "--field", f,
      "t*1 + (t^3+1)*g - (2*t^2+1)*g^2", "(t^5+t)*1 + t^4*g^2"]
     for f in DEFAULT_FIELDS]
    + [["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
        "--dim", "1", "--field", f] + fmt
       for f in ("2^3", "3^2", "5^2", "7^2", "2^6")
       for fmt in ([], ["--format", "json"])]
    + [["lca-check-antihom", "--monoid", m, "--field", f, "--dim", "2",
        "--count", "10", "--seed", "7", "--format", "json"]
       for m, f in (("bicyclic", "2^2"), ("cyclic:3", "3^2"))]
    + [["finiteness", "bicyclic-witness", "--field", "3^3"]]
    + [["ca-scan-surjunctivity", "--monoid", m, "--alphabet", a] + mem + fmt
       for m, a, mem in (("table:tables/group2.tbl", "3", []),
                         ("table:tables/semilattice2.tbl", "3", []),
                         ("cyclic:4", "2", []),
                         ("cyclic:3", "2", ["--memory", "1,g"]))
       for fmt in ([], ["--format", "json"])]
    + [["amul", "--monoid", m, "--field", f, *AMUL_LITERALS[m]]
       for m in AMUL_LITERALS for f in ("2", "3", "Q")]
    + [["amul", "--monoid", m, "--field", "Q", *Q_LITERALS[m]] for m in Q_LITERALS]
    + [case for f in ("3", "2^2", "Q") for case in (
        ["mat-mul", *C3, "--field", f,
         "--matrixA", "tables/c3_a.mat", "--matrixB", "tables/c3_a.mat"],
        ["mat-mul", *C3, "--field", f,
         "--matrixA", "tables/c3_a.mat", "--matrixB", "tables/c3_b.mat"],
        ["conv", *C3, "--field", f, "--pattern", "tables/c3_vec.pat",
         "--matrix", "tables/c3_a.mat", "--window", "1,g,g^2"],
        ["conv", *C3, "--field", f, "--pattern", "tables/c3_vec.pat",
         "--matrix", "tables/c3_b.mat", "--window", "g,g^2", "--format", "json"],
        ["finiteness", "certify", *C3, "--field", f,
         "--matrixA", "tables/c3_a.mat", "--matrixB", "tables/c3_b.mat"],
        ["finiteness", "certify", *C3, "--field", f,
         "--matrixA", "tables/c3_b.mat", "--matrixB", "tables/c3_a.mat",
         "--format", "json"],
        ["finiteness", "certify", *C3, "--field", f,
         "--matrixA", "tables/c3_a.mat", "--matrixB", "tables/c3_a.mat"])]
    + [case for f in ("2", "Q") for case in (
        ["psi-inv", *C3, "--field", f, "--dim", "2", "--support", "1,g,g^2",
         "--matrix", "tables/c3_a.mat"],
        ["psi-inv", "--monoid", "bicyclic", "--field", f, "--dim", "1",
         "--support", "p,q,qp", "--matrix", "tables/bicyclic_a.mat"])]
    + [["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
        "--dim", "2", "--field", "2"]]
    # a structural UNSAT, the emitted sentence and its impossible equations,
    # a check of a system file, and a scan under an explicit rule budget
    + [["sentence", "solve", "--monoid", "bicyclic", "--support", "p",
        "--dim", "1", "--field", "2"] + fmt for fmt in ([], ["--format", "json"])]
    + [["sentence", "emit", "--monoid", "bicyclic", "--support", "p,q", "--dim", "1"],
       ["sentence", "emit", "--monoid", "bicyclic", "--support", "p", "--dim", "1",
        "--format", "json"],
       ["sentence", "check", "--system", "tables/bicyclic_pq.json", "--field", "2",
        "--assign", "tables/bicyclic_pq_model.txt", "--format", "json"],
       ["ca-scan-surjunctivity", "--monoid", "cyclic:2", "--alphabet", "2",
        "--budget", "16"]]
    # a rule over 11 symbols reduced to a one-entry table, then read back
    # from that output (c2_const11_min.rule)
    + [["ca-min-memory", "--monoid", "cyclic:2", "--rule", "tables/c2_const11.rule"],
       ["ca-apply", "--monoid", "cyclic:2", "--rule", "tables/c2_const11_min.rule",
        "--pattern", "tables/c2_sym.pat", "--window", "1,g"]]
)


def run(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(os.path.dirname(os.path.abspath(__file__)))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    return rc, out.getvalue()


def render(argv):
    rc, out = run(argv)
    return f"$ moca {shlex.join(argv)}\nexit {rc}\n{out}"


def load_golden():
    """{command line: (exit code, stdout)} from the golden file."""
    with open(GOLDEN, encoding="utf-8") as fh:
        sections = re.split(r"^\$ moca ", fh.read(), flags=re.M)[1:]
    golden = {}
    for section in sections:
        command, exit_line, out = section.split("\n", 2)
        golden[command] = (int(exit_line.removeprefix("exit ")), out)
    return golden


def test_golden_file_covers_the_cases():
    assert sorted(load_golden()) == sorted(shlex.join(argv) for argv in CASES)


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", CASES, ids=shlex.join)


def test_cli_output_matches_golden(argv):
    assert run(argv) == load_golden()[shlex.join(argv)]


if __name__ == "__main__":
    sys.stdout.write("".join(render(argv) for argv in CASES))
