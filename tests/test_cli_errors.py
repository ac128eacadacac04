"""The input-error contract: malformed invocations, their exit codes and stderr.

Each case runs `moca` in process, in a scratch directory holding the input
files below, and compares its exit code, stdout and stderr (each stderr line
shown after `2> `) with the text pinned in cli_errors.txt.  Of an argparse
error only the last line is kept, since the usage block above it wraps with
the terminal width and the Python version.  The cases cover every input
reader: the --monoid and --field flags, alone and next to a missing
argument; K[M], GF(p), GF(p^k) and Q literals; pattern, assignment, rule,
table, matrix and system files; and the sites a convolution or a rule
reads but a pattern lacks.  No case may print a traceback, not even for a
number longer than int() reads (LONG, shown as `<5000 nines>`).  After a
deliberate change of a message, regenerate the file with

    PYTHONPATH=src python tests/test_cli_errors.py > tests/cli_errors.txt

and review the diff.  The same command piped into `diff - tests/cli_errors.txt`
checks the output without pytest, on any supported Python.
"""

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile

from moca.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_errors.txt")
LONG = "9" * 5000  # int() refuses more than 4300 digits
BICYCLIC_VARS = ("x[0,0,p^1] := 1\nx[0,0,q^1] := 0\n"
                 "y[0,0,p^1] := 0\ny[0,0,q^1] := 1\n")
PQ_JSON = ('{{"variables": ["x[0,0,p^1]", "x[0,0,q^1]", "y[0,0,p^1]", "y[0,0,q^1]"], '
           '"equations": [{{"label": [0, 0, "1"], "monomials": [[1, {xi}, 3]], "rhs": {rhs}}}], '
           '"negated_block": [], "meta": {{"d": 1, "support": ["p", "q"]}}}}\n')
FILES = {
    "dup_site.pat": "g := 1\ng^4 := 0\n",
    "unknown_site.pat": "h := 1\n",
    "no_assign.pat": "g 1\n",
    "dup_site_vec.pat": "1 := 1\ng := 0\ng^4 := 1\n",
    "sign_run_vec.pat": "1 := --1\n",
    "spaced_run_vec.pat": "1 := 1, --1\n",
    "g_only_vec.pat": "g := 1\n",
    "qp_only_vec.pat": "qp := 1\n",
    "one_only.pat": "1 := 1\n",
    "rule.txt": "alphabet: 2\nmemory: 1\ntable: 01\n",
    "rule_two_alphabets.txt": "alphabet: 2\nalphabet: 3\nmemory: 1\ntable: 012\n",
    "rule_two_tables.txt": "alphabet: 2\nmemory: 1\ntable: 01\ntable: 10\n",
    "rule_bad_line.txt": "alphabet: 2\nmemory: 1\nrows: 01\n",
    "two_elements.tbl": "elements: e a\nelements: e a\nrow: e a\nrow: a e\n",
    "row_first.tbl": "row: e a\nelements: e a\n",
    "one.mat": "1\n1\n",
    "one_g.mat": "1\n1 + g\n",
    "p_one.mat": "1\np + 1\n",
    "rule_x1x2.txt": "alphabet: 2\nmemory: x1 x2\ntable: 0110\n",
    "bad_row.mat": "1\ng ; g\n",
    "sign_run.mat": "1\n(t+-1)*g\n",
    "spaced_run.mat": "2\n1 ; --1\n0 ; 1\n",
    "zz.txt": "zz := 1\n" + BICYCLIC_VARS,
    "twice.txt": "x[0,0,p^1] := 0\n" + BICYCLIC_VARS,
    "no_assign.txt": "x[0,0,p^1] 1\n",
    "sign_run.txt": BICYCLIC_VARS.replace(":= 1", ":= --1", 1),
    "empty_support.json": ('{"variables": [], "equations": [], "negated_block": [], '
                           '"meta": {"d": 1, "support": []}}\n'),
    "float_index.json": PQ_JSON.format(xi="0.9", rhs="1"),
    "bool_rhs.json": PQ_JSON.format(xi="0", rhs="true"),
    "missing_row.tbl": "elements: e a\nrow: e a\n",
    "short_row.tbl": "elements: e a\nrow: e\nrow: a e\n",
    "bad_line.tbl": "elements: e a\ncolumn: e a\n",
    "short.mat": "2\n1 ; 0\n",
    "long.mat": f"1\n{LONG}*g\n",
    "long_vec.pat": f"1 := {LONG}\n",
    "long.txt": BICYCLIC_VARS.replace(":= 1", f":= {LONG}", 1),
    "long.json": ('{"variables": ["x", "y"], "equations": [], "negated_block": [], '
                  f'"meta": {{"d": {LONG}, "support": ["p"]}}}}\n'),
}
C3 = ["--monoid", "cyclic:3"]
SOLVE = ["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "1"]
CHECK = ["sentence", "check", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "1"]

CASES = [
    # carrier flags, alone and next to a missing argument
    ["mul", "--monoid", "cyclic:x", "g", "g"],
    ["mul", "--monoid", "cyclic:x", "g"],
    ["amul", *C3, "--field", "6", "g", "g"],
    ["amul", *C3, "--field", "x", "g"],
    ["amul", *C3, "--field", "2^9", "g", "g"],
    ["ca-min-memory", "--monoid", "table:two_elements.tbl", "--rule", "rule.txt"],
    ["ca-min-memory", "--monoid", "table:row_first.tbl"],
    [*SOLVE[:2], "--monoid", "nope", *SOLVE[4:], "--field", "2"],
    [*CHECK, "--field", "2^x"],
    ["sentence", "emit", "--monoid", "bicyclic", "--support", "p,q",
     "--dim", "1", "--field", "6"],
    ["finiteness", "bicyclic-witness", "--field", "0"],
    # literals: K[M], GF(p), GF(p^k) and Q
    ["amul", *C3, "--field", "3", "g+-g", "g"],
    ["amul", *C3, "--field", "3", "*g", "g"],
    ["amul", *C3, "--field", "3", "2*1*g", "g"],
    ["amul", *C3, "--field", "3", "(--1)*g", "g"],
    ["amul", *C3, "--field", "2^2", "(--t)*g", "g"],
    ["amul", *C3, "--field", "2^2", "(t+-1)*g", "g"],
    ["amul", *C3, "--field", "2^2", "(t+)*g", "g"],
    ["amul", *C3, "--field", "2^2", "(1*)*g", "g"],
    ["amul", *C3, "--field", "Q", "(--1/2)*g", "g"],
    ["mat-mul", *C3, "--field", "2^2", "--matrixA", "sign_run.mat",
     "--matrixB", "sign_run.mat"],
    ["mat-mul", *C3, "--field", "2", "--matrixA", "bad_row.mat",
     "--matrixB", "bad_row.mat"],
    ["mat-mul", *C3, "--field", "3", "--matrixA", "spaced_run.mat",
     "--matrixB", "spaced_run.mat"],
    # pattern files
    ["ca-apply", *C3, "--rule", "rule.txt", "--pattern", "dup_site.pat",
     "--window", "1"],
    ["ca-apply", *C3, "--rule", "rule.txt", "--pattern", "unknown_site.pat",
     "--window", "1"],
    ["ca-apply", *C3, "--rule", "rule.txt", "--pattern", "no_assign.pat",
     "--window", "1"],
    ["conv", *C3, "--field", "2", "--pattern", "dup_site_vec.pat",
     "--matrix", "one.mat", "--window", "1"],
    ["conv", *C3, "--field", "2^2", "--pattern", "sign_run_vec.pat",
     "--matrix", "one.mat", "--window", "1"],
    ["conv", *C3, "--field", "3", "--pattern", "spaced_run_vec.pat",
     "--matrix", "one.mat", "--window", "1"],
    # missing sites: each named once, in canonical order, whatever the
    # window order and however many products land on it
    ["conv", *C3, "--field", "2", "--pattern", "g_only_vec.pat",
     "--matrix", "one_g.mat", "--window", "g^2,g"],
    ["conv", "--monoid", "bicyclic", "--field", "2", "--pattern",
     "qp_only_vec.pat", "--matrix", "p_one.mat", "--window", "q,1,q"],
    ["ca-apply", "--monoid", "freecomm:2", "--rule", "rule_x1x2.txt",
     "--pattern", "one_only.pat", "--window", "x2,x1,x1x2"],
    # assignment files
    [*CHECK, "--field", "2", "--assign", "zz.txt"],
    [*CHECK, "--field", "2", "--assign", "twice.txt"],
    [*CHECK, "--field", "2", "--assign", "no_assign.txt"],
    [*CHECK, "--field", "2^2", "--assign", "sign_run.txt"],
    # system files
    ["sentence", "solve", "--system", "empty_support.json", "--field", "1009"],
    ["sentence", "solve", "--system", "float_index.json", "--field", "2"],
    ["sentence", "solve", "--system", "bool_rhs.json", "--field", "2"],
    # rule files
    ["ca-min-memory", *C3, "--rule", "rule_two_alphabets.txt"],
    ["ca-min-memory", *C3, "--rule", "rule_two_tables.txt"],
    ["ca-min-memory", *C3, "--rule", "rule_bad_line.txt"],
    # carriers and elements out of range, and table files cut short
    ["mul", "--monoid", "cyclic:0", "1", "1"],
    ["mul", "--monoid", "freecomm:0", "1", "1"],
    ["mul", "--monoid", "freecomm:2", "x3", "x1"],
    ["mul", "--monoid", "freecomm:2", "y", "x1"],
    ["mul", "--monoid", "table:missing_row.tbl", "e", "a"],
    ["mul", "--monoid", "table:short_row.tbl", "e", "a"],
    ["mul", "--monoid", "table:bad_line.tbl", "e", "a"],
    # flags and file shapes that do not fit the command
    ["mat-mul", *C3, "--field", "2", "--matrixA", "short.mat", "--matrixB", "one.mat"],
    ["ca-apply", *C3, "--rule", "rule.txt", "--pattern", "one_only.pat", "--window", ","],
    ["sentence", "solve", "--field", "2"],
    SOLVE,
    ["psi-inv", *C3, "--field", "2", "--dim", "2", "--support", "1", "--matrix", "one.mat"],
    ["ca-scan-surjunctivity", "--monoid", "cyclic:2", "--alphabet", "2", "--budget", "3"],
    # a number too long for int() in each reader
    ["mul", "--monoid", f"cyclic:{LONG}", "g", "g"],
    ["mul", *C3, f"g^{LONG}", "g"],
    ["mul", "--monoid", "bicyclic", f"p^{LONG}", "q"],
    ["mul", "--monoid", "freecomm:2", f"x1^{LONG}", "x1"],
    ["mul", "--monoid", "freecomm:2", f"x{LONG}", "x1"],
    ["amul", *C3, "--field", "3", f"{LONG}*g", "g"],
    ["amul", *C3, "--field", "Q", f"1/{LONG}*g", "g"],
    ["amul", *C3, "--field", "2^2", f"({LONG}*t)*g", "g"],
    ["amul", *C3, "--field", "2^2", f"(t^{LONG})*g", "g"],
    ["mat-mul", *C3, "--field", "3", "--matrixA", "long.mat", "--matrixB", "one.mat"],
    ["conv", *C3, "--field", "3", "--pattern", "long_vec.pat", "--matrix", "one.mat",
     "--window", "1"],
    [*CHECK, "--field", "2", "--assign", "long.txt"],
    ["sentence", "solve", "--system", "long.json", "--field", "2"],
]


def run(argv):
    """(exit code, stdout, stderr) of one invocation in a scratch directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as e:  # argparse usage errors
                    rc = e.code
        finally:
            os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


def shown(text):
    return text.replace(LONG, "<5000 nines>")


def command(argv):
    """The command line as the golden file shows it."""
    return shown(shlex.join(argv))


def render(argv):
    rc, out, err = run(argv)
    assert "Traceback" not in err, argv
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: "):
        lines = lines[-1:]
    stderr = "".join(f"2> {line}\n" for line in lines)
    return shown(f"$ moca {shlex.join(argv)}\nexit {rc}\n{out}{stderr}")


def load_golden():
    """{command line: rendered section} from the golden file."""
    with open(GOLDEN, encoding="utf-8") as fh:
        sections = re.split(r"^(?=\$ moca )", fh.read(), flags=re.M)[1:]
    return {s.split("\n", 1)[0].removeprefix("$ moca "): s for s in sections}


def test_golden_file_covers_the_cases():
    assert sorted(load_golden()) == sorted(command(argv) for argv in CASES)


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", CASES, ids=command)


def test_input_error_matches_golden(argv):
    assert render(argv) == load_golden()[command(argv)]


if __name__ == "__main__":
    sys.stdout.write("".join(render(argv) for argv in CASES))
