import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import moca
from moca.cli import main
from moca.fields import field_make
from moca.monoids import bicyclic
from moca.sentence import build_sentence, parse_system_json


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_mul_textual_order():
    rc, out, _ = run_cli(["mul", "--monoid", "bicyclic", "p", "q"])
    assert rc == 0 and out == "1\n"
    rc, out, _ = run_cli(["mul", "--monoid", "bicyclic", "q", "p"])
    assert rc == 0 and out == "q^1p^1\n"


def test_amul_and_json_schema():
    rc, out, _ = run_cli(["amul", "--monoid", "cyclic:2", "--field", "2",
                          "--format", "json", "1+g", "1+g"])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "stats", "verdict"}
    assert doc["verdict"] == "0"  # (1+g)^2 = 0 over GF(2)


def test_mat_mul_and_certify(files):
    t = files("T.txt", "2\n1 ; g\n0 ; 1\n")
    ti = files("Ti.txt", "2\n1 ; -1*g\n0 ; 1\n")
    rc, out, _ = run_cli(["mat-mul", "--monoid", "cyclic:2", "--field", "3",
                          "--matrixA", t, "--matrixB", ti])
    assert rc == 0
    assert out == "2\n1 ; 0\n0 ; 1\n"
    rc, out, _ = run_cli(["finiteness", "certify", "--monoid", "cyclic:2",
                          "--field", "3", "--matrixA", t, "--matrixB", ti])
    assert rc == 0
    assert "two-sided: yes" in out
    # not a one-sided inverse at all: input error
    rc, _, err = run_cli(["finiteness", "certify", "--monoid", "cyclic:2",
                          "--field", "3", "--matrixA", t, "--matrixB", t])
    assert rc == 2 and "error:" in err


def test_bicyclic_witness_exit_zero():
    for spec in ("2", "3", "2^2", "Q"):
        rc, out, _ = run_cli(["finiteness", "bicyclic-witness",
                              "--field", spec])
        assert rc == 0
        assert "A*B = I: yes" in out and "B*A = I: no" in out


def test_solve_exit_codes():
    sat = ["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
           "--dim", "1", "--field", "2"]
    rc, out, _ = run_cli(sat)
    assert rc == 1
    assert "witness index: 9" in out
    unsat = ["sentence", "solve", "--monoid", "cyclic:2", "--support", "g",
             "--dim", "1", "--field", "2"]
    rc, out, _ = run_cli(unsat)
    assert rc == 0 and "verdict: UNSAT" in out
    rc, _, err = run_cli(sat + ["--budget", "10"])
    assert rc == 2 and "budget" in err


def test_check_exit_codes(files):
    good = files("good.txt", "x[0,0,p^1] := 1\nx[0,0,q^1] := 0\n"
                             "y[0,0,p^1] := 0\ny[0,0,q^1] := 1\n")
    zero = files("zero.txt", "x[0,0,p^1] := 0\nx[0,0,q^1] := 0\n"
                             "y[0,0,p^1] := 0\ny[0,0,q^1] := 0\n")
    base = ["sentence", "check", "--monoid", "bicyclic", "--support", "p,q",
            "--dim", "1", "--field", "2"]
    rc, out, _ = run_cli(base + ["--assign", good])
    assert rc == 0 and "satisfied: yes" in out
    rc, out, _ = run_cli(base + ["--assign", zero])
    assert rc == 1 and "fails at (0,0,1)" in out


def test_emit_json_round_trip(files):
    rc, out, _ = run_cli(["sentence", "emit", "--monoid", "bicyclic",
                          "--support", "p,q", "--dim", "1", "--field", "2",
                          "--format", "json"])
    assert rc == 0
    parsed = parse_system_json(out)
    _, direct = build_sentence(bicyclic(),
                               (bicyclic().parse_element("p"),
                                bicyclic().parse_element("q")), 1)
    assert parsed.var_names == direct.var_names
    assert parsed.equations == direct.equations
    assert parsed.meta["field"] == "2"
    # and solving from the emitted file recovers the witness
    path = files("sys.json", out)
    rc, out2, _ = run_cli(["sentence", "solve", "--system", path,
                           "--monoid", "bicyclic"])
    assert rc == 1 and "witness index: 9" in out2 and "p^1" in out2


def test_psi_inv_recovers(files):
    m = files("M.txt", "2\n1+g ; 0\ng ; 1\n")
    rc, out, _ = run_cli(["psi-inv", "--monoid", "cyclic:2", "--field", "2",
                          "--dim", "2", "--support", "1,g", "--matrix", m])
    assert rc == 0
    assert out == "2\n1 + g ; 0\ng ; 1\n"


def test_matrix_file_error_names_the_file_line(files):
    m = files("M.txt", "# c\n\n2\n1 ; 0\n0 ; zz\n")
    rc, out, err = run_cli(["mat-mul", "--monoid", "cyclic:2", "--field", "2",
                            "--matrixA", m, "--matrixB", m])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.endswith(" (line 5)\n")


def test_scan_clean_exit():
    rc, out, _ = run_cli(["ca-scan-surjunctivity", "--monoid", "cyclic:2",
                          "--alphabet", "2"])
    assert rc == 0
    assert "injective but not surjective: none" in out
    assert "direct finiteness: holds" in out


def test_scan_oversize_rule_space_exits_two():
    # 2^(2^16) rules: the size is printed as a power, never in decimal
    for n, size in ((16, "2^65536"), (12, "2^4096")):
        rc, out, err = run_cli(["ca-scan-surjunctivity", "--monoid",
                                f"cyclic:{n}", "--alphabet", "2"])
        assert rc == 2 and out == ""
        assert err == f"error: rule space of size {size} exceeds budget 65536\n"


def test_scan_oversize_configuration_space_exits_two_before_listing(monkeypatch):
    # the configuration budget is checked from the order, so a monoid of
    # order 10^8 is refused without building its element list
    def refuse(self):
        raise AssertionError("element list built before the budget check")
    monkeypatch.setattr("moca.monoids.Monoid.elements", refuse)
    rc, out, err = run_cli(["ca-scan-surjunctivity", "--monoid",
                            "cyclic:100000000", "--alphabet", "2"])
    assert rc == 2 and out == ""
    assert err == ("error: configuration space of size 2^100000000 "
                   "exceeds budget 1048576\n")


def test_sentence_oversize_space_exits_two_before_building(monkeypatch):
    # 2*12*12*20 = 5760 variables over GF(7): the space is checked from the
    # flags and printed as a power, and the system is never built
    def refuse(*args):
        raise AssertionError("sentence built before the budget check")
    monkeypatch.setattr("moca.cli.build_sentence", refuse)
    support = ",".join(["1", "g"] + [f"g^{i}" for i in range(2, 20)])
    rc, out, err = run_cli(["sentence", "solve", "--monoid", "cyclic:20",
                            "--support", support, "--dim", "12", "--field", "7"])
    assert rc == 2 and out == ""
    assert err == "error: assignment space of size 7^5760 exceeds budget 16777216\n"


def test_field_above_the_primality_bound_exits_two():
    # 2^61 - 1 is prime and fast; past the exact Miller-Rabin bound is an error
    rc, out, _ = run_cli(["amul", "--monoid", "cyclic:3", "--field",
                          str(2**61 - 1), "g", "g"])
    assert rc == 0 and out == "g^2\n"
    rc, out, err = run_cli(["amul", "--monoid", "cyclic:3", "--field",
                            "3317044064679887385961983", "g", "g"])
    assert rc == 2 and out == ""
    assert "below 3317044064679887385961981" in err
    # more digits than int() accepts is an input error too, not a crash
    rc, out, err = run_cli(["amul", "--monoid", "cyclic:3", "--field",
                            "9" * 5000, "g", "g"])
    assert rc == 2 and out == "" and err.startswith("error: bad field spec")


def test_sentence_solve_parses_monoid_and_field_once(monkeypatch, files):
    import moca.cli as cli
    _, doc, _ = run_cli(["sentence", "emit", "--monoid", "bicyclic",
                         "--support", "p,q", "--dim", "1", "--format", "json"])
    sys_path = files("sys.json", doc)
    calls = []

    def counted(name):
        real = getattr(cli, name)
        def parse(spec):
            calls.append(name)
            return real(spec)
        return parse

    for name in ("parse_monoid_spec", "parse_field_spec"):
        monkeypatch.setattr(cli, name, counted(name))
    for argv in (["--monoid", "bicyclic", "--support", "p,q", "--dim", "1"],
                 ["--system", sys_path, "--monoid", "bicyclic"]):
        calls.clear()
        rc, out, _ = run_cli(["sentence", "solve", "--field", "2", "--format",
                              "json"] + argv)
        assert rc == 1
        assert json.loads(out)["inputs"]["monoid"] == "bicyclic"
        assert sorted(calls) == ["parse_field_spec", "parse_monoid_spec"]


def test_solve_malformed_system_meta_exits_two(files):
    rc, out, _ = run_cli(["sentence", "emit", "--monoid", "bicyclic",
                          "--support", "p,q", "--dim", "1", "--field", "2",
                          "--format", "json"])
    assert rc == 0
    for key, bad in (("d", "1"), ("d", True), ("d", 0), ("d", 2),
                     ("support", "p,q"), ("support", ["p", 1]),
                     ("support", ["p"])):
        doc = json.loads(out)
        doc["meta"][key] = bad
        path = files("bad.json", json.dumps(doc))
        for monoid in ([], ["--monoid", "bicyclic"]):
            rc, sout, err = run_cli(["sentence", "solve", "--system", path,
                                     "--field", "2"] + monoid)
            assert rc == 2 and sout == "", (key, bad)
            assert err.startswith("error: ") and "Traceback" not in err


def test_non_string_meta_field_exits_two(files):
    rc, out, _ = run_cli(["sentence", "emit", "--monoid", "bicyclic",
                          "--support", "p,q", "--dim", "1", "--field", "2",
                          "--format", "json"])
    assert rc == 0
    assign = files("w.txt", "x[0,0,p^1] := 1\nx[0,0,q^1] := 0\n"
                            "y[0,0,p^1] := 0\ny[0,0,q^1] := 1\n")
    for bad in (2, True, ["2"], {"p": 2}):
        doc = json.loads(out)
        doc["meta"]["field"] = bad
        path = files("bad.json", json.dumps(doc))
        for argv in (["sentence", "solve", "--system", path],
                     ["sentence", "check", "--system", path, "--assign", assign]):
            rc, sout, err = run_cli(argv)
            assert rc == 2 and sout == "", (bad, argv)
            assert err == f"error: meta.field must be a field spec or null, got {bad!r}\n"


def test_non_bilinear_system_exits_two(files):
    # a y*y monomial: the solver needs every monomial to pair x with y
    rc, out, _ = run_cli(["sentence", "emit", "--monoid", "bicyclic",
                          "--support", "p,q", "--dim", "1", "--field", "2",
                          "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    doc["equations"][0]["monomials"][0] = [1, 2, 3]
    path = files("yy.json", json.dumps(doc))
    assign = files("w.txt", "x[0,0,p^1] := 1\nx[0,0,q^1] := 0\n"
                            "y[0,0,p^1] := 0\ny[0,0,q^1] := 1\n")
    for argv in (["sentence", "solve", "--system", path],
                 ["sentence", "solve", "--system", path, "--monoid", "bicyclic"],
                 ["sentence", "check", "--system", path, "--assign", assign]):
        rc, sout, err = run_cli(argv)
        assert rc == 2 and sout == "", argv
        assert err.startswith("error: ") and "must pair an x variable" in err
        assert "Traceback" not in err


def test_output_does_not_depend_on_the_hash_seed(files, tmp_path):
    t = files("T.txt", "2\n1 ; g\n0 ; 1\n")
    ti = files("Ti.txt", "2\n1 ; -1*g\n0 ; 1\n")
    table = files("t3.tbl", "elements: e a b\nrow: e a b\nrow: a b b\n"
                            "row: b b b\n")
    invocations = [
        ["ca-scan-surjunctivity", "--monoid", f"table:{table}",
         "--alphabet", "2", "--format", "json"],
        ["lca-check-antihom", "--monoid", "cyclic:3", "--field", "Q",
         "--dim", "2", "--count", "5", "--seed", "1"],
        ["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "2", "--field", "2", "--workers", "2"],
        ["finiteness", "certify", "--monoid", "cyclic:2", "--field", "3",
         "--matrixA", t, "--matrixB", ti, "--format", "json"],
    ]
    src = os.path.dirname(os.path.dirname(moca.__file__))
    for argv in invocations:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-m", "moca.cli"] + argv,
                                  capture_output=True, env=env, cwd=tmp_path)
            outs.append((proc.returncode, proc.stdout, proc.stderr))
        assert outs[0] == outs[1], argv
        assert outs[0][1] and not outs[0][2], argv


def test_enumerate_counts():
    rc, out, _ = run_cli(["enumerate-monoids", "--order", "3",
                          "--format", "json"])
    assert rc == 0
    assert json.loads(out)["stats"]["count"] == 11


def test_everything_is_byte_deterministic(files):
    t = files("T.txt", "2\n1 ; g\n0 ; 1\n")
    ti = files("Ti.txt", "2\n1 ; -1*g\n0 ; 1\n")
    rule = files("xor.rule", "alphabet: 2\nmemory: 1 g\ntable: 0110\n")
    pat = files("cfg.pat", "1 := 1\ng := 0\n")
    vec = files("vec.pat", "1 := 1\ng := 0\n")
    m1 = files("M1.txt", "1\n1+g\n")
    invocations = [
        ["mul", "--monoid", "bicyclic", "q", "p"],
        ["amul", "--monoid", "cyclic:3", "--field", "2^2", "t*1 + g", "g^2"],
        ["mat-mul", "--monoid", "cyclic:2", "--field", "3",
         "--matrixA", t, "--matrixB", ti],
        ["conv", "--monoid", "cyclic:2", "--field", "2", "--pattern", vec,
         "--matrix", m1, "--window", "1,g"],
        ["ca-apply", "--monoid", "cyclic:2", "--rule", rule,
         "--pattern", pat, "--window", "1,g"],
        ["ca-compose", "--monoid", "cyclic:2", "--first", rule,
         "--then", rule],
        ["ca-min-memory", "--monoid", "cyclic:2", "--rule", rule],
        ["ca-scan-surjunctivity", "--monoid", "cyclic:2", "--alphabet", "2"],
        ["psi", "--monoid", "cyclic:2", "--field", "2", "--matrix", m1],
        ["psi-inv", "--monoid", "cyclic:2", "--field", "2", "--dim", "1",
         "--support", "1,g", "--matrix", m1, "--seed", "5"],
        ["lca-check-antihom", "--monoid", "bicyclic", "--field", "2^2",
         "--dim", "2", "--count", "20", "--seed", "7"],
        ["finiteness", "certify", "--monoid", "cyclic:2", "--field", "3",
         "--matrixA", t, "--matrixB", ti],
        ["finiteness", "bicyclic-witness", "--field", "Q"],
        ["sentence", "emit", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "1", "--format", "json"],
        ["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "1", "--field", "2"],
        ["enumerate-monoids", "--order", "2"],
    ]
    for argv in invocations:
        for fmt in ([], ["--format", "json"]):
            if argv[0] == "sentence" and argv[1] == "emit" and fmt:
                continue  # emit already covers json above
            first = run_cli(argv + fmt)
            second = run_cli(argv + fmt)
            assert first == second, argv
            assert first[1], argv  # never silent


def test_parallel_solve_deterministic():
    base = ["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
            "--dim", "2", "--field", "2"]
    seq = run_cli(base + ["--workers", "1"])
    par1 = run_cli(base + ["--workers", "4"])
    par2 = run_cli(base + ["--workers", "4"])
    assert seq == par1 == par2
    assert seq[0] == 1
    assert "witness index: 10260" in seq[1]
    # in JSON only the echoed worker count differs
    docs = [json.loads(run_cli(base + ["--workers", w, "--format", "json"])[1])
            for w in ("1", "4")]
    assert [doc["inputs"].pop("workers") for doc in docs] == [1, 4]
    assert docs[0] == docs[1]


def test_subprocess_entry_point():
    # the child finds the package the tests import, with or without PYTHONPATH
    src = os.path.dirname(os.path.dirname(moca.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "moca.cli", "mul", "--monoid", "bicyclic",
         "p^2", "q"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert proc.stdout == "p^1\n"


def test_negative_trial_count_exits_two():
    rc, out, err = run_cli(["lca-check-antihom", "--monoid", "cyclic:2",
                            "--field", "2", "--dim", "1", "--count", "-3"])
    assert (rc, out) == (2, "")
    assert err == "error: trial count must be >= 0, got -3\n"


def test_antihom_failure_reports_its_matrices(monkeypatch):
    # a suite that fails once: exit 1 with the trial and both matrices as
    # serialized strings, in text and in valid JSON, and no traceback
    import random

    import moca.cli as cli
    from moca.algebra import serialize_matrix
    from moca.randomized import SuiteReport, element_pool, random_matrix

    drawn = {}

    def fail_once(monoid, field, d, count, seed):
        rng = random.Random(seed)
        pool = element_pool(monoid)
        drawn["A"] = random_matrix(rng, monoid, field, d, pool)
        drawn["B"] = random_matrix(rng, monoid, field, d, pool)
        return SuiteReport("antihom", count, 1, (1, drawn["A"], drawn["B"]))

    monkeypatch.setattr(cli, "antihom_suite", fail_once)
    argv = ["lca-check-antihom", "--monoid", "cyclic:3", "--field", "3",
            "--dim", "2", "--count", "3", "--seed", "5"]
    rc, out, err = run_cli(argv)
    a, b = serialize_matrix(drawn["A"]), serialize_matrix(drawn["B"])
    assert (rc, err) == (1, "")
    assert out == ("trials: 3\nfailures: 1\nfirst failure: trial 1\n"
                   f"A:\n{a}B:\n{b}")
    rc, out, err = run_cli(argv + ["--format", "json"])
    assert (rc, err) == (1, "")
    doc = json.loads(out)
    assert doc["verdict"] == "failed"
    assert doc["witness"] == {"trial": 1, "A": a, "B": b}


def test_usage_errors_exit_two():
    rc, _, err = run_cli(["mul", "--monoid", "cyclic:2", "g", "h"])
    assert rc == 2 and "unknown element" in err
    rc, _, err = run_cli(["mat-mul", "--monoid", "cyclic:2", "--field", "2",
                          "--matrixA", "/nonexistent", "--matrixB",
                          "/nonexistent"])
    assert rc == 2 and "cannot read" in err
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
