"""Check both golden CLI tables under several Pythons and two hash seeds.

Runs tests/test_cli_golden.py and tests/test_cli_errors.py as scripts, each
in a fresh interpreter with PYTHONPATH=src, under PYTHONHASHSEED 0 and 1,
and compares their stdout with tests/cli_golden.txt and tests/cli_errors.txt.
Prints one line per run and exits 1 on any mismatch.

    python3 scripts/check_golden.py                        # python3.10 .. 3.13
    python3 scripts/check_golden.py python3.12 python3.13  # the ones named

By default every python3.10 to python3.13 on PATH that starts is used.  A
pyenv shim starts only for a selected version, so under pyenv select all
four, e.g. PYENV_VERSION=3.10.13:3.11.7:3.12.1:3.13.0.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
TABLES = (("test_cli_golden.py", "cli_golden.txt"),
          ("test_cli_errors.py", "cli_errors.txt"))
SEEDS = ("0", "1")


def default_interpreters():
    """Each of python3.10 .. python3.13 that is on PATH and starts."""
    names = [f"python3.{minor}" for minor in range(10, 14)]
    return [n for n in names if shutil.which(n)
            and subprocess.run([n, "-c", ""], capture_output=True).returncode == 0]


def check(python, script, want, seed):
    """'ok', or what differs, for one run of `script` under `python`."""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONIOENCODING="utf-8")
    try:
        proc = subprocess.run([python, os.path.join(TESTS, script)],
                              capture_output=True, env=env)
    except OSError as e:
        return f"FAIL (does not start: {e.strerror})"
    if proc.returncode != 0 or proc.stderr:
        return f"FAIL (exit {proc.returncode}, {len(proc.stderr)} bytes on stderr)"
    return "ok" if proc.stdout == want else "FAIL (stdout differs from the table)"


def main(argv):
    pythons = argv or default_interpreters()
    if not pythons:
        print("no python3.10 .. python3.13 on PATH starts")
        return 1
    failed = False
    for python in pythons:
        for script, table in TABLES:
            with open(os.path.join(TESTS, table), "rb") as fh:
                want = fh.read()
            for seed in SEEDS:
                verdict = check(python, script, want, seed)
                failed |= verdict != "ok"
                print(f"{python}  PYTHONHASHSEED={seed}  {script}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
