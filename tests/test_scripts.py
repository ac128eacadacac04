"""The example scripts run end to end and print their pinned output.

Wall-clock figures (the `time` column of field_tower.py and the `done in`
line of scan_small_monoids.py) are masked before the comparison.
"""

import os
import re
import subprocess
import sys

import pytest

import moca

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")

BICYCLIC_DEMO = """\
p * q = 1
q * p = q^1p^1

GF(2): A=[p^1] B=[q^1]  A*B=I True  B*A=I False  (B*A)[0][0]=q^1p^1
GF(3): A=[p^1] B=[q^1]  A*B=I True  B*A=I False  (B*A)[0][0]=q^1p^1
GF(2^2): A=[p^1] B=[q^1]  A*B=I True  B*A=I False  (B*A)[0][0]=q^1p^1
Q: A=[p^1] B=[q^1]  A*B=I True  B*A=I False  (B*A)[0][0]=q^1p^1

∃ x[0,0,p^1] x[0,0,q^1] y[0,0,p^1] y[0,0,q^1] :
P(X,Y):
  x[0,0,p^1]*y[0,0,q^1] = 1   [0,0,1]
  x[0,0,p^1]*y[0,0,p^1] = 0   [0,0,p^2]
  x[0,0,q^1]*y[0,0,p^1] = 0   [0,0,q^1p^1]
  x[0,0,q^1]*y[0,0,q^1] = 0   [0,0,q^2]
∧ ¬P(Y,X):
  y[0,0,p^1]*x[0,0,q^1] = 1   [0,0,1]
  y[0,0,p^1]*x[0,0,p^1] = 0   [0,0,p^2]
  y[0,0,q^1]*x[0,0,p^1] = 0   [0,0,q^1p^1]
  y[0,0,q^1]*x[0,0,q^1] = 0   [0,0,q^2]

search space: 16 assignments
first satisfying assignment: index 9
decoded: A=[p^1] B=[q^1]
"""

FIELD_TOWER = """\
field           space    index        witness     time
GF(2)              16        9  ([p^1],[q^1]) <time>
GF(2^2)           256       65  ([p^1],[q^1]) <time>
GF(2^3)          4096      513  ([p^1],[q^1]) <time>
GF(2^4)         65536     4097  ([p^1],[q^1]) <time>
GF(3)              81       28  ([p^1],[q^1]) <time>
GF(3^2)          6561      730  ([p^1],[q^1]) <time>
GF(5)             625      126  ([p^1],[q^1]) <time>
GF(5^2)        390625    15626  ([p^1],[q^1]) <time>
"""

SCAN_SMALL_MONOIDS = """\
monoid      rules   inj  surj   pairs  1-sided  sentence
--------------------------------------------------------
table1#0        4     2     2      16        2     UNSAT
table2#0       16     4     4     256        4     UNSAT
table2#1       16     2     2     256        2     UNSAT
table3#0      256     8     8   65536        8     UNSAT
table3#1      256     8     8   65536        8     UNSAT
table3#2      256     8     8   65536        8     UNSAT
table3#3      256     2     2   65536        2     UNSAT
table3#4      256     4     4   65536        4     UNSAT
table3#5      256     8     8   65536        8     UNSAT
table3#6      256     4     4   65536        4     UNSAT
table3#7      256     2     2   65536        2     UNSAT
table3#8      256    36    36   65536       36     UNSAT
table3#9      256     4     4   65536        4     UNSAT
table3#10     256     8     8   65536        8     UNSAT

done in <time>
"""

# order <= 2 at d=2 over GF(3); an order-2 sentence has 3^16 assignments
SCAN_SMALL_MONOIDS_D2 = """\
monoid      rules   inj  surj   pairs  1-sided  sentence
--------------------------------------------------------
table1#0        4     2     2      16        2     UNSAT
table2#0       16     4     4     256        4     UNSAT
table2#1       16     2     2     256        2     UNSAT

done in <time>
"""


def mask_times(text):
    """Replace each line-final wall-clock figure such as ` 0.02s`."""
    return re.sub(r" +\d+\.\d+s$", " <time>", text, flags=re.M)


def run_script(script, *args, ok=True):
    src = os.path.dirname(os.path.dirname(moca.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          capture_output=True, encoding="utf-8", env=env,
                          timeout=120)
    assert (proc.returncode == 0) == ok, proc.stderr
    return mask_times(proc.stdout) if ok else proc.stderr


@pytest.mark.parametrize("script, expected", [
    ("bicyclic_demo.py", BICYCLIC_DEMO),
    ("field_tower.py", FIELD_TOWER),
    ("scan_small_monoids.py", SCAN_SMALL_MONOIDS),
])
def test_script_output_is_pinned(script, expected):
    assert run_script(script) == expected


def test_scan_small_monoids_at_d2_over_gf3_is_pinned():
    args = ("scan_small_monoids.py", "--max-order", "2", "--dim", "2",
            "--field", "3", "--budget")
    assert run_script(*args, str(3 ** 16)) == SCAN_SMALL_MONOIDS_D2
    err = run_script(*args, str(3 ** 16 - 1), ok=False)
    assert "assignment space of size 3^16 exceeds budget" in err
