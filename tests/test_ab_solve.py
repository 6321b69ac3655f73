"""``tools/ab_solve.py``: its identity check passes two equal trees and
fails a tree whose masked sums are one ulp off."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_solve.py"
# one ulp more on every masked sum, appended to a copy of the package
ULP_OFF = """
_exact_convolve = WeightArray._convolve
WeightArray._convolve = lambda self, v, valid=False: _exact_convolve(self, v, valid) * (1 + 2**-52)
"""


def ab_solve(parent, change):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", "single-fault-pogs", "--rounds", "0"],
        capture_output=True, text=True, timeout=300,
    )


def test_equal_trees_are_identical():
    proc = ab_solve(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "all 32 solves identical on 16 pool records" in proc.stdout


def test_one_ulp_off_fails(tmp_path):
    shutil.copytree(ROOT / "src" / "rtea", tmp_path / "src" / "rtea",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "rtea" / "regularizers.py", "a", encoding="utf-8") as fh:
        fh.write(ULP_OFF)
    proc = ab_solve(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "record 0 solve(): differs in xs, costs" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "single-fault-pogs: 32 of 32 solves differ"
