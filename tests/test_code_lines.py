"""``tools/code_lines.py``: with no arguments it counts the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def total(*paths):
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


def test_no_arguments_count_the_package():
    explicit = total(*sorted((ROOT / "src" / "rtea").glob("*.py")))
    assert explicit.endswith(" total") and int(explicit.split()[0]) > 0
    assert total() == explicit
