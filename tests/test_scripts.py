"""The scripts under scripts/ run end to end against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_family_bounds_table_prism_crossover():
    result = run_script("family_bounds_table.py", "--max-n", "9")
    assert result.returncode == 0, result.stderr
    section = result.stdout.split("prisms:")[1].split("\n\n")[0]
    winners = {int(line.split()[0]): line.split(maxsplit=3)[3] for line in section.splitlines()[2:]}
    # the crossover at 7.76 (acceptance criterion 6a)
    assert winners[7] == "prism bound"
    assert winners[8] == "refinement"


def test_two_bridge_scan_runs():
    # the default draw meets the figure-eight knot b(5/2) and mirror fractions
    # q > p/2; the script exits 1 if a best lower bound exceeds the best upper
    result = run_script("two_bridge_scan.py")
    assert result.returncode == 0, result.stderr
