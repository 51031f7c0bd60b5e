"""The example scripts, run as a user runs them."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_curie_weiss_prints_the_first_merges_along_the_ramp():
    """The ramp from B = 2 to -2 merges levels first at B = 0.9, then 0.8, 0.7
    and 0.6 (nodes 55, 60, 65 and 70), before the fields of opposite sign."""
    out = run_script("run_curie_weiss.py", "--n-spins", "10", "--nodes", "201", "--b-end", "-2.0")
    assert "first merges at B = [0.9, 0.8, 0.7, 0.6] ..." in out.splitlines()
