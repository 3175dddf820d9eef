"""The runnable scripts refuse arguments that would make their summary
line vacuous, through argparse (exit 2, no traceback)."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP = os.path.join(ROOT, "scripts", "uniqueness_sweep.py")


def _run_sweep(*argv):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, SWEEP, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [("--seeds", "0"), ("--seeds", "-2"),
                                  ("--kmax", "-1"), ("--kmax", "0"),
                                  ("--kmax", "7")])
def test_uniqueness_sweep_rejects_vacuous_arguments(argv):
    proc = _run_sweep(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "exact in every instance" not in proc.stdout


def test_uniqueness_sweep_small_run():
    proc = _run_sweep("--kmax", "2", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "lowest defect order" in lines[0]
    assert len(lines) == 4 and lines[-1].endswith("exact in every instance")
