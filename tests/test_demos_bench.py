"""The demo scripts and the bench self-tests run clean from a checkout."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def _run(*argv) -> subprocess.CompletedProcess:
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _run(os.path.join("demos", demo))
    assert proc.returncode == 0, proc.stderr


def test_bench_self_tests_pass():
    proc = _run("-m", "unittest", "discover", "-s", "bench")
    assert proc.returncode == 0, proc.stderr
