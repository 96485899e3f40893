"""The demo scripts and the package's export list still work."""

import os
import subprocess
import sys

import pytest

import quadcyl

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("argv", [
    ["scripts/connect_demo.py", "--size", "5", "--seed", "7"],
    ["scripts/pencil_audit_demo.py", "--seed", "3"],
    ["scripts/kernel_bench.py", "--heights", "1,2,3", "--repeat", "1"],
])
def test_demo_succeeds(argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_all_names_resolve():
    missing = [name for name in quadcyl.__all__
               if not hasattr(quadcyl, name)]
    assert missing == []
