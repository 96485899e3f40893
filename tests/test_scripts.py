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
    done = run_script(argv)
    assert done.returncode == 0, done.stderr


def run_script(argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_output_digest_lines():
    done = run_script(["scripts/output_digest.py", "--workload",
                       "quadric-grid", "--seed", "1", "--pairs", "3"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1", "2"]
    for line in lines:
        assert " connect=0 verify=0 sha256=" in line
        assert '"valid": true' in line and "file" not in line
        assert line.endswith(" wrong=1")


def test_all_names_resolve():
    missing = [name for name in quadcyl.__all__
               if not hasattr(quadcyl, name)]
    assert missing == []
