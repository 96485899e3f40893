"""The demo scripts and the package's export list still work."""

import json
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
        assert " content=" in line and " content=- " not in line
        assert " radicands=" in line and " radicands=- " not in line
        assert '"valid": true' in line and "file" not in line
        assert line.endswith(" wrong=1")


def test_output_digest_ci_lines():
    # each certificate's first and last segment lie on coordinate lines,
    # so both along-line corruptions are made, and refused
    done = run_script(["scripts/output_digest.py", "--workload",
                       "ci-rational", "--seed", "1", "--pairs", "2"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1"]
    for line in lines:
        assert " connect=0 verify=0 sha256=" in line
        assert line.endswith(" wrong=1")
        refused = json.loads(line.split(" refusals=")[1].split(" report=")[0])
        assert {name: refused[name] for name in ("from-along-line",
                                                 "to-along-line")} == {
            "%s-along-line" % key: {
                "valid": False, "index": None,
                "reason": "%s point is not on the intersection" % end}
            for key, end in (("from", "start"), ("to", "end"))}


# The output digests of the runs whose reports carry the discriminant
# test's verdict (the audit's "smoothness", eacx-build's "smooth:" note),
# as written when the verdict came from a polynomial gcd; the resultant
# test must leave them as they were.
TOOL_OUTPUTS = {
    "eacx-build-0": "44000e52b0bcd670efbaf043c224a2e986d37c03270c481c1b98e39b45c36a82",
    "eacx-build-1": "4429a4f57972549d51d0be5c94035bac25a57c1f657bacbac6a7afd9c1cc9e67",
    "eacx-build-2": "b902e4838ea11c66afb66879f697371f3dac534e54e5ab2a958d97d1e914d8af",
    "eacx-build-3": "-",
    "audit-hexagonal": "7f748320d4973ea98decf666b5be38f4aa6968d4d99f8be06faf122c62e72010",
    "audit-eacx": "40dace5eedc4f06ffe059c1e76a9fd56e7ed00e681193b011b976c6ef46542a9",
}


def test_output_digest_tools():
    done = run_script(["scripts/output_digest.py", "--tools"])
    assert done.returncode == 0, done.stderr
    lines = {}
    for line in done.stdout.splitlines():
        name, rc, out, err = line.split()
        assert rc.startswith("exit=") and err.startswith("stderr=")
        lines[name] = (int(rc[5:]), out[4:])
    assert sum(name.startswith("normalize-") for name in lines) == 42
    assert all(lines[name][0] == 0 for name in lines
               if name.startswith(("normalize-", "find-line-")))
    # a repeated parameter exits 2; the hexagonal pencil is not smooth
    assert [lines[name][0] for name in TOOL_OUTPUTS] == [0, 0, 0, 2, 1, 0]
    assert {name: lines[name][1] for name in TOOL_OUTPUTS} == TOOL_OUTPUTS


COVERAGE_CHECK = """
import json, os, sys
sys.path.insert(0, os.path.join(os.getcwd(), "bench"))
import run
run.import_quadcyl()
print(json.dumps(run.coverage_check(sys.argv[1], run.Sink())))
"""


def test_tracer_coverage_check(tmp_path):
    # the traced run's check that every traced name the package defines
    # records a call; its own process keeps the tracer's rebinding out
    # of this one, and -B keeps bytecode out of bench/
    done = run_script(["-B", "-c", COVERAGE_CHECK, str(tmp_path)])
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_all_names_resolve():
    missing = [name for name in quadcyl.__all__
               if not hasattr(quadcyl, name)]
    assert missing == []


@pytest.fixture(scope="module")
def bench_0_2():
    """One kernel_bench run at heights 0 and 2, shared by the L1, L2, SQ
    and L5 row tests."""
    done = run_script(["scripts/kernel_bench.py", "--heights", "0,2",
                       "--repeat", "1"])
    assert done.returncode == 0, done.stderr
    return done.stdout


def rows_of(stdout, tag):
    """The rows of a tag, without its header line."""
    return [line.split() for line in stdout.splitlines()
            if line.startswith(tag + " ") and line.split()[1].isdigit()]


def test_kernel_bench_l1_rows(bench_0_2):
    rows = rows_of(bench_0_2, "L1")
    assert [(r[1], r[2], r[3]) for r in rows] == [
        (h, n, z) for h in ("0", "4") for n in ("6", "8")
        for z in ("0", "0.5", "0.8")]
    assert all(float(r[4]) > 0 and float(r[5]) > 0 and float(r[6]) > 0
               for r in rows)


def test_kernel_bench_l2_rows(bench_0_2):
    rows = rows_of(bench_0_2, "L2")
    assert [(r[1], r[2]) for r in rows] == [
        (str(n), str(r)) for n in range(3, 9) for r in range(3, n + 1)]
    assert all(float(r[3]) > 0 for r in rows)


def test_kernel_bench_sqrt_rows(bench_0_2):
    rows = rows_of(bench_0_2, "SQ")
    assert [r[1] for r in rows] == ["2"]
    assert all(float(r[2]) > 0 and float(r[3]) > 0 for r in rows)


def test_kernel_bench_l5_rows(bench_0_2):
    rows = rows_of(bench_0_2, "L5")
    assert [r[1] for r in rows] == ["0", "2"]
    assert int(rows[0][2]) < int(rows[1][2])
    assert all(float(r[3]) > 0 and float(r[4]) > 0 for r in rows)
