"""Print one digest line per benchmark pair, to diff the outputs of two
commits.

For each pair that `bench/run.py` times on the given workload and seed
(`Workload.run_pairs`; on ci-deep also `Workload.traced_extra`, the
height-9 pair s909-p0), it runs `quadcyl connect` and `quadcyl verify`
in-process through `quadcyl.cli.main` and prints: the pair index, the
connect and verify exit codes, the certificate's sha256 and byte count,
the sha256 of its content (the parsed JSON re-written compactly with
sorted keys, so the same keys and values in any layout), the sha256 of
its `radicands` header, the verify report without its `file` key, and
the exit code of verifying the certificate against the workload's wrong
reference (a sound verifier exits 1).  Run it on both commits and diff:
no difference means every certificate, report and exit code is
byte-identical.  A change that alters certificate bytes on purpose can
still show, by the `content=` fields, that only whitespace changed, or by
the `radicands=` fields, that every tower is unchanged.  Both are
computed here with json alone, not with quadcyl's own writer.

With --tools it digests instead the subcommands the benchmark never
runs: `normalize` in both styles on every grid form, `eacx-build` on a few
parameter lists (one with a repeated value), and `find-line` and `audit`
on the hexagonal pencil and on an `eacx-build` pencil.  Each line gives
the run's name, its exit code and the sha256 of its output file and of
its stderr ("-" for no output file).

    PYTHONPATH=src python3 scripts/output_digest.py --workload quadric-grid --seed 1
    PYTHONPATH=src python3 scripts/output_digest.py --workload ci-deep --seed 1 --pairs 3
    PYTHONPATH=src python3 scripts/output_digest.py --tools
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from quadcyl import cli  # noqa: E402
from quadcyl import serialize as ser  # noqa: E402
from quadcyl.tower import Tower  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Workload, _inline, grid_quadric_point, grid_shapes,
    hexagonal_pencil, rational_pencil_point,
)

# eacx-build parameter lists; the last repeats a value, which is refused
LAMBDAS = ("0,1,2,3,4,5", "1,-2,3/2,7,0,4,9", "-3,-1,0,2,5,11,13,17",
           "0,1,2,2,3,4")


def run(argv, err=None):
    """Exit code of one CLI call; its stderr goes to err, else is
    dropped."""
    with contextlib.redirect_stderr(err or io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argument list
            return exc.code


def tool_runs(work):
    """(name, argv) of every --tools run, in order; each writes
    work/<name>.json.  Later runs read the pencils and lines that earlier
    ones wrote."""
    grid = Workload("quadric-grid", 1, work)
    grid.setup()
    runs = []
    for n, r in grid_shapes():
        point = grid_quadric_point(random.Random(100 * n + r), n, r)
        form = grid.docs[(n, r)]
        runs.append(("normalize-hyperbolic-%d-%d" % (n, r),
                     ["normalize", "--hyperbolic", form]))
        runs.append(("normalize-ctsq-%d-%d" % (n, r),
                     ["normalize", "--ctsq", "--point=" + _inline(point), form]))
    for k, lams in enumerate(LAMBDAS):
        runs.append(("eacx-build-%d" % k, ["eacx-build", "--lambdas=" + lams]))
    hexagonal = os.path.join(work, "hexagonal.pf")
    with open(hexagonal, "w", encoding="utf-8") as fh:
        fh.write(ser.dumps(ser.pencil_to_obj(hexagonal_pencil(),
                                             Tower.rationals())))
    through = _inline(rational_pencil_point(random.Random(1)))
    for name, pencil, points in (
            ("hexagonal", hexagonal, ("1,0,0,0,0,0", through)),
            ("eacx", os.path.join(work, "eacx-build-0.json"), ())):
        runs.append(("find-line-%s" % name,
                     ["find-line", "--pencil", pencil]))
        for k, point in enumerate(points):
            runs.append(("find-line-%s-point%d" % (name, k),
                         ["find-line", "--pencil", pencil,
                          "--point=" + point, "--seed", "3"]))
        runs.append(("audit-%s" % name,
                     ["audit", "--pencil", pencil, "--line",
                      os.path.join(work, "find-line-%s.json" % name)]))
    return runs


def tool_digests(work):
    """One line per --tools run: name, exit code, output and stderr
    digests."""
    for name, argv in tool_runs(work):
        out = os.path.join(work, name + ".json")
        err = io.StringIO()
        rc = run(argv + ["--out", out], err)
        digest_out = "-"
        if os.path.exists(out):
            with open(out, "rb") as fh:
                digest_out = hashlib.sha256(fh.read()).hexdigest()
        yield "%s exit=%s out=%s stderr=%s" % (
            name, rc, digest_out,
            hashlib.sha256(err.getvalue().encode()).hexdigest())


def digest(workload, pair):
    connect_rc = run(pair.connect)
    verify_rc = wrong_rc = report = None
    sha, size, content, rads = "-", 0, "-", "-"
    if os.path.exists(pair.cert):
        with open(pair.cert, "rb") as fh:
            data = fh.read()
        sha, size = hashlib.sha256(data).hexdigest(), len(data)
        obj = json.loads(data)
        content = hashlib.sha256(json.dumps(
            obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        header = json.dumps(obj["radicands"], sort_keys=True)
        rads = hashlib.sha256(header.encode()).hexdigest()
        verify_rc = run(pair.verify)
        with open(pair.verify[-1]) as fh:
            results = json.load(fh)["results"]
        report = [{k: v for k, v in r.items() if k != "file"}
                  for r in results]
        wrong = list(pair.verify)
        wrong[1] = workload.wrong_reference(pair)
        wrong_rc = run(wrong)
        os.remove(pair.cert)
    return ("%d connect=%s verify=%s sha256=%s bytes=%d content=%s "
            "radicands=%s report=%s wrong=%s") % (
        pair.index, connect_rc, verify_rc, sha, size, content, rads,
        json.dumps(report, sort_keys=True), wrong_rc)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--tools", action="store_true",
                      help="digest the subcommands the benchmark never runs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=None,
                    help="digest only the first N pairs")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digest-") as work:
        if args.tools:
            for line in tool_digests(work):
                print(line, flush=True)
            return 0
        workload = Workload(args.workload, args.seed, work)
        workload.setup()
        pairs = workload.run_pairs() + workload.traced_extra()
        for pair in pairs[:args.pairs]:
            print(digest(workload, pair), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
