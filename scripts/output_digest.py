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

    PYTHONPATH=src python3 scripts/output_digest.py --workload quadric-grid --seed 1
    PYTHONPATH=src python3 scripts/output_digest.py --workload ci-deep --seed 1 --pairs 3
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from quadcyl import cli  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def run(argv):
    """Exit code of one CLI call; its stderr is dropped."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argument list
            return exc.code


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
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=None,
                    help="digest only the first N pairs")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digest-") as work:
        workload = Workload(args.workload, args.seed, work)
        workload.setup()
        pairs = workload.run_pairs() + workload.traced_extra()
        for pair in pairs[:args.pairs]:
            print(digest(workload, pair), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
