"""Freeze the ci-deep endpoint pairs into fixtures/ci_deep.json.

Pairs come from the test_09 recipe: for each recipe seed, a
`random.Random(seed)` draws pairs on the hexagonal pencil, each as two
`point_on_intersection` calls on one growing tower.  Every pair is stored
in the benchmark's own encoding (see workloads.encode_scalar), with the
canonical coordinates (first nonzero coordinate 1), so it survives changes
of the certificate and point formats.

Each stored pair is then written out and run through `quadcyl connect ci`
for every connect seed, and verified once, to record its input height,
its certificate height and size, and the time of each command (on the
machine that froze it, as a guide for picking batch classes).

Run from the repository root:

    python3 bench/freeze_deep.py --out bench/fixtures/ci_deep.json
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from quadcyl import cli  # noqa: E402
from quadcyl import serialize as ser  # noqa: E402
from quadcyl.pencils import point_on_intersection  # noqa: E402
from quadcyl.tower import Tower  # noqa: E402

RECIPE_SEEDS = (909, 910, 911)
PAIRS_PER_SEED = 10
CONNECT_SEEDS = (0, 1, 2)
# at most this many pairs of one input height are kept
MAX_PER_INPUT_HEIGHT = 6


def run_cli(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=workloads.DEEP_FIXTURES)
    args = ap.parse_args()
    pencil = workloads.hexagonal_pencil()
    work = os.path.join(HERE, "out", "freeze")
    os.makedirs(work, exist_ok=True)
    pencil_doc = os.path.join(work, "hexagonal.pf")
    with open(pencil_doc, "w", encoding="utf-8") as fh:
        fh.write(ser.dumps(ser.pencil_to_obj(pencil, Tower.rationals())))
    kept = {}
    pairs = []
    try:
        for recipe_seed in RECIPE_SEEDS:
            rng = random.Random(recipe_seed)
            for k in range(PAIRS_PER_SEED):
                tw = Tower.rationals()
                a, tw = point_on_intersection(pencil, rng=rng, tower=tw,
                                              retry_limit=64)
                b, tw = point_on_intersection(pencil, rng=rng, tower=tw,
                                              retry_limit=64)
                if kept.get(tw.height, 0) >= MAX_PER_INPUT_HEIGHT:
                    continue
                kept[tw.height] = kept.get(tw.height, 0) + 1
                pair = {
                    "id": "s%d-p%d" % (recipe_seed, k),
                    "input_height": tw.height,
                    "radicands": [workloads.encode_scalar(d)
                                  for d in tw.radicands()],
                    "from": [workloads.encode_scalar(c)
                             for c in a.canonical_coords()],
                    "to": [workloads.encode_scalar(c)
                           for c in b.canonical_coords()],
                }
                decoded = workloads.decode_tower(pair["radicands"])
                assert workloads.decode_point(pair["from"], decoded) == a
                assert workloads.decode_point(pair["to"], decoded) == b
                pa, pb = workloads.write_deep_pair(pair, work)
                cert = os.path.join(work, "c.cert")
                heights, sizes, connect_s = [], [], []
                for cs in CONNECT_SEEDS:
                    rc, dt = run_cli(["connect", "ci", "--pencil", pencil_doc,
                                      "--from", "@" + pa, "--to", "@" + pb,
                                      "--seed", str(cs), "--out", cert])
                    if rc != 0:
                        raise SystemExit("connect failed on %s" % pair["id"])
                    with open(cert, encoding="utf-8") as fh:
                        text = fh.read()
                    heights.append(ser.certificate_from_obj(
                        ser.loads(text)).tower.height)
                    sizes.append(len(text.encode("utf-8")))
                    connect_s.append(round(dt, 3))
                rc, verify_s = run_cli(["verify", "--pencil", pencil_doc,
                                        cert, "--out",
                                        os.path.join(work, "r.json")])
                if rc != 0:
                    raise SystemExit("verify failed on %s" % pair["id"])
                # the benchmark draws connect seeds only among those that
                # give the first seed's height, so each pair keeps its class
                pair.update(connect_seeds=[s for s, h in zip(CONNECT_SEEDS,
                                                            heights)
                                           if h == heights[0]],
                            cert_height=heights[0], cert_heights=heights,
                            cert_bytes=sizes,
                            connect_s=connect_s,
                            verify_s=round(verify_s, 3))
                pairs.append(pair)
                print(json.dumps({k: v for k, v in pair.items()
                                  if k not in ("radicands", "from", "to")}),
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    from quadcyl.tower import _Q
    doc = {
        "recipe": "test_09: random.Random(recipe_seed), two "
                  "point_on_intersection calls per pair on one tower",
        "recipe_seeds": ",".join(map(str, RECIPE_SEEDS)),
        "encoding": "rational: 'p/q' string; a + b*sqrt(d_k): [k, a, b]; "
                    "coordinates are canonical (first nonzero is 1)",
        "timed_on": {"python": platform.python_version(),
                     "backend": type(_Q(0)).__module__,
                     "nproc": os.cpu_count()},
        "pairs": pairs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
