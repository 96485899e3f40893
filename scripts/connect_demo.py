"""Connect two random points of a quadric complement and replay the result.

Draws a random symmetric form of the requested size and rank bound, picks two
points off the quadric, builds the certificate, verifies it from its own
serialization, and prints a per-step trace.

    python3 scripts/connect_demo.py --size 5 --seed 7
"""

import argparse
import random
import sys
from fractions import Fraction

from quadcyl import (
    QuadForm,
    Tower,
    build_complement_charts,
    connect_complement,
    proj,
    verify_path,
)
from quadcyl.projective import mat
from quadcyl.serialize import dumps, loads, path_from_obj, path_to_obj


def random_form(rng, n):
    while True:
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                rows[i][j] = rows[j][i] = c
        q = QuadForm(mat(rows))
        if q.rank() >= 3:
            return q


def random_point_off(q, rng):
    while True:
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(q.size)]
        if any(coords):
            p = proj(coords)
            if not q(p).is_zero():
                return p


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    q = random_form(rng, args.size)
    print("form rank %d on %d coordinates" % (q.rank(), q.size))
    bundle, tower = build_complement_charts(q, Tower.rationals())
    p, r = random_point_off(q, rng), random_point_off(q, rng)
    print("from", p)
    print("to  ", r)

    path = connect_complement(q, p, r, tower=tower, bundle=bundle)
    text = dumps(path_to_obj(path))
    replayed = path_from_obj(loads(text))
    report = verify_path(q, replayed)
    print("steps: %d, certificate: %d bytes, radicands: %d"
          % (len(path.steps), len(text), path.tower.height))
    for k, step in enumerate(path.steps):
        shown = str(step.exit)
        if len(shown) > 72:
            shown = shown[:69] + "..."
        chart = "dist %d, dep %d" % (step.chart["dist"], step.chart["dep"])
        print("  %2d. %-16s exit %s" % (k, chart, shown))
    print("verified:", report.valid)
    return 0 if report.valid else 1


if __name__ == "__main__":
    sys.exit(main())
