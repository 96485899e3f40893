"""Time tower products, sums and inverses on dense elements, by height,
then matrix inverses and form pullbacks on sparse matrices and tangent
frames on the acceptance grid.

The tower of height h adjoins the square roots of the first h primes; each
operand has all 2**h coefficients nonzero (seeded integers in [-9, 9]).  At
height 0 the operands are seeded rationals p/q with 0 < |p|, q <= 10**6.
For each height it prints the time per operation of a product x*y, a sum
x+y and an inverse 1/x, each the best of --repeat timings of a batch of
4**(5-h) operations on as many operand pairs (one at heights 5 and up),
and checks x*(1/x) == 1.

The L1 rows time, for each height in L1_HEIGHTS, size n in L1_SIZES and
zero share z in L1_ZEROS, one mat_inverse(M), one QuadForm(A).transform(M)
(M^T A M) and one value QuadForm(A)(x), each the best of --repeat.  M and
the symmetric A are n x n and seeded per (height, n, z): round(z*n*n)
entries of M are zero, never on a random permutation that keeps M
invertible, and each entry of A's upper triangle is zero with probability
z.  A nonzero entry is r + s*sqrt(p_k) for seeded integers r, s in
[-9, 9], s != 0, and a seeded level k, like the entries of chart
matrices; at height 0 it is p/q with 0 < |p|, q <= 9.  x is a dense
point of the row's height, every coordinate drawn as the L0 operands
are.  It checks M * M^-1 == I and A(x) == dot(x, A x).

The L2 rows time one charts.ctsq_normalize, the best of --repeat, for
each form hyperbolic_target of size n in L2_SIZES and rank 3..n (the
acceptance grid), at a seeded rational smooth point: coordinates are
seeded integers in [-9, 9], x_0 != 0, and x_1 solves the equation.  They
check F * F^-1 == I for the frame's F and the inverse it comes with.

The SQ rows time sqrt_if_present, for each height h >= 1 of --heights, in
the tower of height h - 1 above extended by a dense radicand d_h of level
h - 1: a miss, a dense element of d_h's level (so not a rational multiple
of any radicand), and a hit, r^2 * d_h for a seeded rational r, each the
best of --repeat timed batches as above.  It checks that every miss finds
no root and every hit a root that squares back.

The L5 rows time, for each height h of --heights, the text of a point
document with L5_SIZE coordinates: 1 and then dense height-h elements as
above.  They print its bytes, one serialize.dumps and one parse
(serialize.loads, then point_from_obj, which reads each coordinate with
scalar_from_obj), each the best of --repeat, and check that the parse
gives the same coordinates and re-dumps to the same text.

    python3 scripts/kernel_bench.py
    python3 scripts/kernel_bench.py --heights 0,6,7,8 --repeat 5
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from quadcyl.charts import ctsq_normalize, hyperbolic_target
from quadcyl.projective import (
    ProjPoint, QuadForm, dot, identity_mat, mat_inverse, mat_mul, mat_vec,
    vec,
)
from quadcyl.serialize import dumps, loads, point_from_obj, point_to_obj
from quadcyl.tower import ONE, ZERO, Tower, as_scalar, sqrt_if_present

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
L1_HEIGHTS = (0, 4)
L1_SIZES = (6, 8)
L1_ZEROS = (0.0, 0.5, 0.8)
L2_SIZES = range(3, 9)
L5_SIZE = 6


def tower_of(h):
    tower = Tower.rationals()
    for p in PRIMES[:h]:
        tower = tower.extend(p)
    return tower


def dense(tower, rng):
    """An element of tower with every coefficient in the sqrt(p) basis
    nonzero; a rational with a wide numerator and denominator when the
    tower is Q itself."""
    if tower.height == 0:
        return as_scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6),
                                  rng.randint(1, 10**6)))
    x = rng.choice((-1, 1)) * rng.randint(1, 9)
    for level in range(1, tower.height + 1):
        x = x + dense(tower.ancestors[level - 1], rng) * tower.generator(level)
    return x


def light(tower, rng):
    """A nonzero r + s*sqrt(p_k), k a seeded level of the tower and r, s
    seeded integers in [-9, 9]; a rational p/q with 0 < |p|, q <= 9 when
    the tower is Q itself."""
    if tower.height == 0:
        return as_scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                  rng.randint(1, 9)))
    r = rng.randint(-9, 9)
    s = rng.choice((-1, 1)) * rng.randint(1, 9)
    return r + s * tower.generator(rng.randint(1, tower.height))


def sparse_pair(tower, n, zeros, rng):
    """(M, A): an invertible n x n matrix with round(zeros*n*n) zero
    entries and a symmetric one whose upper-triangle entries are zero with
    probability zeros; nonzero entries as `light` draws them."""
    perm = list(range(n))
    rng.shuffle(perm)
    free = [(i, j) for i in range(n) for j in range(n) if j != perm[i]]
    zero_cells = set(rng.sample(free, min(round(zeros * n * n), len(free))))
    m = [[ZERO if (i, j) in zero_cells else light(tower, rng)
          for j in range(n)] for i in range(n)]
    a = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() >= zeros:
                a[i][j] = a[j][i] = light(tower, rng)
    return tuple(map(tuple, m)), QuadForm(a)


def best_of(fn, repeat):
    """(seconds of the fastest of `repeat` calls of fn, its result)."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def l1_rows(repeat, seed):
    print("L1 height  size  zeros  mat_inverse_s  transform_s  form_s")
    for h in L1_HEIGHTS:
        tower = tower_of(h)
        for n in L1_SIZES:
            for z in L1_ZEROS:
                rng = random.Random("%d-%d-%d-%g" % (seed, h, n, z))
                m, a = sparse_pair(tower, n, z, rng)
                x = tuple(dense(tower, rng) for _ in range(n))
                inv_s, inv = best_of(lambda: mat_inverse(m), repeat)
                tr_s, _ = best_of(lambda: a.transform(m), repeat)
                if mat_mul(m, inv) != identity_mat(n):
                    print("error: M * M^-1 != I at height %d, size %d"
                          % (h, n), file=sys.stderr)
                    return 1
                # the first value builds the form's rows; time the others
                if a(x) != dot(x, mat_vec(a.matrix, x)):
                    print("error: A(x) != dot(x, A x) at height %d, size %d"
                          % (h, n), file=sys.stderr)
                    return 1
                form_s, _ = best_of(lambda: a(x), repeat)
                print("L1 %-7d %-5d %-6g %-14.3g %-12.3g %.3g"
                      % (h, n, z, inv_s, tr_s, form_s))
    return 0


def l2_rows(repeat, seed):
    print("L2 size  rank  ctsq_s")
    for n in L2_SIZES:
        for r in range(3, n + 1):
            rng = random.Random("%d-%d-%d" % (seed, n, r))
            q = hyperbolic_target(n, r // 2, bool(r % 2))
            x = [rng.randint(-9, 9) for _ in range(n)]
            x[0], x[1] = rng.choice((-1, 1)) * rng.randint(1, 9), 0
            x[1] = -q(vec(x)) / x[0]
            x = vec(x)
            ctsq_s, frame = best_of(lambda: ctsq_normalize(q, x), repeat)
            change = frame.change
            if mat_mul(change.matrix, change.inverse_matrix()) != \
                    identity_mat(n):
                print("error: F * F^-1 != I at size %d, rank %d" % (n, r),
                      file=sys.stderr)
                return 1
            print("L2 %-5d %-5d %.3g" % (n, r, ctsq_s))
    return 0


def per_op(fn, pairs, repeat):
    """Seconds per call of fn over the operand pairs, fastest of `repeat`
    timed batches."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for x, y in pairs:
            fn(x, y)
        times.append(time.perf_counter() - t0)
    return min(times) / len(pairs)


def sqrt_rows(heights, repeat, rng):
    print("SQ height  miss_s     hit_s")
    for h in heights:
        if not h:
            continue
        below = tower_of(h - 1)
        tower = below.extend(dense(below, rng))
        d = tower.radicand
        count = 4 ** max(5 - h, 0)
        misses = [(tower, dense(below, rng)) for _ in range(count)]
        hits = []
        for _ in range(count):
            r = as_scalar(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
            hits.append((tower, r * r * d))
        miss_s = per_op(sqrt_if_present, misses, repeat)
        hit_s = per_op(sqrt_if_present, hits, repeat)
        roots = [sqrt_if_present(tower, v) for _, v in hits]
        if any(sqrt_if_present(tower, v) is not None for _, v in misses) or \
                any(r is None or r * r != v for r, (_, v) in zip(roots, hits)):
            print("error: sqrt_if_present missed a hit or hit a miss at "
                  "height %d" % h, file=sys.stderr)
            return 1
        print("SQ %-7d %-10.3g %.3g" % (h, miss_s, hit_s))
    return 0


def l5_rows(heights, repeat, rng):
    print("L5 height  bytes     dumps_s    parse_s")
    for h in heights:
        tower = tower_of(h)
        coords = (ONE,) + tuple(dense(tower, rng) for _ in range(L5_SIZE - 1))
        doc = point_to_obj(ProjPoint(coords), tower)
        dump_s, text = best_of(lambda: dumps(doc), repeat)
        parse_s, (point, back) = best_of(
            lambda: point_from_obj(loads(text)), repeat)
        if point.coords != coords or dumps(point_to_obj(point, back)) != text:
            print("error: point document does not round-trip at height %d"
                  % h, file=sys.stderr)
            return 1
        print("L5 %-7d %-9d %-10.3g %.3g"
              % (h, len(text.encode()), dump_s, parse_s))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--heights", default="0,4,5,6,7,8",
                    help="comma-separated tower heights (at most %d)"
                    % len(PRIMES))
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    heights = [int(h) for h in args.heights.split(",")]
    if any(not 0 <= h <= len(PRIMES) for h in heights) or args.repeat < 1:
        ap.error("heights must lie in 0..%d and --repeat be positive"
                 % len(PRIMES))
    rng = random.Random(args.seed)
    print("height  mul_s      add_s      inverse_s")
    for h in heights:
        tower = tower_of(h)
        pairs = [(dense(tower, rng), dense(tower, rng))
                 for _ in range(4 ** max(5 - h, 0))]
        mul_s = per_op(lambda x, y: x * y, pairs, args.repeat)
        add_s = per_op(lambda x, y: x + y, pairs, args.repeat)
        inv_s = per_op(lambda x, y: 1 / x, pairs, args.repeat)
        if any(x * (1 / x) != ONE for x, _ in pairs):
            print("error: x*(1/x) != 1 at height %d" % h, file=sys.stderr)
            return 1
        print("%-7d %-10.3g %-10.3g %.3g" % (h, mul_s, add_s, inv_s))
    return sqrt_rows(heights, args.repeat, rng) or \
        l5_rows(heights, args.repeat, rng) or \
        l1_rows(args.repeat, args.seed) or \
        l2_rows(args.repeat, args.seed)


if __name__ == "__main__":
    sys.exit(main())
