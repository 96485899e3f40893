"""Time tower products, sums and inverses on dense elements, by height.

The tower of height h adjoins the square roots of the first h primes; each
operand has all 2**h coefficients nonzero (seeded integers in [-9, 9]).  At
height 0 the operands are seeded rationals p/q with 0 < |p|, q <= 10**6.
For each height it prints the time per operation of a product x*y, a sum
x+y and an inverse 1/x, each the best of --repeat timings of a batch of
4**(5-h) operations on as many operand pairs (one at heights 5 and up),
and checks x*(1/x) == 1.

    python3 scripts/kernel_bench.py
    python3 scripts/kernel_bench.py --heights 0,6,7,8 --repeat 5
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from quadcyl.tower import ONE, Tower, as_scalar

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
        tower = Tower.rationals()
        for p in PRIMES[:h]:
            tower = tower.extend(p)
        pairs = [(dense(tower, rng), dense(tower, rng))
                 for _ in range(4 ** max(5 - h, 0))]
        mul_s = per_op(lambda x, y: x * y, pairs, args.repeat)
        add_s = per_op(lambda x, y: x + y, pairs, args.repeat)
        inv_s = per_op(lambda x, y: 1 / x, pairs, args.repeat)
        if any(x * (1 / x) != ONE for x, _ in pairs):
            print("error: x*(1/x) != 1 at height %d" % h, file=sys.stderr)
            return 1
        print("%-7d %-10.3g %-10.3g %.3g" % (h, mul_s, add_s, inv_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
