"""Time tower products and inverses on dense elements, by tower height.

The tower of height h adjoins the square roots of the first h primes; each
operand has all 2**h coefficients nonzero (seeded integers in [-9, 9]).  For
each height it prints the best of --repeat timings of one product x*y and
of one inverse 1/x, and checks x*(1/x) == 1.

    python3 scripts/kernel_bench.py
    python3 scripts/kernel_bench.py --heights 6,7,8 --repeat 5
"""

import argparse
import random
import sys
import time

from quadcyl.tower import ONE, Tower

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def dense(tower, rng):
    """An element of tower with every coefficient in the sqrt(p) basis
    nonzero."""
    x = rng.choice((-1, 1)) * rng.randint(1, 9)
    for level in range(1, tower.height + 1):
        x = x + dense(tower.ancestors[level - 1], rng) * tower.generator(level)
    return x


def best_time(fn, repeat):
    """(fastest of `repeat` timed calls, the last call's result)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--heights", default="4,5,6,7,8",
                    help="comma-separated tower heights (at most %d)"
                    % len(PRIMES))
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    heights = [int(h) for h in args.heights.split(",")]
    if any(not 1 <= h <= len(PRIMES) for h in heights) or args.repeat < 1:
        ap.error("heights must lie in 1..%d and --repeat be positive"
                 % len(PRIMES))
    rng = random.Random(args.seed)
    print("height  mul_s      inverse_s")
    for h in heights:
        tower = Tower.rationals()
        for p in PRIMES[:h]:
            tower = tower.extend(p)
        x, y = dense(tower, rng), dense(tower, rng)
        mul_s, _ = best_time(lambda: x * y, args.repeat)
        inv_s, xi = best_time(lambda: 1 / x, args.repeat)
        if x * xi != ONE:
            print("error: x*(1/x) != 1 at height %d" % h, file=sys.stderr)
            return 1
        print("%-7d %-10.3g %.3g" % (h, mul_s, inv_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
