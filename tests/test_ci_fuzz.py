"""Corruption fuzz of intersection (ci) certificates.

Certificates join seeded rational smooth points of the hexagonal pencil.
Each mutation bumps one scalar leaf or one node level in the endpoints,
the segment lines or the segment steps, or one step chart's dist or dep
index by one.  A mutated certificate must be
refused by the parser or by verify_on_X; one that is accepted must still
be a true certificate, so its endpoints lie on X.
"""

import random
import time
from fractions import Fraction as F

from quadcyl.errors import InputFormatError
from quadcyl.pencils import Pencil, connect_on_X, verify_on_X
from quadcyl.projective import ProjPoint, quadform_from_terms, vec
from quadcyl.serialize import dumps, loads, xpath_from_obj, xpath_to_obj


def hexagonal_pencil():
    beta = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    gamma = quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1})
    return Pencil(beta, gamma)


def rational_point(pencil, rng):
    """x0, x2, x3, x4 at random; x1 and x5 solve the two equations, which
    are linear in them."""
    while True:
        x0, x2, x3, x4 = (F(rng.randint(-9, 9)) for _ in range(4))
        det = x0 * x0 - x2 * x4
        if not det:
            continue
        x1 = (x3 * x4 * x4 - x0 * x2 * x3) / det
        x5 = (x2 * x2 * x3 - x0 * x3 * x4) / det
        p = ProjPoint(vec((x0, x1, x2, x3, x4, x5)))
        if pencil.smooth_at(p):
            return p


def mutation_spots(obj):
    """(container, key, how) for every scalar leaf and node level of the
    endpoints, the lines and the steps, and every step chart index."""
    spots = []

    def scalar(node, key):
        value = node[key]
        if isinstance(value, dict):
            spots.append((value, "level", "level"))
            scalar(value, "a")
            scalar(value, "b")
        else:
            spots.append((node, key, "leaf"))

    def coords(lst):
        for k in range(len(lst)):
            scalar(lst, k)

    coords(obj["from"])
    coords(obj["to"])
    for seg in obj["segments"]:
        coords(seg["line"]["v1"])
        coords(seg["line"]["v2"])
        for step in seg["steps"]:
            coords(step["entry"])
            coords(step["exit"])
            coords(step["target"])
            coords(step["chart"]["matrix"])
            spots.append((step["chart"], "dist", "index"))
            spots.append((step["chart"], "dep", "index"))
    return spots


def bump(node, key, how, rng):
    if how in ("level", "index"):
        node[key] += rng.choice((-1, 1))
    else:
        p, q = node[key].split("/")
        node[key] = "%d/%s" % (int(p) + int(q), q)


def test_ci_certificate_corruption_fuzz():
    t0 = time.monotonic()
    rng = random.Random(3131)
    pencil = hexagonal_pencil()
    texts = []
    while len(texts) < 6:
        a, b = rational_point(pencil, rng), rational_point(pencil, rng)
        if a == b:
            continue
        xp = connect_on_X(pencil, a, b, seed=rng.randrange(10 ** 6))
        assert verify_on_X(pencil, xp).valid
        texts.append(dumps(xpath_to_obj(xp)))
    counts = {"parser": 0, "verifier": 0, "accepted": 0}
    kinds = {"leaf": 0, "level": 0, "index": 0}
    for _ in range(600):
        obj = loads(texts[rng.randrange(len(texts))])
        node, key, how = rng.choice(mutation_spots(obj))
        bump(node, key, how, rng)
        kinds[how] += 1
        try:
            mutated = xpath_from_obj(obj)
        except InputFormatError:
            counts["parser"] += 1
            continue
        if not verify_on_X(pencil, mutated).valid:
            counts["verifier"] += 1
            continue
        counts["accepted"] += 1
        assert pencil.on_intersection(mutated.start)
        assert pencil.on_intersection(mutated.end)
    print("ci fuzz: mutations %s, outcomes %s" % (kinds, counts))
    assert kinds["level"] > 0 and kinds["index"] > 0
    assert counts["parser"] > 0
    assert counts["verifier"] > 0
    assert time.monotonic() - t0 < 30.0
