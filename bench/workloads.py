"""Inputs for the three benchmark workloads.

Every workload is a stream of batches; a batch is a list of `Pair`s, each
one `quadcyl connect` call followed by one `quadcyl verify` call, given
as argument lists for `quadcyl.cli.main`.  Documents the commands read
(pencils, forms, deep endpoints) are written by `setup`, with the
library's own writers, into a work directory; inline rational points are
passed as `--from=...`/`--to=...` because argparse reads a value starting
with `-` as a flag.

The workload seed decides the endpoints, their order and the `--seed`
given to each `connect`; the same seed always yields the same inputs.

Workloads:

- ci-deep: frozen endpoint pairs of the test_09 recipe (two calls of
  `point_on_intersection` on one growing tower) on the hexagonal pencil,
  read from fixtures/ci_deep.json.  A batch holds every frozen pair up to
  certificate height 8 (see DEEP_TIMED_MAX_HEIGHT), so batches cost the
  same whatever the seed picks.
- ci-rational: rational smooth points of the same pencil, drawn with
  `fractions`: x0, x2, x3, x4 at random, x1 and x5 solved from the two
  linear equations, kept when the two gradients are independent.
- quadric-grid: the acceptance grid, `hyperbolic_target` forms of size
  3 to 8 at every rank >= 3.  Each batch visits every form once; pairs
  alternate between `connect complement` (random rational points off the
  quadric) and `connect quadric` (rational smooth points, solved for x1).
"""

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DEEP_FIXTURES = os.path.join(HERE, "fixtures", "ci_deep.json")

WORKLOADS = ("ci-deep", "ci-rational", "quadric-grid")

# The ci-deep pairs a run times: every frozen pair below height 9, so runs
# of any seed time the same pairs and the seed picks only their order and
# connect seeds.  The height-9 pairs stay out of the timed phase: one costs
# 13 to 22 s, about as much as all the others together.  The traced run
# adds the first pair of the test_09 recipe, so level-9 arithmetic shows
# per layer.
DEEP_TIMED_MAX_HEIGHT = 8
DEEP_TRACED_EXTRA = ("s909-p0",)
TRACED_EXTRA_INDEX = 90000
RATIONAL_BATCH = 16
# Batches that make up the pairs of one run (see Workload.run_pairs).
RUN_BATCHES = {"ci-deep": 1, "ci-rational": 2, "quadric-grid": 12}
GRID_SIZES = range(3, 9)
COORD_BOUND = 9


@dataclass
class Pair:
    """One connect-then-verify pair of CLI invocations."""
    index: int
    kind: str
    size: int
    connect: list
    verify: list
    cert: str


def hexagonal_pencil():
    from quadcyl.pencils import Pencil
    from quadcyl.projective import quadform_from_terms
    beta = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    gamma = quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1})
    return Pencil(beta, gamma)


# ---------------------------------------------------------------------------
# the frozen encoding of deep scalars: a rational is its "p/q" string, an
# element a + b*sqrt(d_k) of level k is the list [k, a, b]


def encode_scalar(x):
    if x.level == 0:
        return str(Fraction(x.rat))
    return [x.level, encode_scalar(x.a), encode_scalar(x.b)]


def decode_scalar(obj, tower):
    if isinstance(obj, str):
        return Fraction(obj)
    level, a, b = obj
    return decode_scalar(a, tower) + decode_scalar(b, tower) * \
        tower.generator(level)


def decode_tower(radicands):
    from quadcyl.tower import Tower
    tower = Tower.rationals()
    for r in radicands:
        tower = tower.extend(decode_scalar(r, tower))
    return tower


def decode_point(coords, tower):
    from quadcyl.projective import ProjPoint
    from quadcyl.tower import as_scalar
    return ProjPoint([as_scalar(decode_scalar(c, tower)) for c in coords])


def load_deep_fixtures():
    with open(DEEP_FIXTURES, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_deep_pair(pair, work):
    """Write one frozen pair as two point documents; returns their paths."""
    from quadcyl import serialize as ser
    tower = decode_tower(pair["radicands"])
    paths = []
    for end in ("from", "to"):
        point = decode_point(pair[end], tower)
        path = os.path.join(work, "%s-%s.json" % (pair["id"], end))
        _write(path, ser.dumps(ser.point_to_obj(point, tower)))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# rational points


def _rand_nonzero(rng):
    return rng.choice([v for v in range(-COORD_BOUND, COORD_BOUND + 1) if v])


def rational_pencil_point(rng):
    """A rational smooth point of the hexagonal intersection
    x0x1 + x2x3 + x4x5 = x0x5 + x1x2 + x3x4 = 0."""
    while True:
        x0, x2, x3, x4 = (Fraction(rng.randint(-COORD_BOUND, COORD_BOUND))
                          for _ in range(4))
        det = x0 * x0 - x2 * x4
        if not det:
            continue
        # x0 x1 + x4 x5 = -x2 x3 and x2 x1 + x0 x5 = -x3 x4
        x1 = (x3 * x4 * x4 - x0 * x2 * x3) / det
        x5 = (x2 * x2 * x3 - x0 * x3 * x4) / det
        x = (x0, x1, x2, x3, x4, x5)
        grad_b = (x1, x0, x3, x2, x5, x4)
        grad_g = (x5, x2, x1, x4, x3, x0)
        if any(grad_b[i] * grad_g[j] != grad_b[j] * grad_g[i]
               for i in range(6) for j in range(i + 1, 6)):
            return x


def _same_projective_point(x, y):
    return all(x[i] * y[j] == x[j] * y[i]
               for i in range(len(x)) for j in range(i + 1, len(x)))


def _inline(coords):
    return ",".join(str(c) for c in coords)


def grid_shapes():
    """(size, rank) of every form of the acceptance grid."""
    return [(n, r) for n in GRID_SIZES for r in range(3, n + 1)]


def _grid_value(x, rank):
    """The hyperbolic_target form of the given rank at x."""
    pairs, has_z = divmod(rank, 2)
    v = sum(x[2 * i] * x[2 * i + 1] for i in range(pairs))
    return v + x[2 * pairs] ** 2 if has_z else v


def grid_complement_point(rng, size, rank):
    while True:
        x = [Fraction(rng.randint(-COORD_BOUND, COORD_BOUND))
             for _ in range(size)]
        if _grid_value(x, rank):
            return x


def grid_quadric_point(rng, size, rank):
    """A rational smooth point of the quadric: x0 != 0, so the gradient
    has x0 in its x1 entry, and x1 solves the equation."""
    x = [Fraction(rng.randint(-COORD_BOUND, COORD_BOUND))
         for _ in range(size)]
    x[0] = Fraction(_rand_nonzero(rng))
    x[1] = Fraction(0)
    x[1] = -_grid_value(x, rank) / x[0]
    return x


# ---------------------------------------------------------------------------
# set-up and batches


class Workload:
    """Documents of one workload in a work directory, and its batches."""

    def __init__(self, name, seed, work):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.seed = seed
        self.work = work
        self.docs = {}
        self.deep = None

    def setup(self):
        """Build every input document.  Deterministic, so it may be run
        again to time it."""
        from quadcyl import serialize as ser
        from quadcyl.charts import hyperbolic_target
        from quadcyl.pencils import eacx_build
        from quadcyl.projective import quadform_from_terms
        from quadcyl.tower import Tower
        os.makedirs(self.work, exist_ok=True)
        q = Tower.rationals()
        docs = {}
        if self.name in ("ci-deep", "ci-rational"):
            docs["pencil"] = os.path.join(self.work, "hexagonal.pf")
            _write(docs["pencil"],
                   ser.dumps(ser.pencil_to_obj(hexagonal_pencil(), q)))
            # negative control: another intersection of two quadrics
            docs["wrong"] = os.path.join(self.work, "eacx.pf")
            _write(docs["wrong"], ser.dumps(ser.pencil_to_obj(
                eacx_build([0, 1, 2, 3, 4, 5]), q)))
        if self.name == "ci-deep":
            self.deep = load_deep_fixtures()
            for pair in self.deep["pairs"]:
                docs[pair["id"]] = write_deep_pair(pair, self.work)
        if self.name == "quadric-grid":
            for n, r in grid_shapes():
                form = hyperbolic_target(n, r // 2, bool(r % 2))
                docs[(n, r)] = os.path.join(self.work, "grid-%d-%d.qf" % (n, r))
                _write(docs[(n, r)], ser.dumps(ser.form_to_obj(form, q)))
            for n in GRID_SIZES:
                # negative control: x0 x1 - x2^2, unlike every grid form
                wrong = quadform_from_terms(n, {(0, 1): 1, (2, 2): -1})
                docs[("wrong", n)] = os.path.join(self.work, "wrong-%d.qf" % n)
                _write(docs[("wrong", n)], ser.dumps(ser.form_to_obj(wrong, q)))
        self.docs = docs

    def _pair(self, index, kind, size, connect, reference):
        cert = os.path.join(self.work, "c%05d.cert" % index)
        report = os.path.join(self.work, "report.json")
        return Pair(index, kind, size, connect + ["--out", cert],
                    ["verify", reference, cert, "--out", report], cert)

    def batches(self):
        """Endless stream of batches; pair indices run on across them."""
        rng = random.Random(self.seed)
        index = 0
        batch_no = 0
        while True:
            if self.name == "ci-deep":
                batch = self._deep_batch(rng, index)
            elif self.name == "ci-rational":
                batch = self._rational_batch(rng, index)
            else:
                batch = self._grid_batch(rng, index, batch_no)
            index += len(batch)
            batch_no += 1
            yield batch

    def run_pairs(self):
        """The pairs one run times: its first RUN_BATCHES batches."""
        stream = self.batches()
        return [pair for _ in range(RUN_BATCHES[self.name])
                for pair in next(stream)]

    def _deep_batch(self, rng, index):
        chosen = [pair for pair in self.deep["pairs"]
                  if pair["cert_height"] <= DEEP_TIMED_MAX_HEIGHT]
        rng.shuffle(chosen)
        return [self._deep_pair(index + k, pair,
                                rng.choice(pair["connect_seeds"]))
                for k, pair in enumerate(chosen)]

    def _deep_pair(self, index, pair, seed):
        a, b = self.docs[pair["id"]]
        return self._pair(
            index, "ci", 6,
            ["connect", "ci", "--pencil", self.docs["pencil"],
             "--from", "@" + a, "--to", "@" + b, "--seed", str(seed)],
            "--pencil=" + self.docs["pencil"])

    def traced_extra(self):
        """Pairs the traced run replays beyond the first batch."""
        if self.name != "ci-deep":
            return []
        by_id = {pair["id"]: pair for pair in self.deep["pairs"]}
        rng = random.Random(self.seed)
        return [self._deep_pair(TRACED_EXTRA_INDEX + k, by_id[pid],
                                rng.choice(by_id[pid]["connect_seeds"]))
                for k, pid in enumerate(DEEP_TRACED_EXTRA)]

    def _rational_batch(self, rng, index):
        out = []
        while len(out) < RATIONAL_BATCH:
            p, q = rational_pencil_point(rng), rational_pencil_point(rng)
            if _same_projective_point(p, q):
                continue
            out.append(self._pair(
                index + len(out), "ci", 6,
                ["connect", "ci", "--pencil", self.docs["pencil"],
                 "--from=" + _inline(p), "--to=" + _inline(q),
                 "--seed", str(rng.randrange(10 ** 6))],
                "--pencil=" + self.docs["pencil"]))
        return out

    def _grid_batch(self, rng, index, batch_no):
        shapes = grid_shapes()
        order = list(range(len(shapes)))
        rng.shuffle(order)
        out = []
        for k, s in enumerate(order):
            n, r = shapes[s]
            if (s + batch_no) % 2 == 0:
                kind = "complement"
                p = grid_complement_point(rng, n, r)
                q = grid_complement_point(rng, n, r)
            else:
                kind = "quadric"
                p = grid_quadric_point(rng, n, r)
                q = grid_quadric_point(rng, n, r)
            out.append(self._pair(
                index + k, kind, n,
                ["connect", kind, "--form", self.docs[(n, r)],
                 "--from=" + _inline(p), "--to=" + _inline(q),
                 "--seed", str(rng.randrange(10 ** 6))],
                "--form=" + self.docs[(n, r)]))
        return out

    def wrong_reference(self, pair):
        """The --pencil/--form argument of the negative control for a pair:
        a reference the pair's certificate does not belong to."""
        if pair.kind == "ci":
            return "--pencil=" + self.docs["wrong"]
        return "--form=" + self.docs[("wrong", pair.size)]
