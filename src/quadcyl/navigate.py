"""Connecting points by fiber moves, and replaying the certificates.

A certificate (MovePath) is a finite list of steps; each step names a
chart by its descriptor {dist, dep, matrix}, an entry point, and a
transverse target.  The producer also stores the exit point so
verification can replay every move independently: rebuild the chart from
the descriptor against the ambient form and the problem's domain (on the
quadric or off it), check the entry is in the chart's domain, move, and
compare.  verify_path never trusts producer-side objects and never
raises on a bad certificate; it returns a report naming the first broken
step.

The complement connector works in the standard cylinders of the form:
both endpoints are first driven to a canonical point of the first
hyperbolic pair, and the two canonical points are then joined by a short
rescale gadget (three moves) when their fiber values differ.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .errors import (
    EndpointError,
    InputFormatError,
    OutOfDomainError,
    RankTooLowError,
    SingularPointError,
)
from .charts import Chart, ChartBundle, build_complement_charts, \
    chart_from_descriptor, quadric_chart
from .projective import ProjPoint, QuadForm, mat_eq, point_on_quadric
from .tower import Tower, ZERO, as_scalar, deepest_tower, sqrt_if_present, \
    try_sqrt


@dataclass(frozen=True)
class MoveStep:
    chart: dict
    entry: ProjPoint
    target: tuple
    exit: ProjPoint


@dataclass
class MovePath:
    """A fiber-move certificate.  problem is "complement" or "quadric"."""
    problem: str
    form: QuadForm
    start: ProjPoint
    end: ProjPoint
    steps: tuple
    tower: Tower

    def __len__(self):
        return len(self.steps)


@dataclass
class VerifyReport:
    """The outcome of replaying one certificate.  index names the first
    broken step (segment, for problem "ci") and count is the number of
    steps (segments) in the certificate."""
    valid: bool
    reason: str | None
    index: int | None
    count: int
    problem: str
    radicand_count: int

    def to_obj(self) -> dict:
        return asdict(self)


class _Trail:
    """Producer-side accumulator pairing live charts with their steps."""

    def __init__(self):
        self.recs = []  # (chart, MoveStep)

    def move(self, chart: Chart, entry: ProjPoint, target) -> ProjPoint:
        t, tv = chart.forward(entry)
        target = tuple(as_scalar(x) for x in target)
        if list(tv) == list(target):
            return entry  # no-op, skip
        exit_p = chart.backward(t, target)
        self.recs.append(
            (chart, MoveStep(chart.descriptor(), entry, target, exit_p)))
        return exit_p

    def extend_reversed(self, other: "_Trail"):
        for chart, step in reversed(other.recs):
            _, back_tv = chart.forward(step.entry)
            self.recs.append(
                (chart, MoveStep(chart.descriptor(), step.exit,
                                 tuple(back_tv), step.entry)))

    def steps(self):
        return tuple(step for _, step in self.recs)


def _canonicalize_complement(bundle: ChartBundle, p: ProjPoint, tower):
    """Drive p to the canonical point of the first pair: (1:t:0:...:0) when
    the rank is even, (1:0:...:0:z) with z^2 = t when it is odd.  At most
    two moves; returns (trail, canonical point, tower)."""
    trail = _Trail()
    cur = p
    m, has_z = bundle.pairs, bundle.has_z
    u = bundle.read_hyperbolic(cur)
    if u[0].is_zero():
        chart = None
        target = None
        for i in range(1, m):
            if not u[2 * i].is_zero():
                chart = bundle.u_charts[i]
                target = chart.target_from({0: 1})
                break
        if chart is None and has_z:
            for i in range(m):
                if not u[2 * i + 1].is_zero():
                    chart = bundle.v_charts[i]
                    # for pair 1 the x coordinate is the dependent one:
                    # a zero target lands it on the fiber value, nonzero
                    target = chart.target_from({0: 1} if i else {})
                    break
        if chart is None and has_z:
            chart = bundle.w_chart
            cur_t, _ = chart.forward(cur)
            # hunt a small transverse block whose exit has x_1 != 0
            for cand in _w_escape_candidates(chart):
                exit_p = chart.backward(cur_t, cand)
                if not bundle.read_hyperbolic(exit_p)[0].is_zero():
                    target = cand
                    break
            else:  # pragma: no cover - impossible, see ledger
                raise RuntimeError("no escape target found")
        if chart is None:
            raise EndpointError("point has no nonzero pair coordinate")
        cur = trail.move(chart, cur, target)
        u = bundle.read_hyperbolic(cur)
        assert not u[0].is_zero()
    u1 = bundle.u_charts[0]
    t, _ = u1.forward(cur)
    if has_z:
        lam, tower = try_sqrt(tower, t)
        target = u1.target_from({2 * m: lam})
    else:
        target = u1.target_from({})
    cur = trail.move(u1, cur, target)
    return trail, cur, tower


def _w_escape_candidates(chart: Chart):
    yield chart.target_from({})
    for j in chart.trans:
        for k in (1, 2, 3):
            yield chart.target_from({j: k})


def _rescale_pairs(bundle: ChartBundle, cp, cq, t_p, t_q, tower):
    """Even-rank gadget: (1:t:0:...) to (1:t':0:...) in three moves through
    the first two pairs.  Needs at least two pairs, which rank >= 3 with
    even rank guarantees."""
    trail = _Trail()
    u1, u2 = bundle.u_charts[0], bundle.u_charts[1]
    lam, tower = try_sqrt(tower, t_p / t_q)
    step1 = trail.move(u1, cp, u1.target_from({2: lam}))
    step2 = trail.move(u2, step1, u2.target_from({0: 1, 1: t_p / lam}))
    step3 = trail.move(u1, step2, u1.target_from({}))
    assert step3 == cq
    return trail, tower


def _rescale_axis(bundle: ChartBundle, cp, cq, lam, mu, tower):
    """Odd-rank gadget: (1:0:...:lam) to (1:0:...:mu) in three moves using
    the first pair's two charts and the square coordinate."""
    trail = _Trail()
    u1, v1 = bundle.u_charts[0], bundle.v_charts[0]
    zpos = 2 * bundle.pairs
    nine = as_scalar(9)
    c = None
    for sign in (-1, 1):
        c2 = (1 + sign * 3 * lam / mu) / (nine * lam * lam)
        if c2.is_zero():
            c = ZERO
            break
        root = sqrt_if_present(tower, c2)
        if root is not None:
            c = root
            break
    if c is None:
        c2 = (1 - 3 * lam / mu) / (nine * lam * lam)
        c, tower = try_sqrt(tower, c2)
    step1 = trail.move(u1, cp, u1.target_from({zpos: 2 * lam}))
    step2 = trail.move(v1, step1, v1.target_from({zpos: c}))
    step3 = trail.move(u1, step2, u1.target_from({zpos: mu}))
    assert step3 == cq
    return trail, tower


def connect_complement(form: QuadForm, p, q, *, tower=None,
                       bundle=None) -> MovePath:
    """A verified-replayable path of fiber moves from p to q inside the
    complement of V(form).  Needs rank >= 3; at most 12 moves."""
    p = p if isinstance(p, ProjPoint) else ProjPoint(p)
    q = q if isinstance(q, ProjPoint) else ProjPoint(q)
    tower = deepest_tower(p.coords + q.coords,
                          tower if tower is not None else Tower.rationals())
    if form(p).is_zero() or form(q).is_zero():
        raise EndpointError("endpoint lies on the quadric")
    if bundle is None:
        bundle, tower = build_complement_charts(form, tower)

    def done(steps):
        path = MovePath("complement", form, p, q, steps, tower)
        assert len(path.steps) <= 12
        return path

    if p == q:
        return done(())

    # single-move shortcut when both points share a chart and a fiber
    for chart in bundle.all_charts():
        try:
            tp, _ = chart.forward(p)
            tq, tvq = chart.forward(q)
        except OutOfDomainError:
            continue
        if tp == tq:
            trail = _Trail()
            end = trail.move(chart, p, tvq)
            assert end == q
            return done(trail.steps())

    trail_p, cp, tower = _canonicalize_complement(bundle, p, tower)
    trail_q, cq, tower = _canonicalize_complement(bundle, q, tower)
    full = _Trail()
    full.recs.extend(trail_p.recs)
    if cp != cq:
        u1 = bundle.u_charts[0]
        t_p, _ = u1.forward(cp)
        t_q, _ = u1.forward(cq)
        if bundle.has_z:
            zslot = 2 * bundle.pairs
            lam = u1.transverse_value(u1.forward(cp)[1], zslot)
            mu = u1.transverse_value(u1.forward(cq)[1], zslot)
            gadget, tower = _rescale_axis(bundle, cp, cq, lam, mu, tower)
        else:
            gadget, tower = _rescale_pairs(bundle, cp, cq, t_p, t_q, tower)
        full.recs.extend(gadget.recs)
    full.extend_reversed(trail_q)
    return done(full.steps())


def connect_on_quadric(form: QuadForm, p, q, *, tower=None, seed=None,
                       rng=None, retry_limit=64) -> MovePath:
    """A path of fiber moves between two smooth points inside the quadric
    V(form) itself: one jump in the quadric chart around an auxiliary
    smooth point y with beta(y, p) and beta(y, q) both nonzero.  For rank
    >= 3, V(form) is irreducible and lies in neither tangent hyperplane,
    so point_on_quadric finds y unless retry_limit candidates all miss
    (RetryLimitError).  y is projected from point_on_quadric's base
    point, so once the base lies in the tower, as it does for free when a
    coordinate vector is a smooth zero of the form, the connection pays
    no radicand."""
    p = p if isinstance(p, ProjPoint) else ProjPoint(p)
    q = q if isinstance(q, ProjPoint) else ProjPoint(q)
    if form.rank() < 3:
        raise RankTooLowError("form has rank %d, need at least 3" % form.rank())
    if not form(p).is_zero() or not form(q).is_zero():
        raise EndpointError("endpoint is not on the quadric")
    if not form.is_smooth_at(p) or not form.is_smooth_at(q):
        raise SingularPointError("endpoint is singular on the quadric")
    tower = deepest_tower(p.coords + q.coords,
                          tower if tower is not None else Tower.rationals())
    if rng is None:
        rng = random.Random(seed if seed is not None else 0)

    def done(steps):
        return MovePath("quadric", form, p, q, steps, tower)

    if p == q:
        return done(())

    def paired(y):
        return form.is_smooth_at(y) and not form.bilinear(y, p).is_zero() \
            and not form.bilinear(y, q).is_zero()

    y, tower = point_on_quadric(form, rng=rng, tower=tower, predicate=paired,
                                retry_limit=retry_limit)
    chart = quadric_chart(form, y)
    _, tvq = chart.forward(q)
    trail = _Trail()
    end = trail.move(chart, p, tvq)
    assert end == q
    return done(trail.steps())


def verify_path(form: QuadForm, path: MovePath, cache=None) -> VerifyReport:
    """Replay a certificate against the given ambient form.  Trusts only
    the descriptors, entries, and targets; every exit is recomputed.

    cache maps descriptors to rebuilt charts and may be shared by calls
    with the same form.  Its key holds the matrix scalars themselves;
    scalar equality compares the radicands of their towers, so a matrix
    read over another radicand list is another key."""
    rc = path.tower.height if path.tower is not None else 0

    def bad(reason, k=None):
        return VerifyReport(False, reason, k, len(path.steps), path.problem, rc)

    if path.problem not in ("complement", "quadric"):
        return bad("unknown problem kind %r" % path.problem)
    on_q = path.problem == "quadric"
    if not mat_eq(path.form.matrix, form.matrix):
        return bad("ambient form mismatch")
    for name, pt in (("start", path.start), ("end", path.end)):
        if len(pt.coords) != form.size:
            return bad("%s point has the wrong length" % name)
        fv = form(pt)
        if on_q and not fv.is_zero():
            return bad("%s point is off the quadric" % name)
        if not on_q and fv.is_zero():
            return bad("%s point lies on the quadric" % name)
    if not path.steps:
        if path.start != path.end:
            return bad("endpoints differ but the path is empty")
        return VerifyReport(True, None, None, 0, path.problem, rc)
    if cache is None:
        cache = {}
    cur = path.start
    for k, step in enumerate(path.steps):
        if step.entry != cur:
            return bad("chain break at step %d" % k, k)
        desc = step.chart
        key = (on_q, desc["dist"], desc["dep"],
               tuple(map(tuple, desc["matrix"])))
        chart = cache.get(key)
        if chart is None:
            try:
                chart = chart_from_descriptor(form, desc, on_q)
            except InputFormatError as exc:
                return bad("invalid chart descriptor at step %d: %s"
                           % (k, exc), k)
            cache[key] = chart
        if len(step.target) != len(chart.trans):
            return bad("transverse target has the wrong length at step %d" % k, k)
        try:
            t_in, _ = chart.forward(step.entry)
        except OutOfDomainError as exc:
            return bad("entry outside the chart domain at step %d: %s" % (k, exc), k)
        try:
            t_out, tv_out = chart.forward(step.exit)
        except OutOfDomainError as exc:
            return bad("exit outside the chart domain at step %d: %s" % (k, exc), k)
        if t_out != t_in:
            return bad("fiber parameter changed at step %d" % k, k)
        if list(tv_out) != list(step.target):
            return bad("transverse target missed at step %d" % k, k)
        cur = step.exit
    if cur != path.end:
        return bad("path does not reach the stated endpoint",
                   len(path.steps) - 1)
    return VerifyReport(True, None, None, len(path.steps), path.problem, rc)
