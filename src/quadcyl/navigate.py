"""Connecting points by fiber moves, and replaying the certificates.

A certificate (MovePath) is a finite list of steps; each step names a
chart by its descriptor {dist, dep, matrix}, an entry point, and a
transverse target.  The producer also stores the exit point so
verification can replay every move independently: rebuild the chart from
the descriptor against the ambient form and the problem's domain (on the
quadric or off it), check the entry is in the chart's domain, move, and
compare.  Entry and exit are kept as the producer computed them, any
nonzero representative, and compared projectively, without division.
The replay (verify_path) only multiplies and adds, except where
chart_from_descriptor inverts each distinct step matrix by Gauss-Jordan
elimination.  Consecutive moves in one chart are recorded as one step.
verify_path never trusts producer-side objects and never raises on a bad
certificate; it returns a report naming the first broken step.  Each fact
is decided once: verdict, which builds every report of both verifiers
(this one and pencils.verify_on_X), checks the endpoint facts only where
no successful replay has decided them.

The complement connector works in the standard cylinders of the form.
It first tries one move in one chart; since a lift's n is q(x), that test
reads only each chart's distinguished coordinate, against the endpoint
values it has already computed.  Otherwise both endpoints are driven, for
free, to a canonical point of the first hyperbolic pair, (1:t:0:...:0),
then joined by a short rescale gadget if their fibers differ: three moves
through two pairs past rank 3, and at rank 3 two moves, or three where
the tower already holds both sqrt(t).  The three moves through two pairs
and the two rank-3 moves are recorded from their closed form, which the
gadget already holds, so no chart inverts a scalar at the level of the
root it adjoined.
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
from .projective import ProjPoint, QuadForm, dot, mat_eq, point_on_quadric
from .tower import Tower, as_scalar, deeper_tower, deepest_tower, \
    sqrt_if_present, try_sqrt


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
    steps (segments) in the certificate.  radicand_count is the height of
    the replayed path's tower: for a path in memory it can exceed that of
    the header its writer prunes (ROADMAP item 15)."""
    valid: bool
    reason: str | None
    index: int | None
    count: int
    problem: str
    radicand_count: int

    def to_obj(self) -> dict:
        return asdict(self)


class _Trail:
    """Producer-side accumulator of steps.  Each keeps its chart and its
    entry's transverse tuple, so reversing it needs no second
    chart.forward.  A move keeps the fiber value and replaces the
    transverse block wholesale, so consecutive moves in one chart (the
    same object) are recorded as one move from the first entry to the
    last target, and dropped when that target is the entry's own block."""

    def __init__(self):
        self.recs = []  # (chart, MoveStep, its entry's transverse tuple)

    def _append(self, chart, entry, entry_tv, target, exit_p):
        if self.recs and self.recs[-1][0] is chart:
            _, last, entry_tv = self.recs.pop()
            entry = last.entry
            if entry_tv == target:
                return
        self.recs.append(
            (chart, MoveStep(chart.descriptor(), entry, target, exit_p),
             entry_tv))

    def move(self, chart: Chart, entry: ProjPoint, target) -> ProjPoint:
        t, tv = chart.forward(entry)
        target = tuple(as_scalar(x) for x in target)
        if list(tv) == list(target):
            return entry  # no-op, skip
        exit_p = chart.backward(t, target)
        self._append(chart, entry, tuple(tv), target, exit_p)
        return exit_p

    def extend(self, other: "_Trail"):
        for chart, step, entry_tv in other.recs:
            self._append(chart, step.entry, entry_tv, step.target, step.exit)

    def extend_reversed(self, other: "_Trail"):
        for chart, step, entry_tv in reversed(other.recs):
            self._append(chart, step.exit, step.target, entry_tv, step.entry)

    def steps(self):
        return tuple(step for _, step, _ in self.recs)


def _same_fiber(s1, n1, s2, n2) -> bool:
    """Do two points with distinguished coordinates s1, s2 and form
    values n1, n2 have one fiber value, n1/s1^2 == n2/s2^2?  Compared by
    cross-multiplying.  The pairs come from Chart.lift, or, where the form
    values are known, from the distinguished coordinate alone, since a
    lift's n is the form's value q(x)."""
    if s1 == s2:
        return n1 == n2
    return n1 * s2 * s2 == n2 * s1 * s1


def _canonicalize_complement(bundle: ChartBundle, p: ProjPoint):
    """Drive p to the canonical point of the first pair, (1:t:0:...:0),
    which pays no radicand at any rank.  At most two moves; returns
    (trail, canonical point)."""
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
            else:  # pragma: no cover - unreachable: were x_1 zero at all
                # exits, a + b(t - s_jj k^2) + c_j k = 0 for k = 0..3 and
                # every j gives x_1 = b(u_1 - t u_0) and every s_jj = 0; but
                # b, x_1 at the special point, is 0 for m >= 2, and for
                # m = 1 sigma has rank 1, so some s_jj is nonzero
                raise RuntimeError("no escape target found")
        if chart is None:
            raise EndpointError("point has no nonzero pair coordinate")
        cur = trail.move(chart, cur, target)
        u = bundle.read_hyperbolic(cur)
        assert not u[0].is_zero()
    u1 = bundle.u_charts[0]
    cur = trail.move(u1, cur, u1.target_from({}))
    return trail, cur


def _w_escape_candidates(chart: Chart):
    yield chart.target_from({})
    for j in chart.trans:
        for k in (1, 2, 3):
            yield chart.target_from({j: k})


def _rescale_pairs(bundle: ChartBundle, cp, cq, tower):
    """Past rank 3: (1:t_p:0:...) to (1:t_q:0:...) in three moves through
    the first two pairs, in the frame coordinates (x_1, y_1, x_2, y_2,
    ...), paying lam = sqrt(r), r = t_p/t_q, only when the tower lacks it.

    U_1 moves (1:t_p:0:...) to the block (lam, 0, ...) and lands on
    e1 = (1, t_p, lam, 0, ...).  In U_2, e1 has distinguished coordinate
    lam, so fiber t_p/lam^2 = t_q and block (1/lam, t_p/lam, 0, ...);
    the move to (1, c), c = t_p/lam, lands on e2 = (1, c, 1, t_q - c).
    In U_1, e2 has fiber t_q and block (1, t_q - c, 0, ...), and the move
    to the empty block lands on (1:t_q:0:...).  The steps are recorded
    from these values, with 1/lam = lam/r and c = lam t_q, so no forward
    runs past the fibers and nothing is inverted at lam's level."""
    trail = _Trail()
    u1, u2 = bundle.u_charts[0], bundle.u_charts[1]
    t_q, t_p = u1.forward(cq)[0], u1.forward(cp)[0]
    r = t_p / t_q
    lam, tower = try_sqrt(tower, r)
    # the closed form's identity, by products only: e1's U_2 fiber is t_q
    assert lam * lam * t_q == t_p
    c = lam * t_q
    zero, to_e1, to_e2 = (u1.target_from({}), u1.target_from({2: lam}),
                          u2.target_from({0: 1, 1: c}))
    e1, e2 = u1.backward(t_p, to_e1), u2.backward(t_q, to_e2)
    trail._append(u1, cp, zero, to_e1, e1)
    trail._append(u2, e1, u2.target_from({0: lam / r, 1: c}), to_e2, e2)
    trail._append(u1, e2, u1.target_from({2: 1, 3: t_q - c}), zero,
                  u1.backward(t_q, zero))
    return trail, tower


def _either_root(tower, a, r):
    """(s, e) with s^2 = a - e r: a root of a - r (e = 1), else of a + r
    (e = -1), that the tower already holds; (None, 1) when it holds
    neither."""
    s = sqrt_if_present(tower, a - r)
    if s is not None:
        return s, 1
    s = sqrt_if_present(tower, a + r)
    return (s, -1) if s is not None else (None, 1)


def _rescale_axis(bundle: ChartBundle, cp, cq, tower):
    """Rank-3 gadget: (1:t_p:0) to (1:t_q:0) with the one pair's two
    charts, in the coordinates (x:y:z) of x y + z^2.

    Two moves, V_1 then U_1.  In V_1 the point (1:t_p:0) has fiber 1/t_p,
    so the move to z = s lands on (1/t_p - s^2 : 1 : s), and the U_1 move
    to the empty target then lands on (1 : t_p/(1 - t_p s^2)^2 : 0).  With
    k^2 = t_q/t_p that is (1:t_q:0) exactly when s^2 = (1 -+ 1/k)/t_p =
    1/t_p -+ k/t_q.  Both moves stay in their domains: y = t_p != 0 in
    V_1, and x = +-1/(k t_p) != 0 in U_1; and k != +-1, since the two
    canonical points differ.  t_p and t_q are read off the canonical
    points, whose distinguished coordinate is 1, so forward divides by
    nothing.  Both steps are recorded from these values, with no further
    forward and so no inverse at s's level: the V_1 step runs from
    (1:t_p:0), fiber a = 1/t_p and an empty block, to backward(a, (s));
    the U_1 step enters with the block s/(a - s^2) = e s k t_p, since
    a - s^2 = e k/t_q for the sign e of s^2 = a - e k/t_q, and exits at
    backward(t_q, ()).  The radicands paid are k and s, at most:
      - k in the tower: s is a root the tower holds for either sign, else
        the minus sign's root, adjoined with no retest;
      - k adjoined now over the floor F: s^2 = a + b k with a = 1/t_p and
        b = -1/t_q has norm a^2 - k^2 b^2 = (1 - t_p/t_q)/t_p^2, so it is
        a square in F(k) iff u^2 = 1 - t_p/t_q and x^2 = (1 +- u)/(2 t_p)
        have roots in F.  Then s = x + (b/2x) k and only k is paid; else
        s's radicand is adjoined over F(k), with no retest.  This keeps a
        square of F(k) that sqrt_if_present cannot see through its nested
        radicand out of the tower, exactly so when F is rational.

    Three moves where the tower holds lam = sqrt(t_p) and mu = sqrt(t_q):
    U_1 to z = 2 lam, V_1 to z = c, and U_1 to the empty target.  These
    are the axis route (1:0:lam) -> (1 : -3 t_p : 2 lam) -> ... -> (1:0:mu)
    with its U_1 legs merged into the U_1 moves from (1:t_p:0) and to
    (1:t_q:0).  V_1 has fiber 1/(9 t_p) there, so c^2 = (1 -+ 3 lam/mu) /
    (9 t_p), with the sign rule of s when k is in the tower.  c is often
    rational where s would pay a radicand.  This route moves through
    _Trail.move, forward included."""
    trail = _Trail()
    u1, v1 = bundle.u_charts[0], bundle.v_charts[0]
    zpos = 2 * bundle.pairs
    # cp read last, so a first move from it finds it in from_ambient's memo
    t_q, t_p = u1.forward(cq)[0], u1.forward(cp)[0]
    lam = sqrt_if_present(tower, t_p)
    mu = None if lam is None else sqrt_if_present(tower, t_q)
    e = 1
    if mu is not None:
        cur = trail.move(u1, cp, u1.target_from({zpos: 2 * lam}))
        a, r = 1 / (9 * t_p), lam / (3 * mu * t_p)
        s, e = _either_root(tower, a, r)
    else:
        a = 1 / t_p
        k = sqrt_if_present(tower, t_q / t_p)
        if k is not None:
            s, e = _either_root(tower, a, k / t_q)
        else:
            u = sqrt_if_present(tower, 1 - t_p / t_q)
            x = None if u is None else \
                _either_root(tower, a / 2, u * a / 2)[0]
            tower = tower._adjoin(t_q / t_p)
            k = tower.generator(tower.height)
            s = None if x is None else x - k / (2 * x * t_q)
        r = k / t_q
    if s is None:
        tower = tower._adjoin(a - r)
        s = tower.generator(tower.height)
    zero, target = u1.target_from({}), v1.target_from({zpos: s})
    if mu is not None:
        cur = trail.move(v1, cur, target)
        end = trail.move(u1, cur, zero)
        assert end == cq
    else:
        # the closed form's identity, by products only: a - s^2 = e/(k t_p)
        assert (a - s * s) * k * t_p == e
        cur = v1.backward(a, target)
        trail._append(v1, cp, zero, target, cur)
        w = s * k * t_p
        trail._append(u1, cur, u1.target_from({zpos: w if e > 0 else -w}),
                      zero, u1.backward(t_q, zero))
    return trail, tower


def connect_complement(form: QuadForm, p, q, *, tower=None,
                       bundle=None) -> MovePath:
    """A verified-replayable path of fiber moves from p to q inside the
    complement of V(form).  Needs rank >= 3; at most 12 moves.  A given
    bundle must belong to form; the path starts from its tower, or from
    the given tower when that one is deeper."""
    p = p if isinstance(p, ProjPoint) else ProjPoint(p)
    q = q if isinstance(q, ProjPoint) else ProjPoint(q)
    if bundle is not None:
        if not mat_eq(bundle.form.matrix, form.matrix):
            raise InputFormatError("the chart bundle belongs to another form")
        tower = bundle.tower if tower is None \
            else deeper_tower(tower, bundle.tower)
    tower = deepest_tower(p.coords + q.coords,
                          tower if tower is not None else Tower.rationals())
    n_p, n_q = form(p), form(q)
    if n_p.is_zero() or n_q.is_zero():
        raise EndpointError("endpoint lies on the quadric")
    if bundle is None:
        bundle, tower = build_complement_charts(form, tower)

    def done(steps):
        path = MovePath("complement", form, p, q, steps, tower)
        assert len(path.steps) <= 12
        return path

    if p == q:
        return done(())

    # single-move shortcut when both points share a chart and a fiber.
    # A lift's n is q(x) in every chart, so each chart reads only s, the
    # point's distinguished coordinate: one row of F^-1 times x
    for chart in bundle.all_charts():
        row = chart.change.inverse_matrix()[chart.dist]
        s_p, s_q = dot(row, p.coords), dot(row, q.coords)
        if s_p.is_zero() or s_q.is_zero():
            continue
        if _same_fiber(s_p, n_p, s_q, n_q):
            _, tvq = chart.forward(q)
            trail = _Trail()
            end = trail.move(chart, p, tvq)
            assert end == q
            return done(trail.steps())

    full, cp = _canonicalize_complement(bundle, p)
    trail_q, cq = _canonicalize_complement(bundle, q)
    if cp != cq:
        axis = bundle.has_z and bundle.pairs == 1
        gadget, tower = (_rescale_axis if axis else _rescale_pairs)(
            bundle, cp, cq, tower)
        full.extend(gadget)
    full.extend_reversed(trail_q)
    return done(full.steps())


def connect_on_quadric(form: QuadForm, p, q, *, tower=None, rng=None,
                       retry_limit=64) -> MovePath:
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
        rng = random.Random(0)

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


def verdict(problem, count, rc, start, end, size, member_fault,
            replay) -> VerifyReport:
    """The report of either verifier on a certificate of count steps
    (segments, for problem "ci") from start to end, whose tower has height
    rc.  replay() returns the first broken step as (reason, index), or
    None; member_fault(point) says how a point of size coordinates fails
    to lie where the problem puts it, or returns None.

    The endpoint rule: the explicit endpoint checks (length, then
    member_fault, start before end) run only on an empty path or an
    endpoint of the wrong length, and before a failed replay's reason is
    reported.  A replay that succeeds has decided the endpoint facts; one
    that fails has not, so a bad certificate keeps the first reason and
    index it had when these checks ran first.  An empty path is valid when
    its endpoints are equal."""
    def report(reason=None, index=None):
        return VerifyReport(reason is None, reason, index, count, problem, rc)

    if count and len(start.coords) == size == len(end.coords):
        broken = replay()
        if broken is None:
            return report()
    else:
        broken = ("endpoints differ but the path is empty", None) \
            if start != end else (None, None)
    for name, pt in (("start", start), ("end", end)):
        fault = "has the wrong length" if len(pt.coords) != size \
            else member_fault(pt)
        if fault is not None:
            return report("%s point %s" % (name, fault))
    return report(*broken)


def verify_path(form: QuadForm, path: MovePath, cache=None) -> VerifyReport:
    """Replay a certificate against the given ambient form.  Trusts only
    the descriptors, entries, and targets; every exit is checked.

    Each step lifts its entry and exit (Chart.lift) and compares by
    cross-multiplying, with no inverse of a scalar: the fiber holds when
    n_in * s_out^2 == n_out * s_in^2, and the target is met when
    w_out == s_out * target.  A replay that succeeds decides the endpoint
    facts for verdict: a rebuilt chart has checked that F^T A F has its
    shape, so a lift's n = s u_e + sigma(w) is the form's value q(x), and
    the lift refuses n = 0 off the quadric and n != 0 on it; step 0's
    entry is proportional to start (the chain check) and the last exit to
    end.

    cache maps descriptors to rebuilt charts and may be shared by calls
    with the same form.  Its key holds the matrix scalars themselves;
    scalar equality compares the radicands of their towers, so a matrix
    read over another radicand list is another key."""
    rc = path.tower.height
    if path.problem not in ("complement", "quadric"):
        return VerifyReport(False, "unknown problem kind %r" % path.problem,
                            None, len(path.steps), path.problem, rc)
    if not mat_eq(path.form.matrix, form.matrix):
        return VerifyReport(False, "ambient form mismatch", None,
                            len(path.steps), path.problem, rc)
    on_q = path.problem == "quadric"
    off = "is off the quadric" if on_q else "lies on the quadric"
    return verdict(path.problem, len(path.steps), rc, path.start, path.end,
                   form.size,
                   lambda pt: None if form(pt).is_zero() == on_q else off,
                   lambda: _replay(form, path, on_q,
                                   {} if cache is None else cache))


def _replay(form, path, on_q, cache):
    """verify_path's replay: its first broken step as (reason, index), or
    None when every step holds and the last exit is the end."""
    changes = {}
    cur = path.start
    for k, step in enumerate(path.steps):
        if step.entry != cur:
            return "chain break at step %d" % k, k
        desc = step.chart
        key = (on_q, desc["dist"], desc["dep"],
               tuple(map(tuple, desc["matrix"])))
        chart = cache.get(key)
        if chart is None:
            try:
                chart = chart_from_descriptor(form, desc, on_q, changes)
            except InputFormatError as exc:
                return "invalid chart descriptor at step %d: %s" % (k, exc), k
            cache[key] = chart
        if len(step.target) != len(chart.trans):
            return "transverse target has the wrong length at step %d" % k, k
        try:
            s_in, n_in, _ = chart.lift(step.entry)
        except OutOfDomainError as exc:
            return "entry outside the chart domain at step %d: %s" % (k, exc), k
        try:
            s_out, n_out, w_out = chart.lift(step.exit)
        except OutOfDomainError as exc:
            return "exit outside the chart domain at step %d: %s" % (k, exc), k
        if not _same_fiber(s_in, n_in, s_out, n_out):
            return "fiber parameter changed at step %d" % k, k
        if any(w != s_out * x for w, x in zip(w_out, step.target)):
            return "transverse target missed at step %d" % k, k
        cur = step.exit
    if cur != path.end:
        return "path does not reach the stated endpoint", len(path.steps) - 1
    return None
