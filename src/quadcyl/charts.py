"""Cylinder charts on quadrics and their complements, with fiber moves.

Every chart here is one mechanism: an invertible coordinate change F into
the ambient space, a distinguished chart coordinate d (scaled to 1 on the
chart), and a dependent coordinate e (recovered from the fiber value).
In chart coordinates the form matrix B = F^T A F must have the exact
shape  u_d u_e + sigma(transverse):  B[d][d] = B[e][e] = 0, B[d][e] = 1/2,
and rows d, e vanish elsewhere.  For a point with u_d scaled to 1 the
value of the form is then t = u_e + sigma(u_transverse).

A fiber move fixes t, replaces the transverse block wholesale, and
recomputes u_e.  Charts with on_quadric=True live inside the quadric
(t = 0 on the domain); the others live in the complement (t != 0).
Cone-lifted charts compose F with a cone splitting, which turns the
vertex coordinates into extra transverse coordinates with zero sigma
coefficients, so no chart kind needs special replay logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FormNotSmoothError,
    InputFormatError,
    OutOfDomainError,
    PointNotOnQuadricError,
    RankTooLowError,
    SingularPointError,
    TowerError,
)
from .projective import (
    CoordChange,
    ProjPoint,
    QuadForm,
    congruent_diagonalize,
    identity_mat,
    is_zero_vec,
    mat,
    mat_eq,
    mat_mul,
    nullspace,
    quadform_from_terms,
    transpose,
    unit_vec,
    vec_add,
    vec_scale,
)
from .tower import ONE, ZERO, as_scalar, try_sqrt

HALF = as_scalar("1/2")

CHART_KINDS = (
    "quadric-chart",
    "complement-cylinder",
    "standard-u",
    "standard-v",
    "standard-w",
)


class Chart:
    """One cylinder chart.  See the module docstring for the shape rules."""

    __slots__ = ("kind", "form", "change", "dist", "dep",
                 "on_quadric", "vertex_dim", "bmat", "trans",
                 "_tpos", "_sigma_terms")

    def __init__(self, kind, form: QuadForm, change: CoordChange,
                 dist: int, dep: int, *, on_quadric=False, vertex_dim=0):
        n = form.size
        if kind not in CHART_KINDS:
            raise InputFormatError("unknown chart kind %r" % kind)
        if change.size != n:
            raise InputFormatError("chart matrix size does not match the form")
        if not (0 <= dist < n and 0 <= dep < n) or dist == dep:
            raise InputFormatError("bad distinguished/dependent indices")
        self.kind = kind
        self.form = form
        self.change = change
        self.dist = dist
        self.dep = dep
        self.on_quadric = bool(on_quadric)
        self.vertex_dim = vertex_dim
        b = form.transform(change.matrix).matrix
        self.bmat = b
        d, e = dist, dep
        if not b[d][d].is_zero() or not b[e][e].is_zero() or b[d][e] != HALF:
            raise InputFormatError("chart form lacks the u_d u_e block")
        for j in range(n):
            if j in (d, e):
                continue
            if not b[d][j].is_zero() or not b[e][j].is_zero():
                raise InputFormatError(
                    "distinguished rows of the chart form must vanish")
        self.trans = tuple(j for j in range(n) if j not in (d, e))
        self._tpos = {j: k for k, j in enumerate(self.trans)}
        terms = []
        for k, i in enumerate(self.trans):
            for l in range(k, len(self.trans)):
                j = self.trans[l]
                c = b[i][j]
                if not c.is_zero():
                    terms.append((k, l, c if k == l else 2 * c))
        self._sigma_terms = tuple(terms)

    @property
    def size(self):
        return self.form.size

    def sigma(self, tv):
        """The residual form on a transverse value tuple."""
        acc = ZERO
        for k, l, c in self._sigma_terms:
            acc = acc + c * tv[k] * tv[l]
        return acc

    def forward(self, p: ProjPoint):
        """(fiber value t, transverse tuple) of a point in the domain."""
        u = self.change.from_ambient(p.coords)
        s = u[self.dist]
        if s.is_zero():
            raise OutOfDomainError("distinguished coordinate vanishes")
        if s == 1:
            rep = u
        else:
            inv = 1 / s
            rep = tuple(x * inv for x in u)
        tv = tuple(rep[j] for j in self.trans)
        t = rep[self.dep] + self.sigma(tv)
        if self.on_quadric:
            if not t.is_zero():
                raise OutOfDomainError("point is off the quadric")
        elif t.is_zero():
            raise OutOfDomainError("point lies on the quadric")
        return t, tv

    def backward(self, t, tv) -> ProjPoint:
        """The point with fiber value t and the given transverse block."""
        tv = tuple(as_scalar(x) for x in tv)
        if len(tv) != len(self.trans):
            raise InputFormatError("transverse block has the wrong length")
        t = as_scalar(t)
        u = [ZERO] * self.size
        u[self.dist] = ONE
        u[self.dep] = t - self.sigma(tv)
        for j, x in zip(self.trans, tv):
            u[j] = x
        return ProjPoint(self.change.to_ambient(u))

    def move(self, p: ProjPoint, target) -> ProjPoint:
        """Fiber move: keep t, set the transverse block to target."""
        t, _ = self.forward(p)
        return self.backward(t, target)

    def transverse_value(self, tv, coord_index):
        """Read one chart coordinate off a transverse tuple."""
        return tv[self._tpos[coord_index]]

    def target_from(self, assignments: dict) -> tuple:
        """A transverse tuple that is zero except for the given
        {chart coordinate index: value} assignments."""
        tv = [ZERO] * len(self.trans)
        for j, x in assignments.items():
            tv[self._tpos[j]] = as_scalar(x)
        return tuple(tv)

    def descriptor(self) -> dict:
        """Everything a replay needs besides the form and the problem:
        the coordinate change and the distinguished/dependent indices."""
        return {"dist": self.dist, "dep": self.dep,
                "matrix": [list(row) for row in self.change.matrix]}

    def __repr__(self):
        name = self.kind + ("+cone" if self.vertex_dim else "")
        return "Chart(%s, dist=%d, dep=%d)" % (name, self.dist, self.dep)


def chart_from_descriptor(form: QuadForm, desc: dict, on_quadric) -> Chart:
    """Rebuild a chart from its descriptor, revalidating the shape against
    the given ambient form; on_quadric comes from the certificate's
    problem, and names the rebuilt chart's kind.  The descriptor's shape
    (integer indices, a square matrix) is the parser's to check; raises
    InputFormatError when its values do not make a chart of the form."""
    m = mat(desc["matrix"])
    if len(m) != form.size or any(len(r) != form.size for r in m):
        raise InputFormatError("chart matrix has the wrong size")
    try:
        change = CoordChange(m)
        change.inverse_matrix()
    except TowerError:
        raise InputFormatError("chart matrix is singular") from None
    kind = "quadric-chart" if on_quadric else "complement-cylinder"
    return Chart(kind, form, change, desc["dist"], desc["dep"],
                 on_quadric=on_quadric)


@dataclass(frozen=True)
class CtsqFrame:
    """Coordinates adapted to a smooth point of a quadric: the point goes
    to (0:1:0:...), its tangent hyperplane to {u_0 = 0}, and the form to
    u_0 u_1 + residual(u_2, ...)."""
    change: CoordChange
    residual: QuadForm
    rank: int


@dataclass(frozen=True)
class HyperbolicFrame:
    """Coordinates splitting a smooth form into hyperbolic pairs
    x_1 y_1 + ... + x_m y_m, plus one square z^2 when the rank is odd."""
    change: CoordChange
    pairs: int
    has_z: bool
    rank: int


@dataclass(frozen=True)
class ConeSplit:
    """Coordinates separating a degenerate form into a smooth base block
    (first `rank` coordinates) and the radical (the rest)."""
    change: CoordChange
    base: QuadForm
    rank: int

    @property
    def vertex_count(self) -> int:
        return self.change.size - self.rank


def _keep_independent(reduced, v):
    """Is v independent of the rows in `reduced`?  If so, append it there.
    Rows are (pivot, row) pairs, 1 at their own pivot and 0 at earlier
    ones, so one pass over them decides v without a full row reduction."""
    v = list(v)
    for p, row in reduced:
        f = v[p]
        if not f.is_zero():
            v = [x - f * y for x, y in zip(v, row)]
    p = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if p is None:
        return False
    inv = 1 / v[p]
    reduced.append((p, [x * inv for x in v]))
    return True


def _complete_basis(cols, candidates):
    """Extend the independent column list to a basis using candidates, in
    order: a candidate is kept when it is independent of the columns kept
    so far."""
    n = len(cols[0])
    reduced = []
    out = []
    for c in cols:
        if not _keep_independent(reduced, c):
            raise InputFormatError("starting columns are dependent")
        out.append(tuple(c))
    for cand in candidates:
        if len(out) == n:
            break
        if _keep_independent(reduced, cand):
            out.append(tuple(cand))
    if len(out) != n:
        raise InputFormatError("could not complete to a basis")
    return out


def ctsq_normalize(q: QuadForm, x) -> CtsqFrame:
    """Adapted coordinates at a smooth point x of V(q); see CtsqFrame.
    Works for any rank >= 3 and never extends a tower."""
    if q.rank() < 3:
        raise RankTooLowError("form has rank %d, need at least 3" % q.rank())
    p = x if isinstance(x, ProjPoint) else ProjPoint(x)
    fx = q(p)
    if not fx.is_zero():
        raise PointNotOnQuadricError("base point is not on the quadric")
    w = q.gradient(p)
    if is_zero_vec(w):
        raise SingularPointError("base point is singular on the quadric")
    n = q.size
    i0 = next(i for i, c in enumerate(w) if not c.is_zero())
    b0 = tuple((1 / (2 * w[i0])) if j == i0 else ZERO for j in range(n))
    tangent = nullspace((w,))
    cols = _complete_basis([b0, p.coords], tangent)
    m1 = transpose(cols)
    b = q.transform(m1).matrix
    # shear u_1 to absorb the linear-in-u_0 part:
    # column 0 loses b[0][0] * x, column j >= 2 loses 2 b[0][j] * x
    new_cols = list(cols)
    if not b[0][0].is_zero():
        new_cols[0] = vec_add(new_cols[0], vec_scale(p.coords, -b[0][0]))
    for j in range(2, n):
        if not b[0][j].is_zero():
            new_cols[j] = vec_add(new_cols[j], vec_scale(p.coords, -2 * b[0][j]))
    m2 = transpose(new_cols)
    b2 = q.transform(m2).matrix
    assert b2[0][0].is_zero() and b2[1][1].is_zero() and b2[0][1] == HALF
    assert all(b2[0][j].is_zero() and b2[1][j].is_zero() for j in range(2, n))
    residual = QuadForm(tuple(row[2:] for row in b2[2:]))
    assert residual.rank() == q.rank() - 2
    return CtsqFrame(CoordChange(m2), residual, q.rank())


def quadric_chart(q: QuadForm, x) -> Chart:
    """The chart inside V(q) around a smooth point x: domain is the
    complement of x's tangent hyperplane within the quadric."""
    frame = ctsq_normalize(q, x)
    return Chart("quadric-chart", q, frame.change, 0, 1, on_quadric=True)


def complement_cylinder(q: QuadForm, x) -> Chart:
    """The cylinder in the complement of V(q) built from a smooth point x
    of the quadric: same adapted coordinates, domain off the quadric and
    off the tangent hyperplane."""
    frame = ctsq_normalize(q, x)
    return Chart("complement-cylinder", q, frame.change, 0, 1,
                 on_quadric=False)


def hyperbolic_target(n: int, pairs: int, has_z: bool) -> QuadForm:
    terms = {}
    for i in range(pairs):
        terms[(2 * i, 2 * i + 1)] = 1
    if has_z:
        terms[(2 * pairs, 2 * pairs)] = 1
    return quadform_from_terms(n, terms)


def hyperbolic_normalize(q: QuadForm, tower):
    """(HyperbolicFrame, tower): exact coordinates in which q becomes the
    standard sum of hyperbolic pairs (plus z^2 for odd rank).  May adjoin
    at most two square roots per pair and one for the odd tail."""
    n = q.size
    r = q.rank()
    m, has_z = r // 2, bool(r % 2)
    target = hyperbolic_target(n, m, has_z)
    if mat_eq(q.matrix, target.matrix):
        frame = HyperbolicFrame(CoordChange(identity_mat(n), identity_mat(n)),
                                m, has_z, r)
        return frame, tower
    change, diag = congruent_diagonalize(q)
    cols = list(transpose(change.matrix))
    new_cols = []
    i = 0
    while i + 1 < r:
        a, b = diag[i], diag[i + 1]
        sa, tower = try_sqrt(tower, a)
        sb, tower = try_sqrt(tower, -b)
        ia, ib = 1 / (2 * sa), 1 / (2 * sb)
        new_cols.append(vec_add(vec_scale(cols[i], ia), vec_scale(cols[i + 1], ib)))
        new_cols.append(vec_add(vec_scale(cols[i], ia), vec_scale(cols[i + 1], -ib)))
        i += 2
    if i < r:
        a = diag[i]
        sa, tower = try_sqrt(tower, a)
        new_cols.append(vec_scale(cols[i], 1 / sa))
        i += 1
    new_cols.extend(cols[r:])
    mch = transpose(new_cols)
    assert mat_eq(q.transform(mch).matrix, target.matrix)
    return HyperbolicFrame(CoordChange(mch), m, has_z, r), tower


def cone_decompose(q: QuadForm) -> ConeSplit:
    """Split off the radical: in the new coordinates the form is a smooth
    form on the first rank(q) coordinates and ignores the rest."""
    n = q.size
    rad = q.radical_basis()
    if not rad:
        return ConeSplit(CoordChange(identity_mat(n), identity_mat(n)), q,
                         q.rank())
    r = q.rank()
    # complement of the radical spanned by standard vectors, then the radical
    cols = _complete_basis(rad, [unit_vec(n, i) for i in range(n)])
    mch = transpose(cols[len(rad):] + cols[:len(rad)])
    b = q.transform(mch).matrix
    base = QuadForm(tuple(row[:r] for row in b[:r]))
    assert base.rank() == r
    for i in range(n):
        for j in range(r, n):
            assert b[i][j].is_zero() and b[j][i].is_zero()
    return ConeSplit(CoordChange(mch), base, r)


def standard_cylinders(q: QuadForm, frame: HyperbolicFrame) -> list:
    """The standard complement cylinders in hyperbolic coordinates:
    one chart per pair on the pair's x coordinate; for odd rank also one
    per pair on the y coordinate plus one extra chart covering the
    z-axis point."""
    if q.rank() != q.size:
        raise FormNotSmoothError("standard cylinders need a smooth form")
    charts = []
    for i in range(frame.pairs):
        charts.append(Chart("standard-u", q, frame.change, 2 * i, 2 * i + 1))
    if frame.has_z:
        for i in range(frame.pairs):
            charts.append(Chart("standard-v", q, frame.change,
                                2 * i + 1, 2 * i))
        zpos = 2 * frame.pairs
        special = [ZERO] * q.size
        special[zpos - 2] = -ONE  # x_m
        special[zpos - 1] = ONE   # y_m
        special[zpos] = ONE       # z
        x = ProjPoint(frame.change.to_ambient(special))
        w_frame = ctsq_normalize(q, x)
        charts.append(Chart("standard-w", q, w_frame.change, 0, 1))
    return charts


def cone_lift(chart: Chart, split: ConeSplit, ambient: QuadForm) -> Chart:
    """Lift a chart on the smooth base of a cone splitting to the full
    ambient space: the vertex coordinates become extra transverse
    coordinates on which sigma vanishes."""
    base_n = chart.form.size
    vd = ambient.size - base_n
    if vd < 0:
        raise InputFormatError("ambient form smaller than the chart's")
    if vd == 0 and mat_eq(split.change.matrix, identity_mat(base_n)):
        return chart
    n = ambient.size
    block = [[ZERO] * n for _ in range(n)]
    for i in range(base_n):
        for j in range(base_n):
            block[i][j] = chart.change.matrix[i][j]
    for k in range(base_n, n):
        block[k][k] = ONE
    full = mat_mul(split.change.matrix, mat(block))
    return Chart(chart.kind, ambient, CoordChange(full), chart.dist,
                 chart.dep, on_quadric=chart.on_quadric, vertex_dim=vd)


class ChartBundle:
    """The standard complement charts of one form, grouped for reuse: the
    lifted charts, and the rank and hyperbolic shape of the form."""

    __slots__ = ("form", "u_charts", "v_charts", "w_chart", "pairs", "has_z",
                 "rank")

    def __init__(self, form, split, frame, u_charts, v_charts, w_chart):
        self.form = form
        self.u_charts = u_charts
        self.v_charts = v_charts
        self.w_chart = w_chart
        self.pairs = frame.pairs
        self.has_z = frame.has_z
        self.rank = split.rank

    def all_charts(self):
        out = list(self.u_charts) + list(self.v_charts)
        if self.w_chart is not None:
            out.append(self.w_chart)
        return out

    def read_hyperbolic(self, p: ProjPoint) -> tuple:
        """Chart coordinates of p in the shared U/V frame."""
        return self.u_charts[0].change.from_ambient(p.coords)


def build_complement_charts(q: QuadForm, tower):
    """(ChartBundle, tower) for the complement of V(q), q of rank >= 3."""
    if q.rank() < 3:
        raise RankTooLowError("form has rank %d, need at least 3" % q.rank())
    split = cone_decompose(q)
    frame, tower = hyperbolic_normalize(split.base, tower)
    base_charts = standard_cylinders(split.base, frame)
    lifted = [cone_lift(c, split, q) for c in base_charts]
    u_charts = [c for c in lifted if c.kind == "standard-u"]
    v_charts = [c for c in lifted if c.kind == "standard-v"]
    w = next((c for c in lifted if c.kind == "standard-w"), None)
    return ChartBundle(q, split, frame, u_charts, v_charts, w), tower
