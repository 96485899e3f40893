"""Cylinder charts on quadrics and their complements, with fiber moves.

Every chart here is one mechanism: an invertible coordinate change F into
the ambient space, a distinguished chart coordinate d (scaled to 1 on the
chart), and a dependent coordinate e (recovered from the fiber value).
In chart coordinates the form matrix B = F^T A F must have the exact
shape  u_d u_e + sigma(transverse):  B[d][d] = B[e][e] = 0, B[d][e] = 1/2,
and rows d, e vanish elsewhere.  For a point with u_d scaled to 1 the
value of the form is then t = u_e + sigma(u_transverse).  Without
scaling, a point has (s, n, w) = (u_d, s*u_e + sigma(w), u_transverse),
and t = n/s^2, so replays compare fibers and targets by
cross-multiplying (Chart.lift).

A fiber move fixes t, replaces the transverse block wholesale, and
recomputes u_e.  Quadric charts live inside the quadric (t = 0 on the
domain); the other kinds live in the complement (t != 0).
The standard complement charts are built on the form itself, cones
included: its hyperbolic frame puts the radical in the last coordinates,
which are extra transverse coordinates with zero sigma coefficients, so
no chart kind needs special replay logic.  on_quadric and vertex_dim
are derived, not passed: on_quadric from the chart's kind, vertex_dim
(the dimension of a cone's vertex) as size - rank of its form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
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
    dot,
    identity_mat,
    is_zero_vec,
    mat,
    mat_eq,
    quadform_from_terms,
    transpose,
    unit_vec,
    upper_rows,
    upper_value,
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

    __slots__ = ("kind", "form", "change", "dist", "dep", "on_quadric",
                 "trans", "_tpos", "_sigma")

    def __init__(self, kind, form: QuadForm, change: CoordChange,
                 dist: int, dep: int):
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
        self.on_quadric = kind == "quadric-chart"
        b = change.pullback(form).matrix
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
        self._sigma = upper_rows(b, self.trans)

    @property
    def size(self):
        return self.form.size

    @property
    def vertex_dim(self):
        """Dimension of the vertex of the chart's form, a cone when > 0."""
        return self.size - self.form.rank()

    def sigma(self, tv):
        """The residual form on a transverse value tuple."""
        return upper_value(self._sigma, tv)

    def lift(self, p: ProjPoint):
        """(s, n, w) of a point in the domain, without dividing: s = u_d,
        w = u_transverse and n = s*u_e + sigma(w), which is the form's
        value q(x) by the shape of F^T A F, so that the fiber value is
        t = n/s^2 and the transverse tuple tv = w/s.  The domain is s != 0,
        and n = 0 on a quadric chart, n != 0 on the others."""
        u = self.change.from_ambient(p.coords)
        s = u[self.dist]
        if s.is_zero():
            raise OutOfDomainError("distinguished coordinate vanishes")
        w = tuple(u[j] for j in self.trans)
        n = s * u[self.dep] + self.sigma(w)
        if self.on_quadric:
            if not n.is_zero():
                raise OutOfDomainError("point is off the quadric")
        elif n.is_zero():
            raise OutOfDomainError("point lies on the quadric")
        return s, n, w

    def forward(self, p: ProjPoint):
        """(fiber value t, transverse tuple) of a point in the domain:
        lift, then its one division."""
        s, n, w = self.lift(p)
        if s == 1:
            return n, w
        inv = 1 / s
        return n * inv * inv, tuple(x * inv for x in w)

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


def chart_from_descriptor(form: QuadForm, desc: dict, on_quadric,
                          changes) -> Chart:
    """Rebuild a chart from its descriptor, revalidating the shape against
    the given ambient form; on_quadric comes from the certificate's
    problem, and picks the rebuilt chart's kind.  changes maps the rows of
    each matrix rebuilt so far to its inverted CoordChange, which charts
    sharing the matrix share.  The descriptor's shape is the parser's to
    check; InputFormatError means its values make no chart of the form."""
    rows = tuple(map(tuple, desc["matrix"]))
    change = changes.get(rows)
    if change is None:
        m = mat(rows)
        if len(m) != form.size or any(len(r) != form.size for r in m):
            raise InputFormatError("chart matrix has the wrong size")
        try:
            change = CoordChange(m)
            change.inverse_matrix()
        except TowerError:
            raise InputFormatError("chart matrix is singular") from None
        changes[rows] = change
    kind = "quadric-chart" if on_quadric else "complement-cylinder"
    return Chart(kind, form, change, desc["dist"], desc["dep"])


@dataclass(frozen=True)
class CtsqFrame:
    """Coordinates adapted to a smooth point of a quadric: the point goes
    to (0:1:0:...), its tangent hyperplane to {u_0 = 0}, and the form to
    u_0 u_1 + residual(u_2, ...), a form of rank two less."""
    change: CoordChange


@dataclass(frozen=True)
class HyperbolicFrame:
    """Coordinates splitting a form into hyperbolic pairs x_1 y_1 + ... +
    x_m y_m, plus z^2 for odd rank; a cone's radical takes the rest."""
    change: CoordChange
    pairs: int
    has_z: bool


def ctsq_normalize(q: QuadForm, x) -> CtsqFrame:
    """Adapted coordinates at a smooth point x of V(q); see CtsqFrame.
    Works for any rank >= 3 and never extends a tower.

    With w = A x, i0 the first index where w is nonzero and k the last
    index other than i0 where x is nonzero (one exists: x = c e_i0 would
    make w_i0 = A[i0][i0] c = 0, as q(x) = 0), the columns of C are
    b0 = e_i0 / (2 w_i0), x, and t_j = e_j - (w_j / w_i0) e_i0 for the
    other j in order.  The t_j for j != i0 span the tangent hyperplane
    w^T u = 0, and x = sum over j != i0 of x_j t_j, so t_k is the one a
    greedy completion of (b0, x) by the t_j drops.  C^-1 is read off the
    same places: its rows are 2 w^T, e_k^T / x_k and
    e_j^T - (x_j / x_k) e_k^T.  A shear F = C (I - e_1 f^T) then clears
    the u_0 u_j cross terms, and as f_1 = 0, F^-1 = (I + e_1 f^T) C^-1:
    row 1 of C^-1 gains f_j times row j."""
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
    x = p.coords
    i0 = next(i for i, c in enumerate(w) if c)
    k = next(j for j in reversed(range(n)) if j != i0 and x[j])
    iw, ixk = 1 / w[i0], 1 / x[k]
    cols = [tuple(iw * HALF if j == i0 else ZERO for j in range(n)), x]
    inv = [tuple(2 * c for c in w),
           tuple(ixk if j == k else ZERO for j in range(n))]
    for j in range(n):
        if j == i0 or j == k:
            continue
        t, r = list(unit_vec(n, j)), list(unit_vec(n, j))
        if w[j]:
            t[i0] = -(w[j] * iw)
        if x[j]:
            r[k] = -(x[j] * ixk)
        cols.append(tuple(t))
        inv.append(tuple(r))
    # shear u_1 to absorb the linear-in-u_0 part, which only row 0 of the
    # form in these columns holds: b0j = beta(c_0, c_j).  Column 0 loses
    # b00 * x, column j >= 2 loses 2 b0j * x
    g0 = q.gradient(cols[0])
    new_cols = list(cols)
    for j in range(n):
        b0j = dot(g0, cols[j]) if j != 1 else ZERO
        if b0j:
            f = b0j if j == 0 else 2 * b0j
            new_cols[j] = vec_add(cols[j], vec_scale(x, -f))
            inv[1] = vec_add(inv[1], vec_scale(inv[j], f))
    change = CoordChange(transpose(new_cols), inv)
    b2 = change.pullback(q).matrix
    assert b2[0][0].is_zero() and b2[1][1].is_zero() and b2[0][1] == HALF
    assert all(b2[0][j].is_zero() and b2[1][j].is_zero() for j in range(2, n))
    return CtsqFrame(change)


def quadric_chart(q: QuadForm, x) -> Chart:
    """The chart inside V(q) around a smooth point x: domain is the
    complement of x's tangent hyperplane within the quadric."""
    frame = ctsq_normalize(q, x)
    return Chart("quadric-chart", q, frame.change, 0, 1)


def complement_cylinder(q: QuadForm, x) -> Chart:
    """The cylinder in the complement of V(q) built from a smooth point x
    of the quadric: same adapted coordinates, domain off the quadric and
    off the tangent hyperplane."""
    frame = ctsq_normalize(q, x)
    return Chart("complement-cylinder", q, frame.change, 0, 1)


def hyperbolic_target(n: int, pairs: int, has_z: bool) -> QuadForm:
    terms = {}
    for i in range(pairs):
        terms[(2 * i, 2 * i + 1)] = 1
    if has_z:
        terms[(2 * pairs, 2 * pairs)] = 1
    return quadform_from_terms(n, terms)


def _pair_frame(q: QuadForm):
    """hyperbolic_normalize's rational frame of a sum of 2c x_i x_j over
    disjoint coordinate pairs, which q is exactly when every nonzero row
    has one entry, off the diagonal: column 2k is e_i and column 2k+1 is
    e_j / (2c) for the k-th pair (i, j, c), i < j, the unpaired
    coordinates follow in order, and the inverse is read off the same
    places.  None for any other form."""
    n = q.size
    cols, rest = [], []
    for i, row in enumerate(q.matrix):
        support = [j for j, c in enumerate(row) if c]
        if len(support) > 1 or support == [i]:
            return None
        if not support:
            rest.append((i, ONE, ONE))
        elif i < support[0]:
            c2 = 2 * row[support[0]]
            cols += [(i, ONE, ONE), (support[0], 1 / c2, c2)]
    fwd = [[ZERO] * n for _ in range(n)]
    inv = [[ZERO] * n for _ in range(n)]
    for u, (x, e, inv_e) in enumerate(cols + rest):
        fwd[x][u], inv[u][x] = e, inv_e
    return CoordChange(fwd, inv)


def hyperbolic_normalize(q: QuadForm, tower):
    """(HyperbolicFrame, tower): exact coordinates in which q becomes the
    standard sum of hyperbolic pairs (plus z^2 for odd rank), the radical
    last.  A sum of 2c x_i x_j over disjoint coordinate pairs takes the
    rational frame x_i = u_2k, x_j = u_2k+1 / (2c), k counting the pairs
    by i (_pair_frame).  Any other form is diagonalized first, and the
    frame adjoins at most two square roots per pair, one for the tail."""
    n = q.size
    r = q.rank()
    m, has_z = r // 2, bool(r % 2)
    target = hyperbolic_target(n, m, has_z)
    if mat_eq(q.matrix, target.matrix):
        change = CoordChange(identity_mat(n), identity_mat(n))
        change._pulled = (q, q)  # I^T A I is A: no product to take
        return HyperbolicFrame(change, m, has_z), tower
    change = _pair_frame(q)
    if change is None:
        change, diag = congruent_diagonalize(q)
        cols = list(transpose(change.matrix))
        new_cols = []
        i = 0
        while i + 1 < r:
            a, b = diag[i], diag[i + 1]
            sa, tower = try_sqrt(tower, a)
            sb, tower = try_sqrt(tower, -b)
            ia, ib = 1 / (2 * sa), 1 / (2 * sb)
            new_cols.append(vec_add(vec_scale(cols[i], ia),
                                    vec_scale(cols[i + 1], ib)))
            new_cols.append(vec_add(vec_scale(cols[i], ia),
                                    vec_scale(cols[i + 1], -ib)))
            i += 2
        if i < r:
            a = diag[i]
            sa, tower = try_sqrt(tower, a)
            new_cols.append(vec_scale(cols[i], 1 / sa))
            i += 1
        new_cols.extend(cols[r:])
        change = CoordChange(transpose(new_cols))
    assert mat_eq(change.pullback(q).matrix, target.matrix)
    return HyperbolicFrame(change, m, has_z), tower


class ChartBundle:
    """The standard complement cylinders of one form, and the tower their
    matrices live in.  The U charts (one per hyperbolic pair, on its x
    coordinate) and, for odd rank, the V charts (on y) share one frame;
    the W chart is the only one covering the z-axis point."""

    __slots__ = ("form", "tower", "u_charts", "v_charts", "w_chart", "pairs",
                 "has_z")

    def __init__(self, form, tower, u_charts, v_charts, w_chart):
        self.form = form
        self.tower = tower
        self.u_charts = u_charts
        self.v_charts = v_charts
        self.w_chart = w_chart
        self.pairs = len(u_charts)
        self.has_z = w_chart is not None

    def all_charts(self):
        out = list(self.u_charts) + list(self.v_charts)
        if self.w_chart is not None:
            out.append(self.w_chart)
        return out

    def read_hyperbolic(self, p: ProjPoint) -> tuple:
        """Chart coordinates of p in the shared U/V frame."""
        return self.u_charts[0].change.from_ambient(p.coords)


def build_complement_charts(q: QuadForm, tower):
    """(ChartBundle, tower) for the complement of V(q), q of rank >= 3.
    Every chart is built once, on q itself: U/V on q's hyperbolic frame,
    W on q's tangent frame at (x_m = -1, y_m = z = 1) of that frame."""
    if q.rank() < 3:
        raise RankTooLowError("form has rank %d, need at least 3" % q.rank())
    frame, tower = hyperbolic_normalize(q, tower)
    m, change = frame.pairs, frame.change
    u_charts = [Chart("standard-u", q, change, 2 * i, 2 * i + 1)
                for i in range(m)]
    v_charts, w = [], None
    if frame.has_z:
        v_charts = [Chart("standard-v", q, change, 2 * i + 1, 2 * i)
                    for i in range(m)]
        special = [ZERO] * q.size
        special[2 * m - 2] = -ONE  # x_m
        special[2 * m - 1] = ONE   # y_m
        special[2 * m] = ONE       # z
        x = ProjPoint(change.to_ambient(special))
        w = Chart("standard-w", q, ctsq_normalize(q, x).change, 0, 1)
    return ChartBundle(q, tower, u_charts, v_charts, w), tower
