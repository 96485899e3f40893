"""Intersections of two quadrics: pencils, line charts, and connectivity.

A pencil is a pair of quadratic forms (beta, gamma) on at least six
coordinates; X is the intersection of the two quadrics.  A line l inside
X gives a birational projection: forgetting the two line coordinates of
an adapted basis maps X away from l to a projective space of dimension
two lower, and the failure locus is cut out by one quadratic form (the
degeneracy form).  Off that locus the projection restricts to an exact
isomorphism onto the complement of the image quadric, which lets the
complement connector run inside X.

A certificate produced here holds, per segment, the line and the fiber
moves made in the complement of its image quadric.  Verification rebuilds
the chart, the image quadric and the projected endpoints from the line and
the pencil file alone, and lifts each segment's last move back to X.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    DuplicateLambdaError,
    EndpointError,
    InputFormatError,
    LineNotInXError,
    OutOfDomainError,
    RankTooLowError,
    RetryLimitError,
    SingularPointError,
    TowerLimitError,
)
from .charts import _complete_basis, complement_cylinder
from .navigate import MovePath, VerifyReport, connect_complement, verify_path
from .projective import (
    CoordChange,
    ProjPoint,
    QuadForm,
    congruent_diagonalize,
    det,
    dot,
    identity_mat,
    is_zero_vec,
    mat_eq,
    mat_vec,
    nullspace,
    point_on_quadric,
    rank_of,
    roots_on_line,
    transpose,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .tower import (
    ONE,
    ZERO,
    Tower,
    as_scalar,
    deepest_tower,
    scalar_to_obj,
    try_sqrt,
)

MIN_PENCIL_SIZE = 6


@dataclass(frozen=True)
class Pencil:
    """Two quadratic forms cutting out X in projective space."""
    beta: QuadForm
    gamma: QuadForm

    def __post_init__(self):
        if self.beta.size != self.gamma.size:
            raise InputFormatError("pencil forms have different sizes")
        if self.beta.size < MIN_PENCIL_SIZE:
            raise InputFormatError(
                "pencil needs at least %d coordinates" % MIN_PENCIL_SIZE)

    @property
    def size(self):
        return self.beta.size

    def on_intersection(self, x) -> bool:
        return self.beta(x).is_zero() and self.gamma(x).is_zero()

    def jacobian_rank(self, x) -> int:
        return rank_of((self.beta.gradient(x), self.gamma.gradient(x)))

    def smooth_at(self, x) -> bool:
        return self.on_intersection(x) and self.jacobian_rank(x) == 2


def eacx_build(lambdas) -> Pencil:
    """The diagonal pencil sum x_i^2, sum lambda_i x_i^2 for pairwise
    distinct parameters."""
    lams = [as_scalar(v) for v in lambdas]
    n = len(lams)
    if n < MIN_PENCIL_SIZE:
        raise InputFormatError(
            "need at least %d parameters, got %d" % (MIN_PENCIL_SIZE, n))
    for i in range(n):
        for j in range(i + 1, n):
            if lams[i] == lams[j]:
                raise DuplicateLambdaError(
                    "parameters %d and %d coincide" % (i, j))
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = lams[i]
    return Pencil(QuadForm(identity_mat(n)), QuadForm(rows))


# polynomial helpers (dense ascending coefficient lists of tower scalars)

def _poly_trim(p):
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def _poly_deriv(p):
    return [as_scalar(i) * c for i, c in enumerate(p)][1:]


def _poly_mod(a, b):
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        f = a[-1] / lead
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - f * c
        a = _poly_trim(a[:-1])
        if not a:
            break
    return a


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _interpolate(xs, ys):
    """Newton interpolation; exact coefficients, ascending order."""
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for k in range(n - 2, -1, -1):
        new = [ZERO] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * xs[k]
        new[0] = new[0] + coef[k]
        poly = new
    return _poly_trim(poly)


@dataclass
class SmoothnessReport:
    smooth: bool
    squarefree: bool
    proportional: bool
    identically_zero: bool
    degree: int
    expected_degree: int
    discriminant: list

    def to_obj(self):
        return {
            "smooth": self.smooth,
            "squarefree": self.squarefree,
            "proportional": self.proportional,
            "identically_zero": self.identically_zero,
            "degree": self.degree,
            "expected_degree": self.expected_degree,
            "discriminant": [scalar_to_obj(c) for c in self.discriminant],
        }


def pencil_smoothness(p: Pencil) -> SmoothnessReport:
    """The discriminant test: X is a smooth complete intersection exactly
    when det(s B + t C) is a squarefree binary form of full degree and the
    two forms are not proportional.  Everything is computed exactly by
    interpolation."""
    n = p.size
    flat_b = [c for row in p.beta.matrix for c in row]
    flat_g = [c for row in p.gamma.matrix for c in row]
    proportional = rank_of((tuple(flat_b), tuple(flat_g))) <= 1
    xs = [as_scalar(i) for i in range(n + 1)]
    ys = []
    for s in xs:
        rows = tuple(tuple(s * b + g for b, g in zip(rb, rg))
                     for rb, rg in zip(p.beta.matrix, p.gamma.matrix))
        ys.append(det(rows))
    disc = _interpolate(xs, ys)
    identically_zero = not disc
    degree = len(disc) - 1 if disc else -1
    squarefree = False
    if not identically_zero and degree >= n - 1:
        g = _poly_gcd(disc, _poly_deriv(disc))
        squarefree = len(g) == 1
    smooth = squarefree and not proportional and not identically_zero
    return SmoothnessReport(smooth, squarefree, proportional,
                            identically_zero, degree, n, list(disc))


def span_in_X(p: Pencil, points) -> bool:
    """Does the linear span of the points lie inside X?  True exactly when
    every pairwise value of both bilinear forms vanishes."""
    vs = [x.coords if isinstance(x, ProjPoint) else vec(x) for x in points]
    for form in (p.beta, p.gamma):
        images = [mat_vec(form.matrix, v) for v in vs]
        for i in range(len(vs)):
            for j in range(i, len(vs)):
                if not dot(vs[i], images[j]).is_zero():
                    return False
    return True


@dataclass(frozen=True)
class Line:
    """A projective line spanned by two points, known to lie inside X."""
    v1: tuple
    v2: tuple

    @classmethod
    def through(cls, pencil: Pencil, a, b) -> "Line":
        va = a.coords if isinstance(a, ProjPoint) else vec(a)
        vb = b.coords if isinstance(b, ProjPoint) else vec(b)
        if rank_of((va, vb)) != 2:
            raise InputFormatError("the two points do not span a line")
        if not span_in_X(pencil, [va, vb]):
            raise LineNotInXError("the line is not inside the intersection")
        return cls(va, vb)


class LineChart:
    """The birational projection of X away from a line inside it.

    Coordinates are adapted: the first two basis vectors span the line and
    the rest map to the image space.  The image quadric has rank 3 or 4;
    its complement is exactly where the projection is an isomorphism."""

    __slots__ = ("pencil", "line", "change", "image", "_wcols")

    def __init__(self, pencil: Pencil, line: Line):
        if not span_in_X(pencil, [line.v1, line.v2]):
            raise LineNotInXError("the line is not inside the intersection")
        self.pencil = pencil
        self.line = line
        n = pencil.size
        std = [unit_vec(n, i) for i in range(n)]
        cols = _complete_basis([line.v1, line.v2], std)
        self.change = CoordChange(transpose(cols))
        self._wcols = cols[2:]
        beta, gamma = pencil.beta, pencil.gamma
        a = [beta.bilinear(line.v1, w) for w in self._wcols]
        b = [beta.bilinear(line.v2, w) for w in self._wcols]
        c = [gamma.bilinear(line.v1, w) for w in self._wcols]
        d = [gamma.bilinear(line.v2, w) for w in self._wcols]
        m = n - 2
        rows = [[(a[i] * d[j] + a[j] * d[i] - b[i] * c[j] - b[j] * c[i]) / 2
                 for j in range(m)] for i in range(m)]
        self.image = QuadForm(rows)
        r = self.image.rank()
        if r < 3:
            raise RankTooLowError(
                "image quadric has rank %d, need 3 or 4" % r)
        assert r <= 4

    @property
    def image_size(self):
        return self.pencil.size - 2

    def forward(self, x) -> ProjPoint:
        """Project a point of X away from the line."""
        p = x if isinstance(x, ProjPoint) else ProjPoint(x)
        u = self.change.from_ambient(p.coords)[2:]
        if is_zero_vec(u):
            raise OutOfDomainError("point lies on the line")
        return ProjPoint(u)

    def _residual_rows(self, u):
        uvec = zero_vec(self.pencil.size)
        for c, w in zip(u, self._wcols):
            if not c.is_zero():
                uvec = vec_add(uvec, vec_scale(w, c))
        out = []
        for form in (self.pencil.beta, self.pencil.gamma):
            img = mat_vec(form.matrix, uvec)
            out.append((2 * dot(self.line.v1, img),
                        2 * dot(self.line.v2, img),
                        dot(uvec, img)))
        return out, uvec

    def inverse(self, u) -> ProjPoint:
        """The unique point of X projecting to u, for u off the image
        quadric.  Always lands on X when defined."""
        uc = u.coords if isinstance(u, ProjPoint) else vec(u)
        if len(uc) != self.image_size:
            raise InputFormatError("image point has the wrong length")
        (rb, rg), uvec = self._residual_rows(uc)
        cross = (rb[1] * rg[2] - rb[2] * rg[1],
                 rb[2] * rg[0] - rb[0] * rg[2],
                 rb[0] * rg[1] - rb[1] * rg[0])
        if cross[2].is_zero():
            raise OutOfDomainError("image point is on the degeneracy quadric")
        coords = vec_add(vec_add(vec_scale(self.line.v1, cross[0]),
                                 vec_scale(self.line.v2, cross[1])),
                         vec_scale(uvec, cross[2]))
        return ProjPoint(coords)

    def degeneracy_form(self) -> QuadForm:
        """The quadratic form on the ambient space cutting out the locus
        where the projection fails to be an isomorphism: the pullback of
        the image quadric.  It vanishes on the line."""
        pi = self.change.inverse_matrix()[2:]
        qm = self.image.matrix
        m = self.image_size
        n = self.pencil.size
        rows = [[ZERO] * n for _ in range(n)]
        # pi^T qm pi, computed row by row
        qpi = [mat_vec(qm, tuple(pi[k][j] for k in range(m)))
               for j in range(n)]
        for i in range(n):
            col_i = tuple(pi[k][i] for k in range(m))
            for j in range(i, n):
                val = dot(col_i, qpi[j])
                rows[i][j] = val
                rows[j][i] = val
        return QuadForm(rows)

    def descriptor(self) -> dict:
        return {"v1": list(self.line.v1), "v2": list(self.line.v2)}


def chart_from_line(pencil: Pencil, line: Line) -> LineChart:
    return LineChart(pencil, line)


def _point_on_two_quadrics(f: QuadForm, g: QuadForm, rng, tower,
                           predicate=None, retry_limit=64):
    """A common zero of two forms on at least four coordinates: a line
    inside V(f) through two random points of it, cut with g.  Early
    attempts refuse to pay adjunctions so rational-friendly inputs keep
    shallow towers."""
    for attempt in range(retry_limit):
        extend = 2 * (attempt + 1) > retry_limit
        try:
            z, t2 = point_on_quadric(
                f, rng=rng, tower=tower, retry_limit=8,
                predicate=f.is_smooth_at)
            w, t2 = point_on_quadric(
                f, basis=f.tangent_space(z), rng=rng, tower=t2,
                retry_limit=8,
                predicate=lambda y: rank_of((z.coords, y.coords)) == 2)
        except (RetryLimitError, TowerLimitError):
            continue
        cands, t3 = roots_on_line(g, z, w, t2, extend=extend)
        for cand in cands:
            if is_zero_vec(cand):
                continue
            pt = ProjPoint(cand)
            if predicate is not None and not predicate(pt):
                continue
            return pt, t3
    raise RetryLimitError("no common zero of the two forms found")


def point_on_intersection(pencil: Pencil, rng=None, tower=None,
                          predicate=None, retry_limit=64):
    """A smooth point of X: take a line inside the first quadric through
    random points, then cut it with the second quadric."""
    if rng is None:
        rng = random.Random(0)
    if tower is None:
        tower = Tower.rationals()

    def ok(pt):
        if not pencil.smooth_at(pt):
            return False
        return predicate is None or predicate(pt)

    try:
        return _point_on_two_quadrics(pencil.beta, pencil.gamma, rng, tower,
                                      predicate=ok, retry_limit=retry_limit)
    except RetryLimitError:
        raise RetryLimitError("no smooth point of the intersection found")


def _conic_lines(conic: QuadForm, tower):
    """The lines composing a degenerate conic on three coordinates, each
    as a pair of spanning vectors.  Empty when the conic is smooth or
    identically zero, or when the needed square root cannot be adjoined."""
    change, diag = congruent_diagonalize(conic)
    nonzero = [d for d in diag if not d.is_zero()]
    if len(nonzero) == 1:
        return [(change.to_ambient((ZERO, ONE, ZERO)),
                 change.to_ambient((ZERO, ZERO, ONE)))], tower
    if len(nonzero) == 2:
        try:
            s, tower = try_sqrt(tower, -(nonzero[1] / nonzero[0]))
        except TowerLimitError:
            return [], tower
        lines = []
        for root in (s, -s):
            lines.append((change.to_ambient((root, ONE, ZERO)),
                          change.to_ambient((ZERO, ZERO, ONE))))
        return lines, tower
    return [], tower


def _member_coefficients():
    """Small rational (s, t) pairs for hunting degenerate pencil members."""
    pairs = [(1, 0), (0, 1)]
    for den in range(1, 7):
        for num in range(-6, 7):
            if math.gcd(num, den) == 1:
                pairs.append((num, den))
    return pairs


def find_line_through(pencil: Pencil, p, rng=None, tower=None,
                      retry_limit=64):
    """(Line through p inside X, tower).  p must be a smooth point of X.

    X meets the embedded tangent space of p in a cone with vertex p, so
    a line through p amounts to a common zero of the two quadrics that
    beta and gamma induce on the quotient of that tangent space by p.
    In quotient dimension four or more, random lines inside the first
    quadric do the job; in the plane case the common zeros are cut out
    by splitting a degenerate member of the induced conic pencil, which
    exists over this field only when the determinant cubic has a small
    rational root.  Square roots are the only adjunctions used, and not
    every configuration yields to them: on failure this raises cleanly
    and the caller may supply lines instead."""
    p = p if isinstance(p, ProjPoint) else ProjPoint(p)
    if not pencil.on_intersection(p):
        raise EndpointError("point is not on the intersection")
    if pencil.jacobian_rank(p) != 2:
        raise SingularPointError("point is singular on the intersection")
    if rng is None:
        rng = random.Random(0)
    if tower is None:
        tower = Tower.rationals()
    tower = deepest_tower(p.coords, tower)
    tangent = nullspace((pencil.beta.gradient(p), pencil.gamma.gradient(p)))
    reps = []
    rows = [p.coords]
    for cand in tangent:
        if rank_of(tuple(rows) + (cand,)) == len(rows) + 1:
            rows.append(cand)
            reps.append(cand)
    m = len(reps)
    bq = QuadForm([[pencil.beta.bilinear(a, b) for b in reps] for a in reps])
    gq = QuadForm([[pencil.gamma.bilinear(a, b) for b in reps] for a in reps])

    def lift(cand):
        cand = cand.coords if isinstance(cand, ProjPoint) else cand
        x = zero_vec(pencil.size)
        for c, rep in zip(cand, reps):
            if not c.is_zero():
                x = vec_add(x, vec_scale(rep, c))
        return x

    beta_zero = all(c.is_zero() for row in bq.matrix for c in row)
    gamma_zero = all(c.is_zero() for row in gq.matrix for c in row)
    if beta_zero and gamma_zero:
        return Line.through(pencil, p, lift(unit_vec(m, 0))), tower
    if beta_zero or gamma_zero:
        live = gq if beta_zero else bq
        x, tower = point_on_quadric(live, rng=rng, tower=tower,
                                    retry_limit=retry_limit)
        return Line.through(pencil, p, lift(x)), tower
    if m >= 4:
        x, tower = _point_on_two_quadrics(bq, gq, rng, tower,
                                          retry_limit=retry_limit)
        return Line.through(pencil, p, lift(x)), tower
    for s, t in _member_coefficients():
        rows = tuple(tuple(as_scalar(s) * bc + as_scalar(t) * gc
                           for bc, gc in zip(rb, rg))
                     for rb, rg in zip(bq.matrix, gq.matrix))
        if not det(rows).is_zero():
            continue
        other = gq if s != 0 else bq
        lines, tower = _conic_lines(QuadForm(rows), tower)
        for a, b in lines:
            cands, tower = roots_on_line(other, a, b, tower)
            for cand in cands:
                if is_zero_vec(cand):
                    continue
                return Line.through(pencil, p, lift(cand)), tower
    raise RetryLimitError(
        "no line through the point reachable with square roots alone; "
        "supply lines explicitly")


def _is_diagonal(pencil: Pencil) -> bool:
    for mat_ in (pencil.beta.matrix, pencil.gamma.matrix):
        for i, row in enumerate(mat_):
            for j, c in enumerate(row):
                if i != j and not c.is_zero():
                    return False
    return True


def _diagonal_line(pencil: Pencil, tower):
    """The split-support line of a simultaneously diagonal pencil: on each
    of two disjoint index triples, both forms restrict to a 2x3 linear
    system on the squares of the coordinates, solved by a cross product.
    Disjoint supports make all four pairings vanish."""
    n = pencil.size
    mu = [pencil.beta.matrix[i][i] for i in range(n)]
    lam = [pencil.gamma.matrix[i][i] for i in range(n)]

    def leg(idx, tw):
        a = tuple(mu[i] for i in idx)
        b = tuple(lam[i] for i in idx)
        c = (a[1] * b[2] - a[2] * b[1],
             a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        if any(x.is_zero() for x in c):
            return None, tw
        coords = [ZERO] * n
        for pos, val in zip(idx, c):
            try:
                coords[pos], tw = try_sqrt(tw, val)
            except TowerLimitError:
                return None, tw
        return tuple(coords), tw

    triples = [((0, 1, 2), (3, 4, 5)), ((0, 1, 3), (2, 4, 5)),
               ((0, 2, 4), (1, 3, 5)), ((0, 3, 4), (1, 2, 5))]
    for t1, t2 in triples:
        u, tower = leg(t1, tower)
        if u is None:
            continue
        v, tower = leg(t2, tower)
        if v is None:
            continue
        return Line.through(pencil, u, v), tower
    return None, tower


def _cheap_lines(pencil: Pencil, tower):
    """Deterministic line candidates: spans of standard basis vector
    pairs, plus the split-support line when both forms are diagonal."""
    out = []
    n = pencil.size
    for i in range(n):
        for j in range(i + 1, n):
            vi, vj = unit_vec(n, i), unit_vec(n, j)
            if span_in_X(pencil, [vi, vj]):
                out.append(Line(vi, vj))
    if _is_diagonal(pencil):
        line, tower = _diagonal_line(pencil, tower)
        if line is not None:
            out.append(line)
    return out, tower


def find_line(pencil: Pencil, rng=None, tower=None, retry_limit=64):
    """(Line inside X, tower), no base point prescribed.  Deterministic
    candidates first, then lines through randomly found points."""
    if tower is None:
        tower = Tower.rationals()
    cheap, tower = _cheap_lines(pencil, tower)
    if cheap:
        return cheap[0], tower
    if rng is None:
        rng = random.Random(0)
    for _ in range(retry_limit):
        try:
            aux, tower = point_on_intersection(pencil, rng=rng, tower=tower,
                                               retry_limit=8)
            return find_line_through(pencil, aux, rng=rng, tower=tower,
                                     retry_limit=8)
        except (RetryLimitError, TowerLimitError):
            continue
    raise RetryLimitError("no line inside the intersection found")


@dataclass(frozen=True)
class XSegment:
    """One leg of an intersection certificate: a line inside X and the
    complement fiber moves, in the image of its chart, from the projection
    of the leg's start to the projection of its end."""
    line: Line
    steps: tuple


@dataclass
class XPath:
    """A certificate connecting two points of X through line charts."""
    pencil: Pencil
    start: ProjPoint
    end: ProjPoint
    segments: tuple
    tower: Tower


def connect_on_X(pencil: Pencil, p, q, *, lines=None, tower=None, seed=None,
                 rng=None, retry_limit=64) -> XPath:
    """Connect two smooth points of the intersection X.  Searches for a
    line chart whose degeneracy quadric misses both endpoints, then runs
    the complement connector in the image; falls back to two segments
    through a midpoint when no single line works."""
    p = p if isinstance(p, ProjPoint) else ProjPoint(p)
    q = q if isinstance(q, ProjPoint) else ProjPoint(q)
    for name, pt in (("start", p), ("end", q)):
        if not pencil.on_intersection(pt):
            raise EndpointError("%s point is not on the intersection" % name)
        if pencil.jacobian_rank(pt) != 2:
            raise SingularPointError(
                "%s point is singular on the intersection" % name)
    tower = deepest_tower(p.coords + q.coords,
                          tower if tower is not None else Tower.rationals())
    if rng is None:
        rng = random.Random(seed if seed is not None else 0)
    if p == q:
        return XPath(pencil, p, q, (), tower)

    def segment(chart, a, b, tw):
        inner = connect_complement(chart.image, chart.forward(a),
                                   chart.forward(b), tower=tw)
        return XSegment(chart.line, inner.steps), inner.tower

    tried = 0
    half_charts = []  # charts good for exactly one endpoint
    candidates = list(lines) if lines else []
    cheap, tower = _cheap_lines(pencil, tower)
    candidates.extend(cheap)
    # one growing tower chain across every attempt, so charts found on
    # different attempts can share arithmetic later
    while tried < retry_limit:
        tried += 1
        if candidates:
            line = candidates.pop(0)
        else:
            try:
                aux, tower = point_on_intersection(
                    pencil, rng=rng, tower=tower, retry_limit=8,
                    predicate=lambda y: y != p and y != q)
                line, tower = find_line_through(
                    pencil, aux, rng=rng, tower=tower, retry_limit=8)
            except (RetryLimitError, TowerLimitError):
                continue
        try:
            chart = chart_from_line(pencil, line)
        except (RankTooLowError, LineNotInXError):
            continue
        dform = chart.degeneracy_form()
        good_p = not dform(p).is_zero()
        good_q = not dform(q).is_zero()
        if good_p and good_q:
            seg, t2 = segment(chart, p, q, tower)
            return XPath(pencil, p, q, (seg,), t2)
        if good_p or good_q:
            half_charts.append((chart, good_p))
        # two-segment rescue once we hold charts covering each endpoint
        cover_p = next((c for c, gp in half_charts if gp), None)
        cover_q = next((c for c, gp in half_charts if not gp), None)
        if cover_p is not None and cover_q is not None:
            mid = _midpoint_for(pencil, cover_p, cover_q, p, q, rng)
            if mid is not None:
                seg1, t2 = segment(cover_p, p, mid, tower)
                seg2, t3 = segment(cover_q, mid, q, t2)
                return XPath(pencil, p, q, (seg1, seg2), t3)
    raise RetryLimitError("no line chart covers the endpoints")


def _midpoint_for(pencil, c1, c2, p, q, rng):
    """A smooth point of X usable by both charts, found by pulling back
    random image points of the first chart."""
    d1, d2 = c1.degeneracy_form(), c2.degeneracy_form()
    m = c1.image_size
    for _ in range(64):
        u = [as_scalar(rng.randint(-9, 9)) for _ in range(m)]
        if is_zero_vec(tuple(u)):
            continue
        up = ProjPoint(u)
        if c1.image(up).is_zero():
            continue
        try:
            z = c1.inverse(up)
        except OutOfDomainError:
            continue
        if z == p or z == q:
            continue
        if d1(z).is_zero() or d2(z).is_zero():
            continue
        if not pencil.smooth_at(z):
            continue
        return z
    return None


def verify_on_X(pencil: Pencil, path: XPath) -> VerifyReport:
    """Replay an intersection certificate.  Each segment rebuilds its line
    chart from the pencil and the stored line alone, projects the current
    point, replays the moves against the recomputed image quadric, and
    lifts the last exit back to X, where the next segment starts."""

    rc = path.tower.height

    def bad(reason, k=None):
        return VerifyReport(False, reason, k, len(path.segments), "ci", rc)

    if not mat_eq(path.pencil.beta.matrix, pencil.beta.matrix) or \
            not mat_eq(path.pencil.gamma.matrix, pencil.gamma.matrix):
        return bad("pencil mismatch")
    for name, pt in (("start", path.start), ("end", path.end)):
        if len(pt.coords) != pencil.size:
            return bad("%s point has the wrong length" % name)
        if not pencil.on_intersection(pt):
            return bad("%s point is not on the intersection" % name)
    if not path.segments:
        if path.start != path.end:
            return bad("endpoints differ but the path is empty")
        return VerifyReport(True, None, None, 0, "ci", rc)
    cur = path.start
    for k, seg in enumerate(path.segments):
        try:
            line = Line.through(pencil, seg.line.v1, seg.line.v2)
        except (InputFormatError, LineNotInXError) as exc:
            return bad("bad line at segment %d: %s" % (k, exc), k)
        try:
            chart = chart_from_line(pencil, line)
        except RankTooLowError as exc:
            return bad("bad chart at segment %d: %s" % (k, exc), k)
        if not seg.steps:
            return bad("segment %d has no steps" % k, k)
        exit_p = seg.steps[-1].exit
        try:
            fs = chart.forward(cur)
            lifts_back = chart.inverse(fs) == cur
            cur = chart.inverse(exit_p)
        except OutOfDomainError as exc:
            return bad("segment %d leaves the line chart: %s" % (k, exc), k)
        if not lifts_back:
            return bad("segment %d start does not lift back" % k, k)
        inner = MovePath("complement", chart.image, fs, exit_p, seg.steps,
                         path.tower)
        inner_rep = verify_path(chart.image, inner)
        if not inner_rep.valid:
            return bad("segment %d inner certificate: %s"
                       % (k, inner_rep.reason), k)
    if cur != path.end:
        return bad("path does not reach the stated endpoint",
                   len(path.segments) - 1)
    return VerifyReport(True, None, None, len(path.segments), "ci", rc)


@dataclass
class AuditReport:
    hyperplane_degree: int
    cylinder_degree: int
    total_degree: int
    hyperplane_nonzero: bool
    quadric_vanishes_on_line: bool
    passed: bool

    def to_obj(self):
        return {
            "hyperplane_degree": self.hyperplane_degree,
            "cylinder_degree": self.cylinder_degree,
            "total_degree": self.total_degree,
            "hyperplane_nonzero": self.hyperplane_nonzero,
            "quadric_vanishes_on_line": self.quadric_vanishes_on_line,
            "passed": self.passed,
        }


def polar_degree_audit(chart: LineChart, inner_chart=None,
                       tower=None) -> AuditReport:
    """Pull one inner cylinder of the image complement back to the
    ambient space of X and account for the degrees of its boundary:
    the distinguished hyperplane pulls back to degree 1 and the image
    quadric to degree 2, three in total, and the quadric part must
    vanish on the projection line."""
    if inner_chart is None:
        # one cylinder chart on the image complement suffices; its base
        # point costs no radicand when a coordinate vector is a smooth
        # zero, which matters when the image quadric carries radicals
        img = chart.image
        base, _ = point_on_quadric(img, rng=random.Random(0), tower=tower,
                                   predicate=img.is_smooth_at)
        inner_chart = complement_cylinder(img, base)
    h = inner_chart.change.inverse_matrix()[inner_chart.dist]
    pi = chart.change.inverse_matrix()[2:]
    pulled = tuple(dot(h, tuple(pi[k][j] for k in range(len(pi))))
                   for j in range(chart.pencil.size))
    hyper_ok = not is_zero_vec(pulled)
    dform = chart.degeneracy_form()
    v1, v2 = chart.line.v1, chart.line.v2
    vanishes = dform(v1).is_zero() and dform(v2).is_zero() and \
        dform(vec_add(v1, v2)).is_zero()
    quad_nonzero = any(not c.is_zero() for row in dform.matrix for c in row)
    passed = hyper_ok and vanishes and quad_nonzero
    return AuditReport(1, 2, 3, hyper_ok, vanishes, passed)
