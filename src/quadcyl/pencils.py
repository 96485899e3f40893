"""Intersections of two quadrics: pencils, line charts, and connectivity.

A pencil is a pair of quadratic forms (beta, gamma) on at least six
coordinates; X is the intersection of the two quadrics.  A line l inside
X gives a birational projection to a projective space of dimension two
lower: one matrix of the 2x2 minors of l's spanning vectors maps X away
from l (LineChart), and the failure locus is cut out by one quadratic
form (the degeneracy form).  Off that locus the projection restricts to
an exact isomorphism onto the complement of the image quadric, which
lets the complement connector run inside X.

A certificate produced here holds, per segment, the line and the fiber
moves made in the complement of its image quadric.  Verification rebuilds
the chart, the image quadric and the projected endpoints from the line and
the pencil file alone, and replays the segment's fiber moves as any
complement certificate (navigate.verify_path), which inverts each
distinct step matrix once and, by its lifts, decides that no image
point it passes lies on the image quadric.  It lifts a segment's last
move back to X only where another segment starts there, and decides
the two ends from the endpoints themselves (verify_on_X).  A line chart
projects and lifts with products only; it divides only to find its
image quadric's rank, by elimination.  The report, and when the
endpoints are checked, are navigate.verdict's, as for verify_path.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass

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
from .charts import complement_cylinder
from .navigate import MovePath, VerifyReport, connect_complement, \
    verdict, verify_path
from .projective import (
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
    proportional,
    roots_on_line,
    rref,
    transpose,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
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

    def smooth_at(self, x) -> bool:
        """On X, with the two gradients independent there."""
        v = x.coords if isinstance(x, ProjPoint) else vec(x)
        gb, gg = self.beta.gradient(v), self.gamma.gradient(v)
        return not (dot(v, gb) or dot(v, gg) or proportional(gb, gg))


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
    forms_proportional = proportional(flat_b, flat_g)
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
        # squarefree iff the resultant of disc and disc', the determinant
        # of their Sylvester matrix, is nonzero
        size = 2 * degree - 1
        rows = [(ZERO,) * i + tuple(f) + (ZERO,) * (size - i - len(f))
                for f, k in ((disc, degree - 1), (_poly_deriv(disc), degree))
                for i in range(k)]
        squarefree = not det(rows).is_zero()
    smooth = squarefree and not forms_proportional and not identically_zero
    return SmoothnessReport(smooth, squarefree, forms_proportional,
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
    """A projective line spanned by two points.  Building one checks
    nothing; `Line.through` and `LineChart` refuse a line that is not
    inside X."""
    v1: tuple
    v2: tuple

    @classmethod
    def through(cls, pencil: Pencil, a, b) -> "Line":
        va = a.coords if isinstance(a, ProjPoint) else vec(a)
        vb = b.coords if isinstance(b, ProjPoint) else vec(b)
        if proportional(va, vb):
            raise InputFormatError("the two points do not span a line")
        if not span_in_X(pencil, [va, vb]):
            raise LineNotInXError("the line is not inside the intersection")
        return cls(va, vb)


def _det2(a, b, c, d):
    """a b - c d, skipping each product with a zero factor."""
    x = a * b if a and b else ZERO
    return x - c * d if c and d else x


def _pairing_form(a, b, c, d) -> QuadForm:
    """The form (a.x)(d.x) - (b.x)(c.x), summed over the nonzero entries
    of the four vectors only."""
    acc = {}
    for x, ys in ((a, [(t, w) for t, w in enumerate(d) if w]),
                  (b, [(t, -w) for t, w in enumerate(c) if w])):
        for s, v in enumerate(x):
            for t, w in ys if v else ():
                key = (s, t) if s <= t else (t, s)
                acc[key] = acc[key] + v * w if key in acc else v * w
    n = len(a)
    rows = [[ZERO] * n for _ in range(n)]
    for (s, t), v in acc.items():
        if s == t:
            rows[s][s] = v
        elif v:
            rows[s][t] = rows[t][s] = v / 2
    return QuadForm(rows)


def _gradient(form: QuadForm, v):
    """A v, read off as row i of the symmetric A where v is e_i."""
    support = [k for k, x in enumerate(v) if x]
    if len(support) == 1 and v[support[0]] == 1:
        return form.matrix[support[0]]
    return form.gradient(v)


class LineChart:
    """The birational projection of X away from a line inside it.

    The line's vectors v1, v2 leave out the index pair (i, j) where j is
    the last index with v1_j or v2_j nonzero and i the last index before
    j with D = v1_i v2_j - v1_j v2_i nonzero; v1, v2 and the unit vectors
    e_k of the other, kept indices make a basis.  The projection `proj`
    has one row per kept k: D at column k, v1_j v2_k - v2_j v1_k at column
    i and v2_i v1_k - v1_i v2_k at column j, which is D times the e_k
    coordinate in that basis.  The image quadric has rank 3 or 4; its
    complement is exactly where the projection is an isomorphism."""

    __slots__ = ("pencil", "line", "kept", "proj", "image", "_pairings")

    def __init__(self, pencil: Pencil, line: Line):
        v1, v2 = line.v1, line.v2
        n = pencil.size
        if len(v1) != n or len(v2) != n:
            raise InputFormatError("line and pencil sizes differ")
        j = next((k for k in reversed(range(n)) if v1[k] or v2[k]), 0)
        i = next((h for h in reversed(range(j))
                  if _det2(v1[h], v2[j], v1[j], v2[h])), None)
        if i is None:
            raise InputFormatError("the two points do not span a line")
        minor = _det2(v1[i], v2[j], v1[j], v2[i])
        gb1, gb2, gg1, gg2 = (_gradient(form, v)
                              for form in (pencil.beta, pencil.gamma)
                              for v in (v1, v2))
        # both forms vanish on the line: at v1, at v2 and on (v1, v2)
        if any(dot(u, g) for u, g in ((v1, gb1), (v2, gb2), (v1, gb2),
                                      (v1, gg1), (v2, gg2), (v1, gg2))):
            raise LineNotInXError("the line is not inside the intersection")
        self.pencil = pencil
        self.line = line
        self.kept = tuple(k for k in range(n) if k not in (i, j))
        rows = []
        for k in self.kept:
            row = [ZERO] * n
            row[k] = minor
            row[i] = _det2(v1[j], v2[k], v2[j], v1[k])
            row[j] = _det2(v2[i], v1[k], v1[i], v2[k])
            rows.append(tuple(row))
        self.proj = tuple(rows)
        # the pairings of the line's vectors with the kept e_k
        self._pairings = tuple(tuple(g[k] for k in self.kept)
                               for g in (gb1, gb2, gg1, gg2))
        self.image = _pairing_form(*self._pairings)
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
        u = mat_vec(self.proj, p.coords)
        if is_zero_vec(u):
            raise OutOfDomainError("point lies on the line")
        return ProjPoint(u)

    def _residual_rows(self, u):
        uvec = [ZERO] * self.pencil.size
        for c, k in zip(u, self.kept):
            uvec[k] = c
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

    def points(self, rng, attempts):
        """`inverse` of up to `attempts` random integer image points in
        [-9, 9]^(n-2), skipping zero and the image quadric, where it is
        undefined: points of X over the field of the chart."""
        m = self.image_size
        for _ in range(attempts):
            u = tuple(as_scalar(rng.randint(-9, 9)) for _ in range(m))
            if is_zero_vec(u) or self.image(u).is_zero():
                continue
            yield self.inverse(u)

    def degeneracy_form(self) -> QuadForm:
        """The quadratic form on the ambient space cutting out the locus
        where the projection fails to be an isomorphism: the pullback of
        the image quadric along the projection.  It vanishes on the line."""
        pt = transpose(self.proj)
        return _pairing_form(*(mat_vec(pt, v) for v in self._pairings))


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
                predicate=lambda y: not proportional(z.coords, y.coords))
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
    """(Smooth point of X passing the predicate, tower).  The chart of the
    first cheap line that gives one pulls back random image points
    (`LineChart.points`), each on X over the line's field; `retry_limit`
    counts the image points.  Without such a line, lines of the first
    quadric through random points are cut with the second, `retry_limit`
    times."""
    if rng is None:
        rng = random.Random(0)
    if tower is None:
        tower = Tower.rationals()

    def ok(pt):
        if not pencil.smooth_at(pt):
            return False
        return predicate is None or predicate(pt)

    cheap, tower = _cheap_lines(pencil, tower)
    for line in cheap:
        try:
            chart = LineChart(pencil, line)
        except RankTooLowError:
            continue
        for z in chart.points(rng, retry_limit):
            if ok(z):
                return z, tower
        raise RetryLimitError("no smooth point of the intersection found")
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
    grads = (pencil.beta.gradient(p), pencil.gamma.gradient(p))
    if proportional(*grads):
        raise SingularPointError("point is singular on the intersection")
    if rng is None:
        rng = random.Random(0)
    if tower is None:
        tower = Tower.rationals()
    tower = deepest_tower(p.coords, tower)
    tangent = nullspace(grads)
    # the tangent vectors independent of p and of those before them
    _, pivots = rref(transpose((p.coords,) + tangent))
    reps = [tangent[c - 1] for c in pivots[1:]]
    m = len(reps)
    cols = transpose(reps)
    bq, gq = pencil.beta.transform(cols), pencil.gamma.transform(cols)

    def lift(cand):
        return mat_vec(cols, cand.coords if isinstance(cand, ProjPoint) else cand)

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
    """Deterministic line candidates: the spans of coordinate vector pairs
    e_i, e_j inside X, which are those where both matrices vanish at
    (i, i), (j, j) and (i, j), plus the split-support line when both forms
    are diagonal."""
    out = []
    n = pencil.size
    b, g = pencil.beta.matrix, pencil.gamma.matrix
    for i in range(n):
        for j in range(i + 1, n):
            if not any(m[i][i] or m[j][j] or m[i][j] for m in (b, g)):
                out.append(Line(unit_vec(n, i), unit_vec(n, j)))
    if _is_diagonal(pencil):
        line, tower = _diagonal_line(pencil, tower)
        if line is not None:
            out.append(line)
    return out, tower


def _random_line(pencil: Pencil, rng, tower, predicate=None):
    """(Line inside X, tower) through a random smooth point of X that
    passes the predicate, or (None, tower) when either search gives up;
    the tower then keeps what the point paid."""
    try:
        aux, tower = point_on_intersection(pencil, rng=rng, tower=tower,
                                           predicate=predicate, retry_limit=8)
        return find_line_through(pencil, aux, rng=rng, tower=tower,
                                 retry_limit=8)
    except (RetryLimitError, TowerLimitError):
        return None, tower


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
        line, tower = _random_line(pencil, rng, tower)
        if line is not None:
            return line, tower
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


def _line_charts(pencil: Pencil, given, cheap):
    """The charts of the given lines, in order, then those of the cheap
    lines whose image quadric has rank 4, then the cheap rank-3 ones: each
    is built when it is passed over and held until then.  A line that
    gives no chart is skipped."""
    held = []
    for line, hold in itertools.chain(((ln, False) for ln in given),
                                      ((ln, True) for ln in cheap)):
        try:
            chart = chart_from_line(pencil, line)
        except (RankTooLowError, LineNotInXError):
            continue
        if hold and chart.image.rank() == 3:
            held.append(chart)
        else:
            yield chart
    yield from held


def connect_on_X(pencil: Pencil, p, q, *, lines=None, tower=None, rng=None,
                 retry_limit=64) -> XPath:
    """Connect two smooth points of the intersection X.  Searches for a
    line chart whose degeneracy quadric misses both endpoints, then runs
    the complement connector in the image; falls back to two segments
    through a midpoint when no single line works.  The given lines come
    first, then the cheap lines whose image quadric has rank 4, where
    the rescale gadget pays at most one radicand and a rank-3 one can
    pay two, then the cheap rank-3 ones, then random lines."""
    p = p if isinstance(p, ProjPoint) else ProjPoint(p)
    q = q if isinstance(q, ProjPoint) else ProjPoint(q)
    for name, pt in (("start", p), ("end", q)):
        if not pencil.on_intersection(pt):
            raise EndpointError("%s point is not on the intersection" % name)
        if proportional(pencil.beta.gradient(pt), pencil.gamma.gradient(pt)):
            raise SingularPointError(
                "%s point is singular on the intersection" % name)
    tower = deepest_tower(p.coords + q.coords,
                          tower if tower is not None else Tower.rationals())
    if rng is None:
        rng = random.Random(0)
    if p == q:
        return XPath(pencil, p, q, (), tower)

    def segment(chart, a, b, tw):
        inner = connect_complement(chart.image, chart.forward(a),
                                   chart.forward(b), tower=tw)
        return XSegment(chart.line, inner.steps), inner.tower

    tried = 0
    # the first chart that covers only p, under True, and only q, under
    # False, each with its degeneracy form
    covers = {}
    cheap, tower = _cheap_lines(pencil, tower)
    charts = _line_charts(pencil, lines or (), cheap)
    # one growing tower chain across every attempt, so charts found on
    # different attempts can share arithmetic later
    while tried < retry_limit:
        tried += 1
        chart = next(charts, None)
        if chart is None:
            line, tower = _random_line(pencil, rng, tower,
                                       predicate=lambda y: y != p and y != q)
            if line is None:
                continue
            try:
                chart = chart_from_line(pencil, line)
            except (RankTooLowError, LineNotInXError):
                continue
        dform = chart.degeneracy_form()
        good_p = not dform(p).is_zero()
        # q's value counts only where it can end the search or record the
        # first chart that covers only q
        good_q = (good_p or False not in covers) and not dform(q).is_zero()
        if good_p and good_q:
            seg, t2 = segment(chart, p, q, tower)
            return XPath(pencil, p, q, (seg,), t2)
        if good_p or good_q:
            covers.setdefault(good_p, (chart, dform))
        if len(covers) < 2:
            continue
        # two segments through a smooth point of X that both covering
        # charts map, pulled back from random image points of the first
        (c1, d1), (c2, d2) = covers[True], covers[False]
        mid = next((z for z in c1.points(rng, 64)
                    if z != p and z != q and not d1(z).is_zero()
                    and not d2(z).is_zero() and pencil.smooth_at(z)), None)
        if mid is not None:
            seg1, t2 = segment(c1, p, mid, tower)
            seg2, t3 = segment(c2, mid, q, t2)
            return XPath(pencil, p, q, (seg1, seg2), t3)
    raise RetryLimitError("no line chart covers the endpoints")


def verify_on_X(pencil: Pencil, path: XPath) -> VerifyReport:
    """Replay an intersection certificate.  Each segment rebuilds its line
    chart from the pencil and the stored line alone, projects the current
    point, replays the moves against the recomputed image quadric
    (navigate.verify_path), and, where another segment follows, lifts the
    last exit back to X (LineChart.inverse), where the next segment
    starts.

    The inner lifts decide image != 0; the tail decides proj end.  A
    lift's n is the image form's value (Chart's shape rule), so the inner
    replay has refused a segment whose projected start or any exit lies
    on the image quadric, or whose last exit has the wrong length: the
    boundary lift cannot fail.  proj has kernel exactly the line, so the
    points over an image point u are a v1 + b v2 + c u with c != 0, and
    those on X have (a, b, c) in the kernel of inverse's two residual
    rows, whose cross[2] is 4 image(u).  Over a field, then, a point of X
    off the line whose image value is nonzero is the one point of X over
    its projection that inverse returns.  After the last segment the tail
    checks proj end != 0, proj end == the last exit, and that start and
    end lie on X, which is inverse(forward(start)) == start and
    inverse(exit) == end.  A replay that succeeds has so decided that
    both endpoints lie on X, for navigate.verdict."""
    rc = path.tower.height
    if not mat_eq(path.pencil.beta.matrix, pencil.beta.matrix) or \
            not mat_eq(path.pencil.gamma.matrix, pencil.gamma.matrix):
        return VerifyReport(False, "pencil mismatch", None,
                            len(path.segments), "ci", rc)
    return verdict(
        "ci", len(path.segments), rc, path.start, path.end, pencil.size,
        lambda pt: None if pencil.on_intersection(pt)
        else "is not on the intersection",
        lambda: _replay_on_X(pencil, path))


def _replay_on_X(pencil: Pencil, path: XPath):
    """verify_on_X's replay: its first broken segment as (reason, index),
    or None when every segment holds and the last one ends at the end."""
    cur = path.start
    last = len(path.segments) - 1
    for k, seg in enumerate(path.segments):
        try:
            chart = chart_from_line(pencil, seg.line)
        except (InputFormatError, LineNotInXError) as exc:
            return "bad line at segment %d: %s" % (k, exc), k
        except RankTooLowError as exc:
            return "bad chart at segment %d: %s" % (k, exc), k
        if not seg.steps:
            return "segment %d has no steps" % k, k
        try:
            fs = chart.forward(cur)
        except OutOfDomainError as exc:
            return "segment %d leaves the line chart: %s" % (k, exc), k
        exit_p = seg.steps[-1].exit
        inner = MovePath("complement", chart.image, fs, exit_p, seg.steps,
                         path.tower)
        inner_rep = verify_path(chart.image, inner)
        if not inner_rep.valid:
            return ("segment %d inner certificate: %s"
                    % (k, inner_rep.reason), k)
        if k < last:
            cur = chart.inverse(exit_p)
    u = mat_vec(chart.proj, path.end.coords)
    if is_zero_vec(u) or ProjPoint(u) != exit_p or \
            not pencil.on_intersection(path.start) or \
            not pencil.on_intersection(path.end):
        return "path does not reach the stated endpoint", last
    return None


@dataclass
class AuditReport:
    hyperplane_degree: int
    cylinder_degree: int
    total_degree: int
    hyperplane_nonzero: bool
    quadric_vanishes_on_line: bool
    passed: bool

    def to_obj(self):
        return asdict(self)


def polar_degree_audit(chart: LineChart, tower=None) -> AuditReport:
    """Pull one inner cylinder of the image complement back to the
    ambient space of X and account for the degrees of its boundary:
    the distinguished hyperplane pulls back to degree 1 and the image
    quadric to degree 2, three in total, and the quadric part must
    vanish on the projection line."""
    # one cylinder chart on the image complement suffices; its base point
    # costs no radicand when a coordinate vector is a smooth zero, which
    # matters when the image quadric carries radicals
    img = chart.image
    base, _ = point_on_quadric(img, rng=random.Random(0), tower=tower,
                               predicate=img.is_smooth_at)
    inner_chart = complement_cylinder(img, base)
    # the distinguished coordinate of the inner chart is row dist of F^-1,
    # which is 2 (A F e_dep)^T: F^T A F has 1/2 at (dep, dist) and row
    # dep vanishes elsewhere.  Only whether its pullback is zero counts
    dep_col = tuple(row[inner_chart.dep] for row in inner_chart.change.matrix)
    h = img.gradient(dep_col)
    pulled = mat_vec(transpose(chart.proj), h)
    hyper_ok = not is_zero_vec(pulled)
    dform = chart.degeneracy_form()
    v1, v2 = chart.line.v1, chart.line.v2
    vanishes = dform(v1).is_zero() and dform(v2).is_zero() and \
        dform(vec_add(v1, v2)).is_zero()
    quad_nonzero = any(not c.is_zero() for row in dform.matrix for c in row)
    passed = hyper_ok and vanishes and quad_nonzero
    return AuditReport(1, 2, 3, hyper_ok, vanishes, passed)
