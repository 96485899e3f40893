"""Projective points, quadratic forms, and exact linear algebra over towers.

Vectors are tuples of TowerScalar.  Matrices are tuples of row tuples.
Everything is exact.  Rank, inverse, rref and kernels come from plain
Gauss-Jordan elimination over the tower field, and det from forward
elimination.  The matrices met here are mostly zeros, so the kernels skip
them: products walk each row's list of nonzero entries, found once per
row, and an elimination step touches only the pivot row's nonzero columns.

Conventions used throughout the package:
  - a quadratic form is a symmetric matrix A with f(x) = x^T A x, so the
    coefficient of a cross term x_i x_j (i != j) is 2*A[i][j];
  - the associated bilinear form is beta(u, v) = u^T A v, and the gradient
    at x is the covector 2*A x (we drop the 2 where only vanishing matters).
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import (
    PointNotOnQuadricError,
    RetryLimitError,
    SingularPointError,
    TowerError,
    TowerLimitError,
)
from .tower import ONE, ZERO, Tower, as_scalar, sqrt_if_present, try_sqrt

Vec = tuple
Mat = tuple


def vec(values) -> Vec:
    return tuple(as_scalar(v) for v in values)


def mat(rows) -> Mat:
    m = tuple(tuple(as_scalar(v) for v in row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise TowerError("ragged matrix")
    return m


def unit_vec(n, i) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity_mat(n) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def vec_add(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(u, c) -> Vec:
    return tuple(a * c for a in u)


def dot(u, v):
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def upper_rows(m, idx=None):
    """The rows of x^T m x over m's upper triangle, on the coordinates
    idx (default all) renumbered 0, 1, ... in idx's order: (k, terms) for
    each row with a nonzero entry, terms the (l, c) with l >= k and
    c != 0, c = m[i][i] on the diagonal and 2*m[i][j] off it."""
    idx = range(len(m)) if idx is None else idx
    rows = []
    for k, i in enumerate(idx):
        terms = []
        for l in range(k, len(idx)):
            c = m[i][idx[l]]
            if c:
                terms.append((l, c if l == k else 2 * c))
        if terms:
            rows.append((k, tuple(terms)))
    return tuple(rows)


def upper_value(rows, x):
    """x^T m x for rows = upper_rows(m): the sum over the rows of x_k
    times (the sum of c * x_l), skipping zero coordinates.  It never
    takes more products than dot(x, m x), and fewer where a row vanishes
    on and right of the diagonal: x_0 x_1 + x_2 x_3 takes two products
    of coordinates, not four."""
    acc = ZERO
    for k, terms in rows:
        xk = x[k]
        if xk:
            inner = ZERO
            for l, c in terms:
                y = x[l]
                if y:
                    inner = inner + c * y
            if inner:
                acc = acc + xk * inner
    return acc


def _support(v):
    """The (index, entry) pairs of the nonzero entries of v."""
    return [(i, x) for i, x in enumerate(v) if x]


def mat_vec(m, v) -> Vec:
    sv = _support(v)
    out = []
    for row in m:
        acc = ZERO
        for i, x in sv:
            y = row[i]
            if y:
                acc = acc + y * x
        out.append(acc)
    return tuple(out)


def mat_mul(a, b) -> Mat:
    """Row i of a*b is the sum of a[i][k] times row k of b, over the
    nonzero a[i][k] and the nonzero entries of row k."""
    ncols = len(b[0]) if b else 0
    brows = [_support(row) for row in b]
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for k, x in _support(row):
            for j, y in brows[k]:
                acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def transpose(m) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(r) == len(s) and all(x == y for x, y in zip(r, s))
        for r, s in zip(a, b))


def is_zero_vec(v) -> bool:
    return all(x.is_zero() for x in v)


def _pivot_row(rows, r, c):
    """The first row index >= r with a nonzero entry in column c, or None."""
    return next((i for i in range(r, len(rows)) if rows[i][c]), None)


def _pivot(rows, r, c, start):
    """Scale row r to 1 at column c, then clear column c in every other
    row from start on.  Only the pivot row's nonzero columns right of c
    are touched: left of c it is zero already."""
    prow = rows[r]
    inv = 1 / prow[c]
    nz = []
    for j in range(c + 1, len(prow)):
        if prow[j]:
            prow[j] = y = prow[j] * inv
            nz.append((j, y))
    prow[c] = ONE
    for i in range(start, len(rows)):
        row = rows[i]
        f = row[c]
        if f and i != r:
            for j, y in nz:
                row[j] = row[j] - f * y
            row[c] = ZERO


def _eliminate(rows):
    """Row-reduce the list rows (lists) in place to reduced row echelon
    form; returns the pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = _pivot_row(rows, r, c)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        _pivot(rows, r, c, 0)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m):
    """(reduced rows as Mat, pivot columns)."""
    rows = [list(r) for r in m]
    pivots = _eliminate(rows)
    return tuple(tuple(r) for r in rows[:len(pivots)]), pivots


def rank_of(m) -> int:
    return len(rref(m)[1])


def nullspace(m) -> tuple:
    """A basis (tuple of Vecs) for {v : m v = 0}."""
    if not m:
        return ()
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(tuple(v))
    return tuple(basis)


def mat_inverse(m) -> Mat:
    n = len(m)
    rows = [list(r) + list(unit_vec(n, i)) for i, r in enumerate(m)]
    pivots = _eliminate(rows)
    if len(pivots) != n or pivots != list(range(n)):
        raise TowerError("matrix is singular")
    return tuple(tuple(r[n:]) for r in rows)


def det(m):
    n = len(m)
    rows = [list(r) for r in m]
    sign = 1
    acc = ONE
    for c in range(n):
        pr = _pivot_row(rows, c, c)
        if pr is None:
            return ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        acc = acc * rows[c][c]
        _pivot(rows, c, c, c + 1)
    return acc if sign == 1 else -acc


def proportional(u, v) -> bool:
    """Is rank_of((u, v)) <= 1?  Decided without dividing: true when a
    row is zero, else both rows have the same first nonzero index i and
    u_j * v_i == v_j * u_i for every later j."""
    i = next((j for j, x in enumerate(u) if x), None)
    k = next((j for j, y in enumerate(v) if y), None)
    if i is None or k is None:
        return True
    if i != k:
        return False
    ui, vi = u[i], v[i]
    for x, y in zip(u[i + 1:], v[i + 1:]):
        if not x:
            if y:
                return False
        elif not y or x * vi != y * ui:
            return False
    return True


class ProjPoint:
    """A point of projective space, stored as a nonzero coordinate tuple.

    Any nonzero representative is kept as given.  Equality is
    division-free: equal tuples are equal at once, else the coordinate
    tuples must be proportional (see proportional).  Hashing and repr go
    through the canonical representative whose first nonzero coordinate
    is 1.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        cs = vec(coords)
        if is_zero_vec(cs):
            raise TowerError("projective point needs a nonzero coordinate")
        self.coords = cs

    def canonical_coords(self) -> Vec:
        lead = next(c for c in self.coords if not c.is_zero())
        if lead == 1:
            return self.coords
        inv = 1 / lead
        return tuple(c * inv for c in self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        xs, ys = self.coords, other.coords
        if len(xs) != len(ys):
            return False
        return xs == ys or proportional(xs, ys)

    def __hash__(self):
        return hash(tuple(self.canonical_coords()))

    def __repr__(self):
        return "(" + " : ".join(repr(c) for c in self.canonical_coords()) + ")"


def proj(coords) -> ProjPoint:
    return ProjPoint(coords)


class QuadForm:
    """A quadratic form given by its symmetric matrix."""

    __slots__ = ("matrix", "_rank", "_upper")

    def __init__(self, matrix):
        m = mat(matrix)
        n = len(m)
        if any(len(r) != n for r in m):
            raise TowerError("quadratic form matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] is not m[j][i] and m[i][j] != m[j][i]:
                    raise TowerError("quadratic form matrix must be symmetric")
        self.matrix = m
        self._rank = None
        self._upper = None

    @property
    def size(self) -> int:
        return len(self.matrix)

    @staticmethod
    def _coords(x):
        return x.coords if isinstance(x, ProjPoint) else vec(x)

    def __call__(self, x):
        """q(x), over the upper triangle (upper_value)."""
        if self._upper is None:
            self._upper = upper_rows(self.matrix)
        return upper_value(self._upper, self._coords(x))

    def bilinear(self, u, v):
        return dot(self._coords(u), mat_vec(self.matrix, self._coords(v)))

    def gradient(self, x) -> Vec:
        """A x (proportional to the actual gradient 2 A x)."""
        return mat_vec(self.matrix, self._coords(x))

    def rank(self) -> int:
        if self._rank is None:
            self._rank = rank_of(self.matrix)
        return self._rank

    def radical_basis(self) -> tuple:
        return nullspace(self.matrix)

    def transform(self, m) -> "QuadForm":
        """The form of f composed with the substitution x = M u."""
        mm = mat(m)
        return QuadForm(mat_mul(transpose(mm), mat_mul(self.matrix, mm)))

    def is_smooth_at(self, x) -> bool:
        return not is_zero_vec(self.gradient(x))

    def tangent_space(self, x) -> tuple:
        """A basis of the tangent hyperplane at a smooth point of the
        quadric."""
        g = self.gradient(x)
        if not self(x).is_zero():
            raise PointNotOnQuadricError("point is not on the quadric")
        if is_zero_vec(g):
            raise SingularPointError("quadric is singular at the point")
        return nullspace((g,))

    def __eq__(self, other):
        if not isinstance(other, QuadForm):
            return NotImplemented
        return mat_eq(self.matrix, other.matrix)

    def __repr__(self):
        return "QuadForm(size=%d, rank=%d)" % (self.size, self.rank())


def quadform_from_terms(n, terms) -> QuadForm:
    """Build a form on n coordinates from {(i, j): coefficient} of the
    polynomial; off-diagonal polynomial coefficients split across the two
    symmetric entries."""
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), c in terms.items():
        c = as_scalar(c)
        if i == j:
            rows[i][i] = rows[i][i] + c
        else:
            half = c / 2
            rows[i][j] = rows[i][j] + half
            rows[j][i] = rows[j][i] + half
    return QuadForm(rows)


class CoordChange:
    """An invertible substitution x = M u between ambient coordinates x
    and chart coordinates u.

    pullback(form) is the form in chart coordinates, M^T A M.  The change
    keeps the last one it computed, with the form it belongs to, so every
    chart built on this change over that form shares one product.  It
    keeps its last from_ambient (x, M^-1 x) the same way, so the charts
    sharing a change (the U and V charts of a bundle, the steps of a
    replay on one matrix) read one point's chart coordinates once."""

    __slots__ = ("matrix", "_inverse", "_pulled", "_image")

    def __init__(self, matrix, inverse=None):
        self.matrix = mat(matrix)
        self._inverse = mat(inverse) if inverse is not None else None
        self._pulled = None
        self._image = None

    @property
    def size(self):
        return len(self.matrix)

    def inverse_matrix(self) -> Mat:
        if self._inverse is None:
            self._inverse = mat_inverse(self.matrix)
        return self._inverse

    def pullback(self, form: QuadForm) -> QuadForm:
        """form composed with x = M u, as a form in u: M^T A M."""
        if self._pulled is None or self._pulled[0] is not form:
            self._pulled = (form, form.transform(self.matrix))
        return self._pulled[1]

    def to_ambient(self, u) -> Vec:
        return mat_vec(self.matrix, u)

    def from_ambient(self, x) -> Vec:
        """M^-1 x for a coordinate tuple x.  The last x is matched by
        identity, then by structural equality of its scalars, which is
        cheap beside the product."""
        last = self._image
        if last is not None and (last[0] is x or last[0] == x):
            return last[1]
        u = mat_vec(self.inverse_matrix(), x)
        self._image = (x, u)
        return u


def congruent_diagonalize(q: QuadForm):
    """(CoordChange M, diagonal entries) with M^T A M diagonal, nonzero
    entries first.  Symmetric elimination; never extends any tower."""
    n = q.size
    a = [list(r) for r in q.matrix]
    m = [list(r) for r in identity_mat(n)]

    def add_col(dst, src, c):
        # column operation on A (and the congruent row op) plus bookkeeping in M
        for i in range(n):
            a[i][dst] = a[i][dst] + a[i][src] * c
        for j in range(n):
            a[dst][j] = a[dst][j] + a[src][j] * c
        for i in range(n):
            m[i][dst] = m[i][dst] + m[i][src] * c

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        a[i], a[j] = a[j], a[i]
        for r in m:
            r[i], r[j] = r[j], r[i]

    for k in range(n):
        if a[k][k].is_zero():
            # bring a nonzero diagonal entry to position k, or manufacture
            # one from an off-diagonal entry
            found = None
            for i in range(k + 1, n):
                if not a[i][i].is_zero():
                    found = i
                    break
            if found is not None:
                swap_cols(k, found)
            else:
                pair = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if not a[i][j].is_zero():
                            pair = (i, j)
                            break
                    if pair:
                        break
                if pair is None:
                    break  # remaining block is zero
                i, j = pair
                add_col(i, j, ONE)  # now a[i][i] = 2 a_ij != 0 (char 0)
                if i != k:
                    swap_cols(k, i)
        piv = a[k][k]
        inv = 1 / piv
        for j in range(k + 1, n):
            if not a[k][j].is_zero():
                add_col(j, k, -a[k][j] * inv)

    diag = [a[i][i] for i in range(n)]
    # move zero diagonal entries last, preserving the order of the rest
    order = [i for i in range(n) if not diag[i].is_zero()] + \
            [i for i in range(n) if diag[i].is_zero()]
    mt = transpose(m)
    cols = [mt[i] for i in order]
    change = CoordChange(transpose(cols))
    return change, tuple(diag[i] for i in order)


def _random_coeffs(k, rng):
    while True:
        cs = [rng.randint(-10, 10) for _ in range(k)]
        if any(cs):
            return vec(cs)


def roots_on_line(form: QuadForm, z, w, tower, extend=True):
    """Points where the form vanishes on the line through z and w, as
    coordinate tuples; may extend the tower by one radicand.  With
    extend=False an adjunction is never paid and the list may be empty."""
    fz = form(z)
    fzw = form.bilinear(z, w)
    fw = form(w)
    zc = z.coords if isinstance(z, ProjPoint) else vec(z)
    wc = w.coords if isinstance(w, ProjPoint) else vec(w)
    if fz.is_zero() and fzw.is_zero() and fw.is_zero():
        return [zc, wc, vec_add(zc, wc)], tower
    if fz.is_zero():
        out = [zc]
        if not fzw.is_zero():
            # f(s z + t w) = t (2 s fzw + t fw); second root
            out.append(vec_add(vec_scale(zc, fw), vec_scale(wc, -2 * fzw)))
        return out, tower
    if fw.is_zero():
        out = [wc]
        if not fzw.is_zero():
            out.append(vec_add(vec_scale(wc, fz), vec_scale(zc, -2 * fzw)))
        return out, tower
    disc = fzw * fzw - fz * fw
    if extend:
        try:
            root, tower = try_sqrt(tower, disc)
        except TowerLimitError:
            return [], tower
    else:
        root = sqrt_if_present(tower, disc)
        if root is None:
            return [], tower
    inv = 1 / fz
    out = []
    for r in (root, -root):
        s = (-fzw + r) * inv
        out.append(vec_add(vec_scale(zc, s), wc))
    return out, tower


def _base_point(g: QuadForm, tower):
    """(c, tower): a zero of g at which g is smooth, or (None, tower) when
    g has rank <= 1 (or every smooth zero tried needs a radicand the
    tower cannot take).  A coordinate vector e_i with g(e_i) = 0 and a
    nonzero row costs nothing.  Otherwise the base is the first smooth
    root on a line through two coordinate vectors; it pays at most one
    radicand, and none on a tower that already holds that root."""
    k = g.size
    for i in range(k):
        e = unit_vec(k, i)
        if g.matrix[i][i].is_zero() and g.is_smooth_at(e):
            return e, tower
    for i, j in combinations(range(k), 2):
        roots, work = roots_on_line(g, unit_vec(k, i), unit_vec(k, j), tower)
        for r in roots:
            if g.is_smooth_at(r):
                return r, work
    return None, tower


def point_on_quadric(q: QuadForm, basis=None, rng=None, tower=None,
                     predicate=None, retry_limit=64):
    """A point of V(q) inside the span of basis (default: everywhere),
    accepted by the predicate.  Returns (ProjPoint, tower).

    The search projects from one base point, a zero of q on the span at
    which q restricted to the span is smooth (see _base_point): every
    line through the base meets V(q) once more, at
    q(v)*base - 2*beta(base, v)*v, in the base's own field.  Finding the
    base pays at most one radicand, and none when a basis vector is such
    a zero or the tower already holds the base; the retry_limit
    candidates offered to the predicate, one per random v, never pay
    one.  When q has rank <= 1 on the span, V(q) there is the radical of
    the restricted form and the candidates are random points of it.
    """
    if rng is None:
        rng = random.Random(0)
    if tower is None:
        tower = Tower.rationals()
    if basis is None:
        g, lift = q, vec
    elif not basis:
        raise RetryLimitError("empty subspace has no points")
    else:
        # q restricted to the span, in the coordinates c of sum c_k basis_k
        cols = transpose(basis)
        g = q.transform(cols)
        lift = lambda c: mat_vec(cols, c)

    base, tower = _base_point(g, tower)
    if base is not None:
        def draw():
            v = _random_coeffs(g.size, rng)
            return vec_add(vec_scale(base, g(v)),
                           vec_scale(v, -2 * g.bilinear(base, v)))
    else:
        rad = transpose(g.radical_basis())
        if not rad:
            raise RetryLimitError("no point on the quadric in the subspace")
        draw = lambda: mat_vec(rad, _random_coeffs(len(rad[0]), rng))

    for _ in range(retry_limit):
        c = draw()
        if is_zero_vec(c):
            continue
        p = ProjPoint(lift(c))
        if predicate is None or predicate(p):
            return p, tower
    raise RetryLimitError(
        "no acceptable point on the quadric after %d attempts" % retry_limit)
