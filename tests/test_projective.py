"""Projective layer: frozen small cases, then randomized exact properties."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from quadcyl.errors import (
    PointNotOnQuadricError,
    RetryLimitError,
    SingularPointError,
    TowerError,
)
from quadcyl.projective import (
    QuadForm,
    congruent_diagonalize,
    det,
    dot,
    identity_mat,
    mat_inverse,
    mat_mul,
    mat_vec,
    nullspace,
    point_on_quadric,
    proj,
    proportional,
    quadform_from_terms,
    rank_of,
    vec,
)
from quadcyl.tower import Tower, scalar, try_sqrt


def hyperbolic_form(n, pairs, z=False):
    """x_0 x_1 + ... + x_{2m-2} x_{2m-1} (+ z^2) on n coordinates."""
    terms = {}
    for i in range(pairs):
        terms[(2 * i, 2 * i + 1)] = 1
    if z:
        terms[(2 * pairs, 2 * pairs)] = 1
    return quadform_from_terms(n, terms)


class TestProjPoint:
    def test_scaling_invariance(self):
        assert proj([2, 4, 6]) == proj([1, 2, 3])
        assert proj([0, F(1, 2), 1]) == proj([0, 1, 2])
        assert proj([1, 0]) != proj([0, 1])

    def test_canonical_representative(self):
        assert list(proj([0, 3, 6]).canonical_coords()) == [0, 1, 2]

    def test_zero_rejected(self):
        with pytest.raises(Exception):
            proj([0, 0, 0])

    def test_hash_consistency(self):
        assert hash(proj([2, 4])) == hash(proj([1, 2]))

    def test_zero_patterns_differ(self):
        cases = [([0, 1, 2], [1, 1, 2]), ([1, 0, 1], [1, 1, 1]),
                 ([1, 2, 0], [1, 2, 3]), ([0, 0, 1], [0, 1, 0])]
        for a, b in cases:
            assert proj(a) != proj(b) and proj(b) != proj(a)
            assert proj(a) != proj([5 * x for x in b])


def _height2_roots():
    tw = Tower.rationals()
    r2, tw = try_sqrt(tw, scalar(2))
    r3, tw = try_sqrt(tw, scalar(3))
    return r2, r3


R2, R3 = _height2_roots()
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def coordinates(draw, deep):
    """A scalar that is zero half the time, else rational or of height 2."""
    if draw(st.booleans()):
        return scalar(0)
    if not deep:
        return scalar(draw(SMALL))
    a, b, c, d = (scalar(draw(SMALL)) for _ in range(4))
    return a + b * R2 + c * R3 + d * R2 * R3


@st.composite
def point_pairs(draw):
    """Two nonzero vectors of one length; the second is often a nonzero
    multiple of the first, sometimes with one coordinate changed."""
    deep = draw(st.booleans())
    n = draw(st.integers(1, 4))
    x = draw(st.lists(coordinates(deep), min_size=n, max_size=n).filter(any))
    how = draw(st.sampled_from(("scaled", "changed", "free")))
    if how == "free":
        y = draw(st.lists(coordinates(deep), min_size=n, max_size=n))
    else:
        c = draw(coordinates(deep).filter(lambda c: not c.is_zero()))
        y = [c * v for v in x]
        if how == "changed":
            y[draw(st.integers(0, n - 1))] = draw(coordinates(deep))
    assume(any(y))
    return x, y


@given(point_pairs())
def test_point_equality_agrees_with_canonical_coords(pair):
    x, y = pair
    px, py = proj(x), proj(y)
    same = px.canonical_coords() == py.canonical_coords()
    assert (px == py) is same and (py == px) is same
    assert (px != py) is not same
    if same:
        assert hash(px) == hash(py)


@st.composite
def row_pairs(draw):
    """Two rows of one length at tower height 0, 1 or 2: a zero row and
    another, a row and a nonzero multiple of it, that multiple with one
    entry changed, or two free rows."""
    height = draw(st.integers(0, 2))

    def entry():
        if draw(st.booleans()):
            return scalar(0)
        a, b, c, d = (scalar(draw(SMALL)) for _ in range(4))
        return (a, a + b * R2, a + b * R2 + c * R3 + d * R2 * R3)[height]
    n = draw(st.integers(1, 4))
    u = [entry() for _ in range(n)]
    how = draw(st.sampled_from(("zero", "scaled", "changed", "free")))
    if how == "zero":
        v = [scalar(0)] * n
    elif how == "free":
        v = [entry() for _ in range(n)]
    else:
        c = entry()
        assume(not c.is_zero())
        v = [c * x for x in u]
        if how == "changed":
            v[draw(st.integers(0, n - 1))] = entry()
    return (u, v) if draw(st.booleans()) else (v, u)


@given(row_pairs())
def test_proportional_agrees_with_rank(rows):
    u, v = rows
    want = rank_of((tuple(u), tuple(v))) <= 1
    assert proportional(u, v) is want and proportional(v, u) is want


class TestQuadForm:
    def test_cross_term_convention(self):
        # f = x0 x1 gets matrix entries 1/2 off the diagonal
        q = hyperbolic_form(2, 1)
        assert q.matrix[0][1] == scalar(F(1, 2))
        assert q(vec([1, 1])) == 1
        assert q(vec([3, 5])) == 15

    def test_rank_and_radical(self):
        q = hyperbolic_form(4, 1)  # x0 x1 on 4 coordinates
        assert q.rank() == 2
        rad = q.radical_basis()
        assert len(rad) == 2
        for v in rad:
            assert all(q.bilinear(v, e).is_zero()
                       for e in identity_mat(4))

    def test_tangent_space(self):
        q = hyperbolic_form(3, 1, z=True)  # x0 x1 + x2^2, smooth conic
        p = proj([1, 0, 0])
        t = q.tangent_space(p)
        # gradient at e0 is (0, 1/2, 0): tangent is {x1 = 0}
        assert len(t) == 2
        assert rank_of(t + (vec([1, 0, 0]),)) == 2
        assert rank_of(t + (vec([0, 0, 1]),)) == 2
        assert rank_of(t + (vec([0, 1, 0]),)) == 3

    def test_tangent_space_errors(self):
        q = hyperbolic_form(3, 1)  # rank 2 on P^2: singular at (0:0:1)
        with pytest.raises(PointNotOnQuadricError):
            q.tangent_space(proj([1, 1, 0]))
        with pytest.raises(SingularPointError):
            q.tangent_space(proj([0, 0, 1]))

    def test_transform_is_congruence(self):
        q = hyperbolic_form(3, 1, z=True)
        m = tuple(vec(r) for r in ((1, 2, 0), (0, 1, 0), (1, 0, 1)))
        qt = q.transform(m)
        rng = random.Random(7)
        for _ in range(5):
            u = vec([rng.randint(-5, 5) for _ in range(3)])
            assert qt(u) == q(mat_vec(m, u))


def _symmetric(rng, n, entry, zero_rows):
    """A seeded symmetric n x n form, about half of its upper triangle
    zero, whose rows (and columns) in zero_rows vanish: a cone when any
    do."""
    a = [[scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i not in zero_rows and j not in zero_rows and rng.random() < .5:
                a[i][j] = a[j][i] = entry(rng)
    return QuadForm(a)


class TestFormValue:
    def fields(self):
        """(name, seeded entry) over Q, Q(sqrt2, sqrt3), and the nested
        Q(sqrt2, sqrt(1 + sqrt2))."""
        tw = Tower.rationals().extend(2).extend(3)
        nested = Tower.rationals().extend(2)
        nested = nested.extend(1 + nested.generator(1))
        r, s = nested.generator(1), nested.generator(2)

        def nested_entry(rng):
            a, b, c, d = (scalar(F(rng.randint(-4, 4), rng.randint(1, 3)))
                          for _ in range(4))
            x = a + b * r + c * s + d * r * s
            return x if not x.is_zero() else s
        return (("Q", _rational_entry),
                ("Q(sqrt2,sqrt3)", lambda rng: _height_two_entry(tw, rng)),
                ("nested", nested_entry)), s

    def test_upper_triangle_equals_dot(self, monkeypatch):
        # q(x) sums x_k (sum over l >= k of c_kl x_l), c_kk = A_kk and
        # c_kl = 2 A_kl, skipping zero rows: the value of dot(x, A x), in
        # no more products, on forms of size 1 to 6, cones included
        import quadcyl.tower as tower_mod
        products = []
        real = tower_mod._mul

        def counting(x, y):
            products.append(x.level >= 1 and y.level >= 1)
            return real(x, y)
        monkeypatch.setattr(tower_mod, "_mul", counting)
        fields, deep = self.fields()
        rng = random.Random(29)
        for name, entry in fields:
            for n in (1, 2, 3, 4, 6):
                for zero_rows in ((), (0,), (n - 1,), tuple(range(0, n, 2))):
                    q = _symmetric(rng, n, entry, zero_rows)
                    # the first call builds the rows, with their 2 A_kl
                    q(tuple(scalar(0) for _ in range(n)))
                    for _ in range(3):
                        x = tuple(scalar(0) if rng.random() < .3
                                  else entry(rng) for _ in range(n))
                        del products[:]
                        got = q(x)
                        taken = len(products)
                        del products[:]
                        assert got == dot(x, mat_vec(q.matrix, x)), \
                            (name, n, zero_rows)
                        assert taken <= len(products), (name, n, zero_rows)
        # x0 x1 + x2 x3 + x4 x5 at a point of level 2 in every coordinate:
        # one product of two coordinates per pair, where dot(x, A x) takes
        # one per coordinate
        q = hyperbolic_form(6, 3)
        x = tuple(deep + k for k in range(6))
        q(x)  # builds the rows
        del products[:]
        got = q(x)
        assert sum(products) == 3
        del products[:]
        assert got == dot(x, mat_vec(q.matrix, x))
        assert sum(products) == 6


class TestLinearAlgebra:
    def test_rank_and_nullspace(self):
        m = ((1, 2, 3), (2, 4, 6), (1, 0, 1))
        m = tuple(vec(r) for r in m)
        assert rank_of(m) == 2
        ns = nullspace(m)
        assert len(ns) == 1
        assert all(x.is_zero() for x in mat_vec(m, ns[0]))

    def test_inverse_round_trip(self):
        m = tuple(vec(r) for r in ((2, 1, 0), (1, 1, 1), (0, 3, 1)))
        mi = mat_inverse(m)
        assert mat_mul(m, mi) == identity_mat(3)

    def test_det_frozen(self):
        m = tuple(vec(r) for r in ((2, 1), (7, 4)))
        assert det(m) == 1
        m = tuple(vec(r) for r in ((1, 2), (2, 4)))
        assert det(m).is_zero()

    def test_subspace_duality(self):
        basis = nullspace((vec([1, -1, 0]),))
        assert len(basis) == 2
        assert rank_of(basis + (vec([1, 1, 5]),)) == 2
        assert rank_of(basis + (vec([1, 0, 0]),)) == 3
        # back to equations
        eqs = nullspace(basis)
        assert len(eqs) == 1


class TestDiagonalize:
    def test_identity_stays(self):
        q = QuadForm(identity_mat(3))
        change, diag = congruent_diagonalize(q)
        assert q.transform(change.matrix).matrix == \
            QuadForm(((diag[0], 0, 0), (0, diag[1], 0), (0, 0, diag[2]))).matrix

    def test_hyperbolic_pair(self):
        # x0 x1 has zero diagonal; the fix must produce nonzero entries
        q = hyperbolic_form(2, 1)
        change, diag = congruent_diagonalize(q)
        assert all(not d.is_zero() for d in diag)
        qt = q.transform(change.matrix)
        for i in range(2):
            for j in range(2):
                expect = diag[i] if i == j else scalar(0)
                assert qt.matrix[i][j] == expect

    @given(st.integers(0, 10_000))
    def test_random_symmetric(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = F(rng.randint(-9, 9), rng.randint(1, 4))
                rows[i][j] = c
                rows[j][i] = c
        q = QuadForm(rows)
        change, diag = congruent_diagonalize(q)
        qt = q.transform(change.matrix)
        nz = sum(1 for d in diag if not d.is_zero())
        assert nz == q.rank()
        # exact diagonal result, nonzero entries first
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert qt.matrix[i][j].is_zero()
                else:
                    assert qt.matrix[i][i] == diag[i]
                    if i >= nz:
                        assert diag[i].is_zero()
        # the change is invertible
        mat_inverse(change.matrix)


class TestPointSearch:
    def test_finds_point_with_predicate(self):
        q = hyperbolic_form(4, 2)
        rng = random.Random(3)
        pred = lambda p: not p[0].is_zero()
        p, tw = point_on_quadric(q, rng=rng, predicate=pred)
        assert q(p).is_zero()
        assert not p[0].is_zero()

    def test_respects_subspace(self):
        q = hyperbolic_form(4, 2)
        basis = nullspace((vec([0, 0, 0, 1]),))
        rng = random.Random(5)
        p, _ = point_on_quadric(q, basis=basis, rng=rng)
        assert q(p).is_zero()
        assert p[3].is_zero()

    def test_adjunction_when_needed(self):
        # x0^2 + x1^2 - 3 x2^2 has no rational points (mod 3 argument);
        # the search must still produce an exact point in a bigger tower
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): -3})
        rng = random.Random(11)
        tw = Tower.rationals()
        p, tw2 = point_on_quadric(q, rng=rng, tower=tw)
        assert q(p).is_zero()
        assert tw2.height <= tw.height + 1

    def test_rational_base_on_grid_forms(self):
        # every form of the acceptance grid has a smooth isotropic
        # coordinate vector, so sampling from the rationals stays there
        rng = random.Random(7)
        for size in range(3, 9):
            for rank in range(3, size + 1):
                q = hyperbolic_form(size, rank // 2, bool(rank % 2))
                for _ in range(3):
                    p, tw = point_on_quadric(q, rng=rng,
                                             tower=Tower.rationals(),
                                             predicate=q.is_smooth_at)
                    assert q(p).is_zero() and q.is_smooth_at(p)
                    assert tw.height == 0

    def test_irrational_base_paid_once(self):
        # the base point of x0^2 + x1^2 - 3 x2^2 needs a radicand; calls
        # on the tower that holds it find the same base and pay no more
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): -3})
        rng = random.Random(11)
        p, tw = point_on_quadric(q, rng=rng, tower=Tower.rationals())
        assert tw.height == 1
        for _ in range(5):
            r, tw2 = point_on_quadric(q, rng=rng, tower=tw,
                                      predicate=q.is_smooth_at)
            assert q(r).is_zero() and q.is_smooth_at(r)
            assert tw2.height == 1

    def test_rank_one_returns_radical_point(self):
        q = quadform_from_terms(3, {(0, 0): 1})
        p, tw = point_on_quadric(q, rng=random.Random(2))
        assert p[0].is_zero()
        assert tw.height == 0

    def test_singular_isotropic_vector_never_chosen(self):
        # e_3 is the only isotropic coordinate vector, and it is the vertex
        q = quadform_from_terms(4, {(0, 0): 1, (1, 1): 1, (2, 2): -3})
        vertex = proj([0, 0, 0, 1])
        for seed in range(5):
            p, tw = point_on_quadric(q, rng=random.Random(seed),
                                     predicate=q.is_smooth_at)
            assert q(p).is_zero() and q.is_smooth_at(p)
            assert p != vertex
            assert tw.height <= 1

    def test_exhaustion_on_pointless_instance(self):
        # single point (1:1) of P^1 not on x0 x1
        q = hyperbolic_form(2, 1)
        basis = nullspace((vec([1, -1]),))
        with pytest.raises(RetryLimitError):
            point_on_quadric(q, basis=basis, rng=random.Random(1),
                             retry_limit=8)



def _dense_mul(a, b):
    """Schoolbook a*b, visiting every term, zeros included."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = scalar(0)
            for k in range(len(b)):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _dense_rref(m):
    """(rows, pivot columns) by Gauss-Jordan on whole rows."""
    rows = [list(r) for r in m]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows))
                   if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _dense_nullspace(m):
    rows, pivots = _dense_rref(m)
    ncols = len(m[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [scalar(0)] * ncols
        v[fc] = scalar(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        basis.append(tuple(v))
    return tuple(basis)


def _dense_inverse(m):
    n = len(m)
    rows, pivots = _dense_rref(
        [list(r) + [scalar(int(i == j)) for j in range(n)]
         for i, r in enumerate(m)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in rows)


def _cofactor_det(m):
    """Laplace expansion along the first row: no elimination at all."""
    if len(m) == 1:
        return m[0][0]
    acc = scalar(0)
    for j, x in enumerate(m[0]):
        if x.is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        term = x * _cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _height_two_entry(tower, rng):
    """a + b sqrt2 + c sqrt3 + d sqrt6 with small coefficients, some zero."""
    r2, r3 = tower.generator(1), tower.generator(2)
    a, b, c, d = (F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
    x = scalar(a) + scalar(b) * r2 + scalar(c) * r3 + scalar(d) * r2 * r3
    return x if not x.is_zero() else scalar(1)


def _rational_entry(rng):
    return scalar(F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))


def _sparse(rng, nrows, ncols, density, entry):
    return tuple(tuple(scalar(0) if rng.random() < density else entry(rng)
                       for _ in range(ncols)) for _ in range(nrows))


DENSITIES = (0.0, 0.3, 0.5, 0.7, 0.9)


class TestSparseKernelOracle:
    """The zero-skipping kernels against dense references, over Q and over
    Q(sqrt2, sqrt3), at zero densities from 0 to 0.9: square, singular and
    non-square matrices."""

    def fields(self):
        tw = Tower.rationals().extend(2).extend(3)
        return (("Q", _rational_entry),
                ("Q(sqrt2,sqrt3)", lambda rng: _height_two_entry(tw, rng)))

    def cases(self, seed, entry, square=False):
        rng = random.Random(seed)
        for density in DENSITIES:
            for _ in range(6):
                n = rng.randint(1, 5)
                k = n if square else rng.randint(1, 5)
                yield rng, density, _sparse(rng, n, k, density, entry)

    def test_products(self):
        for name, entry in self.fields():
            for rng, density, a in self.cases(11, entry):
                b = _sparse(rng, len(a[0]), rng.randint(1, 5), density, entry)
                assert mat_mul(a, b) == _dense_mul(a, b), (name, density)
                v = _sparse(rng, len(a[0]), 1, density, entry)
                got = mat_vec(a, tuple(r[0] for r in v))
                assert got == tuple(r[0] for r in _dense_mul(a, v))

    def test_rank_and_nullspace(self):
        for name, entry in self.fields():
            for _, density, m in self.cases(12, entry):
                rows, pivots = _dense_rref(m)
                assert rank_of(m) == len(pivots), (name, density)
                ns = nullspace(m)
                assert ns == _dense_nullspace(m)
                assert len(ns) == len(m[0]) - len(pivots)
                for v in ns:
                    assert all(x.is_zero() for x in mat_vec(m, v))

    def test_inverse_and_det(self):
        seen_singular = seen_regular = False
        for name, entry in self.fields():
            for _, density, m in self.cases(13, entry, square=True):
                want = _dense_inverse(m)
                assert det(m) == _cofactor_det(m), (name, density)
                if want is None:
                    seen_singular = True
                    assert det(m).is_zero()
                    with pytest.raises(TowerError):
                        mat_inverse(m)
                else:
                    seen_regular = True
                    assert mat_inverse(m) == want
                    assert mat_mul(m, want) == identity_mat(len(m))
        assert seen_singular and seen_regular

    def test_sympy_oracle_over_q(self):
        sympy = pytest.importorskip("sympy")

        def to_sympy(m):
            return sympy.Matrix([[sympy.Rational(x.rat.numerator,
                                                 x.rat.denominator)
                                  for x in row] for row in m])

        def from_sympy(x):
            return scalar(F(int(x.p), int(x.q)))

        for square in (False, True):
            for _, density, m in self.cases(14, _rational_entry, square):
                sm = to_sympy(m)
                assert rank_of(m) == sm.rank(), density
                assert nullspace(m) == tuple(
                    tuple(from_sympy(x) for x in v) for v in sm.nullspace())
                if not square:
                    continue
                assert det(m) == from_sympy(sm.det())
                if sm.det() != 0:
                    inv = sm.inv()
                    assert mat_inverse(m) == tuple(
                        tuple(from_sympy(inv[i, j]) for j in range(len(m)))
                        for i in range(len(m)))
