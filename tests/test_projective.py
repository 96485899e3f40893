"""Projective layer: frozen small cases, then randomized exact properties."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quadcyl.errors import (
    PointNotOnQuadricError,
    RetryLimitError,
    SingularPointError,
)
from quadcyl.projective import (
    QuadForm,
    congruent_diagonalize,
    det,
    identity_mat,
    mat_inverse,
    mat_mul,
    mat_vec,
    nullspace,
    point_on_quadric,
    proj,
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

