"""Charts: frozen normalizations first, then fiber-move properties."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quadcyl.errors import (
    FormNotSmoothError,
    InputFormatError,
    OutOfDomainError,
    PointNotOnQuadricError,
    RankTooLowError,
    SingularPointError,
)
from quadcyl.charts import (
    Chart,
    ChartBundle,
    build_complement_charts,
    chart_from_descriptor,
    complement_cylinder,
    cone_decompose,
    cone_lift,
    ctsq_normalize,
    hyperbolic_normalize,
    hyperbolic_target,
    quadric_chart,
    standard_cylinders,
)
from quadcyl.projective import (
    CoordChange,
    ProjPoint,
    QuadForm,
    identity_mat,
    mat_eq,
    proj,
    quadform_from_terms,
)
from quadcyl.tower import Tower, scalar


def form_xy_z2():
    # x0 x1 + x2^2 on P^2 (smooth conic)
    return quadform_from_terms(3, {(0, 1): 1, (2, 2): 1})


def random_symmetric(rng, n, rank_at_least=3):
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = F(rng.randint(-6, 6), rng.randint(1, 3))
                rows[i][j] = c
                rows[j][i] = c
        q = QuadForm(rows)
        if q.rank() >= rank_at_least:
            return q


class TestCtsq:
    def test_identity_fixture(self):
        # the adapted frame at (0:1:0) of x0 x1 + x2^2 is the identity
        frame = ctsq_normalize(form_xy_z2(), proj([0, 1, 0]))
        assert mat_eq(frame.change.matrix, identity_mat(3))
        assert frame.residual.matrix == ((scalar(1),),)
        assert frame.rank == 3

    def test_block_shape_random(self):
        rng = random.Random(20)
        for _ in range(10):
            n = rng.randint(3, 6)
            q = random_symmetric(rng, n)
            from quadcyl.projective import point_on_quadric
            x, _ = point_on_quadric(
                q, rng=rng, predicate=lambda p: q.is_smooth_at(p))
            frame = ctsq_normalize(q, x)
            b = q.transform(frame.change.matrix).matrix
            assert b[0][0].is_zero() and b[1][1].is_zero()
            assert b[0][1] == scalar(F(1, 2))
            for j in range(2, n):
                assert b[0][j].is_zero() and b[1][j].is_zero()
            assert frame.residual.rank() == q.rank() - 2

    def test_rejects_bad_points(self):
        q = form_xy_z2()
        with pytest.raises(PointNotOnQuadricError):
            ctsq_normalize(q, proj([1, 1, 1]))
        low = quadform_from_terms(3, {(0, 1): 1})
        with pytest.raises(RankTooLowError):
            ctsq_normalize(low, proj([1, 0, 0]))
        sing = quadform_from_terms(4, {(0, 1): 1, (2, 2): 1})
        with pytest.raises(SingularPointError):
            ctsq_normalize(sing, proj([0, 0, 0, 1]))


class TestHyperbolic:
    def test_already_standard(self):
        q = hyperbolic_target(5, 2, True)
        frame, tw = hyperbolic_normalize(q, Tower.rationals())
        assert mat_eq(frame.change.matrix, identity_mat(5))
        assert (frame.pairs, frame.has_z) == (2, True)
        assert tw.height == 0

    def test_diagonal_becomes_hyperbolic(self):
        # x0^2 + x1^2 needs sqrt(-1); exact target required
        q = quadform_from_terms(2, {(0, 0): 1, (1, 1): 1})
        frame, tw = hyperbolic_normalize(q, Tower.rationals())
        got = q.transform(frame.change.matrix)
        assert mat_eq(got.matrix, hyperbolic_target(2, 1, False).matrix)
        assert tw.height >= 1

    def test_random_forms_hit_target_exactly(self):
        rng = random.Random(4)
        for _ in range(8):
            n = rng.randint(2, 6)
            q = random_symmetric(rng, n, rank_at_least=2)
            frame, tw = hyperbolic_normalize(q, Tower.rationals())
            r = q.rank()
            target = hyperbolic_target(n, r // 2, bool(r % 2))
            assert mat_eq(q.transform(frame.change.matrix).matrix,
                          target.matrix)


class TestCone:
    def test_smooth_is_trivial(self):
        q = form_xy_z2()
        split = cone_decompose(q)
        assert split.vertex_count == 0
        assert mat_eq(split.change.matrix, identity_mat(3))
        assert split.base is q or mat_eq(split.base.matrix, q.matrix)

    def test_rank3_on_p4(self):
        q = quadform_from_terms(5, {(0, 1): 1, (2, 2): 1})
        split = cone_decompose(q)
        assert split.rank == 3
        assert split.vertex_count == 2
        assert split.base.rank() == 3
        b = q.transform(split.change.matrix).matrix
        for i in range(5):
            for j in range(3, 5):
                assert b[i][j].is_zero()


def u1_chart(n, pairs, z):
    q = hyperbolic_target(n, pairs, z)
    frame, _ = hyperbolic_normalize(q, Tower.rationals())
    return standard_cylinders(q, frame), q


class TestChartMechanics:
    def test_forward_backward_round_trip(self):
        charts, q = u1_chart(4, 2, False)
        u1 = charts[0]
        p = proj([1, 7, 2, 3])  # f = 7 + 6 = 13 != 0
        t, tv = u1.forward(p)
        assert t == 13
        assert u1.backward(t, tv) == p

    def test_fiber_move_keeps_t(self):
        charts, q = u1_chart(5, 2, True)
        u1 = charts[0]
        p = proj([1, 2, 0, 1, 3])  # f = 2 + 0 + 9 = 11
        t0, _ = u1.forward(p)
        moved = u1.move(p, u1.target_from({2: scalar(5), 4: scalar(-1)}))
        t1, tv1 = u1.forward(moved)
        assert t1 == t0
        assert u1.transverse_value(tv1, 2) == 5
        assert u1.transverse_value(tv1, 4) == -1
        assert not q(moved).is_zero()

    def test_domain_checks(self):
        charts, q = u1_chart(4, 2, False)
        u1 = charts[0]
        with pytest.raises(OutOfDomainError):
            u1.forward(proj([0, 1, 1, 1]))  # distinguished coordinate zero
        with pytest.raises(OutOfDomainError):
            u1.forward(proj([1, -6, 2, 3]))  # on the quadric: -6 + 6 = 0

    def test_quadric_chart_inverse(self):
        q = form_xy_z2()
        c = quadric_chart(q, proj([0, 1, 0]))
        p = proj([-1, 1, 1])  # on the conic: -1 + 1 = 0
        t, tv = c.forward(p)
        assert t.is_zero()
        assert c.backward(t, tv) == p
        # moving within the quadric stays on it
        moved = c.move(p, (scalar(4),))
        assert q(moved).is_zero()

    def test_complement_cylinder_excludes_quadric(self):
        q = form_xy_z2()
        c = complement_cylinder(q, proj([0, 1, 0]))
        with pytest.raises(OutOfDomainError):
            c.forward(proj([-1, 1, 1]))
        t, tv = c.forward(proj([1, 1, 1]))
        assert t == 2

    def test_shape_validation_rejects_junk(self):
        q = hyperbolic_target(4, 2, False)
        with pytest.raises(InputFormatError):
            Chart("standard-u", q, CoordChange(identity_mat(4)), 0, 2)
        with pytest.raises(InputFormatError):
            Chart("no-such-kind", q, CoordChange(identity_mat(4)), 0, 1)

    def test_descriptor_round_trip(self):
        charts, q = u1_chart(5, 2, True)
        for c in charts:
            desc = c.descriptor()
            c2 = chart_from_descriptor(q, desc, c.on_quadric)
            assert c2.on_quadric == c.on_quadric
            assert c2.dist == c.dist and c2.dep == c.dep
            assert mat_eq(c2.change.matrix, c.change.matrix)

    def test_descriptor_corruption_rejected(self):
        charts, q = u1_chart(4, 2, False)
        desc = charts[0].descriptor()
        desc["matrix"][0][0] = F(3, 7)  # breaks the block shape
        with pytest.raises(InputFormatError):
            chart_from_descriptor(q, desc, False)


class TestStandardFamily:
    def test_even_rank_charts(self):
        charts, _ = u1_chart(4, 2, False)
        assert [c.kind for c in charts] == ["standard-u", "standard-u"]
        assert [(c.dist, c.dep) for c in charts] == [(0, 1), (2, 3)]

    def test_odd_rank_charts(self):
        charts, q = u1_chart(5, 2, True)
        kinds = [c.kind for c in charts]
        assert kinds == ["standard-u", "standard-u", "standard-v",
                         "standard-v", "standard-w"]
        w = charts[-1]
        # the z-axis point is covered by the w chart and by nothing else
        zpt = proj([0, 0, 0, 0, 1])
        w.forward(zpt)
        for c in charts[:-1]:
            with pytest.raises(OutOfDomainError):
                c.forward(zpt)

    def test_needs_smooth_form(self):
        q = quadform_from_terms(4, {(0, 1): 1, (2, 2): 1})
        frame, _ = hyperbolic_normalize(
            cone_decompose(q).base, Tower.rationals())
        with pytest.raises(FormNotSmoothError):
            standard_cylinders(q, frame)


class TestConeLift:
    def test_lifted_chart_mechanics(self):
        # rank 3 form on P^4: x0 x1 + x2^2, vertex {e3, e4}
        q = quadform_from_terms(5, {(0, 1): 1, (2, 2): 1})
        bundle, tw = build_complement_charts(q, Tower.rationals())
        assert bundle.rank == 3
        lifted = bundle.all_charts()
        assert all(c.vertex_dim == 2 for c in lifted)
        p = proj([1, 3, 1, 5, -2])  # f = 3 + 1 = 4
        u1 = bundle.u_charts[0]
        t, tv = u1.forward(p)
        assert t == 4
        assert u1.backward(t, tv) == p
        # vertex coordinates are transverse: a move can change them freely
        target = list(tv)
        target[-1] = scalar(9)
        target[-2] = scalar(-1)
        moved = u1.move(p, tuple(target))
        t2, tv2 = u1.forward(moved)
        assert t2 == t
        assert tv2[-1] == 9 and tv2[-2] == -1
        # a trivial split returns the chart itself
        q = form_xy_z2()
        frame, _ = hyperbolic_normalize(q, Tower.rationals())
        charts = standard_cylinders(q, frame)
        assert cone_lift(charts[0], cone_decompose(q), q) is charts[0]


@given(st.integers(0, 10_000))
def test_fiber_moves_random_charts(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    q = random_symmetric(rng, n)
    bundle, tw = build_complement_charts(q, Tower.rationals())
    chart = rng.choice(bundle.all_charts())
    # pick a point in the chart's domain by shooting backward
    t = scalar(rng.randint(1, 9))
    tv = tuple(scalar(rng.randint(-4, 4)) for _ in chart.trans)
    p = chart.backward(t, tv)
    assert not q(p).is_zero()
    t2, tv2 = chart.forward(p)
    assert t2 == t and tv2 == tv
    target = tuple(scalar(rng.randint(-4, 4)) for _ in chart.trans)
    moved = chart.move(p, target)
    t3, tv3 = chart.forward(moved)
    assert t3 == t and tv3 == target
