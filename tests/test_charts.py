"""Charts: frozen normalizations first, then fiber-move properties."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from quadcyl.errors import (
    InputFormatError,
    OutOfDomainError,
    PointNotOnQuadricError,
    RankTooLowError,
    SingularPointError,
)
from quadcyl.charts import (
    Chart,
    build_complement_charts,
    chart_from_descriptor,
    complement_cylinder,
    ctsq_normalize,
    hyperbolic_normalize,
    hyperbolic_target,
    quadric_chart,
)
from quadcyl.navigate import connect_complement, verify_path
from quadcyl.projective import (
    CoordChange,
    ProjPoint,
    QuadForm,
    dot,
    identity_mat,
    mat,
    mat_eq,
    mat_inverse,
    nullspace,
    point_on_quadric,
    proj,
    quadform_from_terms,
    transpose,
    vec,
    vec_add,
    vec_scale,
)
from quadcyl.tower import Tower, TowerScalar, scalar


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


def residual_of(q, frame):
    """The form on u_2, ... that the adapted frame leaves beside u_0 u_1."""
    b = q.transform(frame.change.matrix).matrix
    return QuadForm(tuple(row[2:] for row in b[2:]))


class TestCtsq:
    def test_identity_fixture(self):
        # the adapted frame at (0:1:0) of x0 x1 + x2^2 is the identity
        q = form_xy_z2()
        frame = ctsq_normalize(q, proj([0, 1, 0]))
        assert mat_eq(frame.change.matrix, identity_mat(3))
        residual = residual_of(q, frame)
        assert residual.matrix == ((scalar(1),),)
        assert residual.rank() + 2 == q.rank() == 3

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
            assert residual_of(q, frame).rank() == q.rank() - 2

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

    @pytest.mark.parametrize("n, terms", [
        # (x0 x2 - x1 x3)/4, the rank-4 image of three hexagonal lines
        (4, {(0, 2): F(1, 4), (1, 3): F(-1, 4)}),
        # the same pairs around a radical coordinate, x2
        (5, {(0, 3): F(1, 4), (1, 4): F(-1, 4)}),
    ])
    def test_coordinate_pairs_take_a_rational_frame(self, monkeypatch, n,
                                                    terms):
        import quadcyl.charts as charts
        diagonalized = []
        real = charts.congruent_diagonalize
        monkeypatch.setattr(charts, "congruent_diagonalize",
                            lambda q: diagonalized.append(q) or real(q))
        q = quadform_from_terms(n, terms)
        tower = Tower.rationals().extend(scalar(2))
        frame, tw = hyperbolic_normalize(q, tower)
        assert diagonalized == []
        assert tw.height == tower.height == 1
        change = frame.change
        assert all(c.level == 0 for row in change.matrix for c in row)
        assert (frame.pairs, frame.has_z) == (2, False)
        assert mat_eq(q.transform(change.matrix).matrix,
                      hyperbolic_target(n, 2, False).matrix)
        assert mat_eq(mat_inverse(change.matrix), change.inverse_matrix())
        # the frame columns past the pairs span the radical
        assert all(not any(q.gradient(col))
                   for col in transpose(change.matrix)[4:])

    @pytest.mark.parametrize("n, terms", [
        # a diagonal entry, at even rank
        (4, {(0, 1): 1, (2, 2): 1, (3, 3): -1}),
        # a row with two entries
        (5, {(0, 1): 1, (0, 2): 1, (3, 4): 1}),
        # odd rank
        (3, {(0, 1): 1, (2, 2): 2}),
    ])
    def test_other_forms_are_diagonalized(self, monkeypatch, n, terms):
        import quadcyl.charts as charts
        diagonalized = []
        real = charts.congruent_diagonalize
        monkeypatch.setattr(charts, "congruent_diagonalize",
                            lambda q: diagonalized.append(q) or real(q))
        q = quadform_from_terms(n, terms)
        frame, _ = hyperbolic_normalize(q, Tower.rationals())
        assert diagonalized == [q]
        r = q.rank()
        assert mat_eq(q.transform(frame.change.matrix).matrix,
                      hyperbolic_target(n, r // 2, bool(r % 2)).matrix)

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


def u1_chart(n, pairs, z):
    q = hyperbolic_target(n, pairs, z)
    bundle, _ = build_complement_charts(q, Tower.rationals())
    return bundle.all_charts(), q


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
        assert u1.trans == (2, 3, 4)
        assert tv1[0] == 5 and tv1[2] == -1
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
            c2 = chart_from_descriptor(q, desc, c.on_quadric, {})
            assert c2.on_quadric == c.on_quadric
            assert c2.dist == c.dist and c2.dep == c.dep
            assert mat_eq(c2.change.matrix, c.change.matrix)

    def test_descriptor_corruption_rejected(self):
        charts, q = u1_chart(4, 2, False)
        desc = charts[0].descriptor()
        desc["matrix"][0][0] = F(3, 7)  # breaks the block shape
        with pytest.raises(InputFormatError):
            chart_from_descriptor(q, desc, False, {})


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


class TestConeLift:
    def test_lifted_chart_mechanics(self):
        # rank 3 form on P^4: x0 x1 + x2^2, vertex {e3, e4}
        q = quadform_from_terms(5, {(0, 1): 1, (2, 2): 1})
        bundle, tw = build_complement_charts(q, Tower.rationals())
        assert 2 * bundle.pairs + bundle.has_z == 3
        charts = bundle.all_charts()
        assert all(c.vertex_dim == 2 for c in charts)
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

    def test_smooth_form_uses_the_frame_itself(self):
        # on a smooth form the U/V change is the hyperbolic frame's own
        # change: x0^2 - x1^2 + x2^2 - x3^2 needs no radicand
        q = quadform_from_terms(4, {(0, 0): 1, (1, 1): -1, (2, 2): 1,
                                    (3, 3): -1})
        bundle, tw = build_complement_charts(q, Tower.rationals())
        frame, _ = hyperbolic_normalize(q, Tower.rationals())
        assert tw.height == 0
        assert not mat_eq(frame.change.matrix, identity_mat(4))
        change = bundle.u_charts[0].change
        assert mat_eq(change.matrix, frame.change.matrix)
        assert all(c.change is change for c in bundle.u_charts)
        assert all(c.vertex_dim == 0 for c in bundle.all_charts())


def tilted_cone(rng, n, rank):
    """h(M u) for h = hyperbolic_target of the given rank < n and a seeded
    invertible integer M, so no coordinate vector spans the radical."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if frac_rank(m) == n:
            break
    h = hyperbolic_target(n, rank // 2, bool(rank % 2))
    return h.transform(mat(m))


TILTED = [(n, r) for n in (4, 5, 6) for r in range(3, n)]


class TestSharedFrame:
    """The bundle of a cone whose radical is not a coordinate subspace."""

    @pytest.mark.parametrize("n,rank", TILTED)
    def test_one_lifted_frame(self, n, rank):
        rng = random.Random(1000 * n + rank)
        q = tilted_cone(rng, n, rank)
        rad = [as_fractions(v) for v in q.radical_basis()]
        assert len(rad) == n - rank
        units = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        assert not [e for e in units if frac_rank(rad + [e]) == len(rad)]
        bundle, tw = build_complement_charts(q, Tower.rationals())
        change = bundle.u_charts[0].change
        assert all(c.change is change
                   for c in bundle.u_charts + bundle.v_charts)
        assert bundle.tower is tw
        assert 2 * bundle.pairs + bundle.has_z == rank
        vertex = [as_fractions(col) for col in transpose(change.matrix)[rank:]]
        assert frac_rank(vertex) == n - rank
        assert frac_rank(vertex + rad) == n - rank
        for chart in bundle.all_charts():
            assert chart.vertex_dim == n - rank
            t = scalar(rng.randint(1, 9))
            tv = tuple(scalar(rng.randint(-4, 4)) for _ in chart.trans)
            assert chart.forward(chart.backward(t, tv)) == (t, tv)

    @pytest.mark.parametrize("n,rank", TILTED)
    def test_connect_verifies(self, n, rank):
        rng = random.Random(1000 * n + rank)
        q = tilted_cone(rng, n, rank)
        bundle, tw = build_complement_charts(q, Tower.rationals())
        for _ in range(5):
            a, b = off_quadric(q, rng), off_quadric(q, rng)
            path = connect_complement(q, a, b, bundle=bundle)
            rep = verify_path(q, path)
            assert rep.valid, rep.reason


GRID_CONES = [(n, r) for n in range(4, 9) for r in range(3, n)]


class TestFrameOnTheForm:
    """A cone's bundle is normalized on the form itself: the U/V charts
    share q's own hyperbolic frame, and the W chart is q's own tangent
    frame at the special point of that frame."""

    @staticmethod
    def check(q):
        bundle, _ = build_complement_charts(q, Tower.rationals())
        frame, _ = hyperbolic_normalize(q, Tower.rationals())
        assert mat_eq(bundle.u_charts[0].change.matrix, frame.change.matrix)
        assert bundle.has_z == frame.has_z
        if frame.has_z:
            m = frame.pairs
            special = [0] * q.size
            special[2 * m - 2], special[2 * m - 1], special[2 * m] = -1, 1, 1
            x = ProjPoint(frame.change.to_ambient(svec(special)))
            assert mat_eq(bundle.w_chart.change.matrix,
                          ctsq_normalize(q, x).change.matrix)

    @pytest.mark.parametrize("n,rank", TILTED)
    def test_tilted_cone(self, n, rank):
        self.check(tilted_cone(random.Random(1000 * n + rank), n, rank))

    @pytest.mark.parametrize("n,rank", GRID_CONES)
    def test_grid_cone(self, n, rank):
        self.check(hyperbolic_target(n, rank // 2, bool(rank % 2)))


class TestDerivedChartFields:
    """on_quadric follows from a chart's kind and vertex_dim from its
    form, so every way of building a chart on one cone agrees on both."""

    @staticmethod
    def check(q):
        bundle, _ = build_complement_charts(q, Tower.rationals())
        x, _ = point_on_quadric(q, rng=random.Random(0),
                                predicate=q.is_smooth_at)
        built = bundle.all_charts() + [quadric_chart(q, x),
                                       complement_cylinder(q, x)]
        rebuilt = [chart_from_descriptor(q, c.descriptor(), on_q, {})
                   for c in built for on_q in (False, True)]
        for chart in built + rebuilt:
            assert chart.vertex_dim == q.size - q.rank()
            assert chart.on_quadric == (chart.kind == "quadric-chart")

    @pytest.mark.parametrize("n,rank", TILTED)
    def test_tilted_cone(self, n, rank):
        self.check(tilted_cone(random.Random(1000 * n + rank), n, rank))

    @pytest.mark.parametrize("n,rank", GRID_CONES)
    def test_grid_cone(self, n, rank):
        self.check(hyperbolic_target(n, rank // 2, bool(rank % 2)))


def off_quadric(q, rng):
    while True:
        c = [rng.randint(-5, 5) for _ in range(q.size)]
        if any(c) and not q(proj(c)).is_zero():
            return proj(c)


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


def frac_rank(vectors):
    """Rank of rational vectors, by Fraction elimination from scratch;
    vectors of tower scalars are eliminated as they are."""
    rows = [[x if isinstance(x, TowerScalar) else F(x) for x in v]
            for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_completion(cols, candidates):
    """Keep each candidate that raises the rank, until there are n."""
    n = len(cols[0])
    kept = list(cols)
    for cand in candidates:
        if len(kept) == n:
            break
        if frac_rank(kept + [cand]) == len(kept) + 1:
            kept.append(cand)
    return kept


def svec(v):
    return tuple(scalar(x) for x in v)


def as_fractions(v):
    return [x.rat for x in v]


def kernel_frame(q, p):
    """The tangent frame at p the long way: b0 = e_i0 / (2 w_i0) and p,
    completed by the kernel basis of w = A p that reference_completion
    keeps, then the shear that ctsq_normalize applies."""
    x, w = p.coords, q.gradient(p)
    i0 = next(i for i, c in enumerate(w) if c)
    b0 = tuple(1 / (2 * w[i0]) if j == i0 else scalar(0)
               for j in range(q.size))
    cols = reference_completion([b0, x], list(nullspace((w,))))
    g0 = q.gradient(cols[0])
    out = list(cols)
    for j in range(q.size):
        if j != 1:
            b0j = dot(g0, cols[j])
            out[j] = vec_add(cols[j], vec_scale(x, -(b0j if j == 0
                                                      else 2 * b0j)))
    return transpose(out)


def grid_quadric_points(rng, q, pairs, count):
    """Smooth rational points of hyperbolic_target(n, pairs, .): seeded
    coordinates in [-2, 2], each zero half the time, then the partner of
    the first nonzero x_2i solves the equation."""
    out = []
    while len(out) < count:
        x = [rng.choice((0, rng.randint(-2, 2))) for _ in range(q.size)]
        i = next((i for i in range(pairs) if x[2 * i]), None)
        if i is None:
            continue
        x[2 * i + 1] = 0
        x[2 * i + 1] = -q(vec(x)) / x[2 * i]
        if q.is_smooth_at(vec(x)):
            out.append(proj(x))
    return out


GRID_SHAPES = [(n, r) for n in range(3, 9) for r in range(3, n + 1)]


class TestClosedFormFrame:
    """ctsq_normalize's columns against the kernel-and-completion
    construction, and its inverse, read off the columns, against
    Gauss-Jordan."""

    @staticmethod
    def check(q, p):
        frame = ctsq_normalize(q, p)
        assert mat_eq(frame.change.matrix, kernel_frame(q, p))
        assert mat_eq(frame.change.inverse_matrix(),
                      mat_inverse(frame.change.matrix))
        w, x = q.gradient(p), p.coords
        i0 = next(i for i, c in enumerate(w) if c)
        k = max(j for j in range(q.size) if j != i0 and x[j])
        return i0, k

    def test_grid_shapes(self):
        rng = random.Random(35)
        seen = set()
        for n, r in GRID_SHAPES:
            q = hyperbolic_target(n, r // 2, bool(r % 2))
            for p in grid_quadric_points(rng, q, r // 2, 6):
                i0, k = self.check(q, p)
                seen.add((i0 > 0, k < n - 1))
        assert seen == {(a, b) for a in (False, True) for b in (False, True)}

    def test_random_forms_and_cones(self):
        rng = random.Random(20)
        forms = [random_symmetric(rng, rng.randint(3, 6)) for _ in range(10)]
        forms += [tilted_cone(random.Random(1000 * n + r), n, r)
                  for n, r in TILTED]
        for q in forms:
            for _ in range(2):
                p, _ = point_on_quadric(q, rng=rng, predicate=q.is_smooth_at)
                self.check(q, p)

    def test_point_over_sqrt2(self):
        # x0 x1 + x2^2 - 2 x3^2 at (0, 1, sqrt 2, 1): w = (1/2, 0, sqrt 2,
        # -2), so i0 = 0 and k = 3, with sqrt 2 in the shear
        s = Tower.rationals().extend(2).generator(1)
        q = quadform_from_terms(4, {(0, 1): 1, (2, 2): 1, (3, 3): -2})
        p = ProjPoint((scalar(0), scalar(1), s, scalar(1)))
        assert q(p).is_zero()
        assert self.check(q, p) == (0, 3)
        assert any(c.level for row in ctsq_normalize(q, p).change.matrix
                   for c in row)


def count_calls(monkeypatch, name):
    """Calls of projective's function name, through every quadcyl module
    that binds it."""
    import sys
    import quadcyl.projective as projective
    real, calls = getattr(projective, name), []

    def counting(*args):
        calls.append(args)
        return real(*args)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "quadcyl" and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestConnectInvertsNothing:
    """A tangent frame comes with its inverse and a target-shaped form's
    hyperbolic frame is the identity, so connect on a grid form inverts
    no matrix and takes no kernel."""

    @pytest.mark.parametrize("target, rank, a, b", [
        ("quadric", 5, "2,-2,1,3,1,0", "1/3,-21,-1,2,3,4"),
        ("complement", 5, "1/2,2,3,-1,2,5", "-3,1,0,4,1,-2"),
        ("complement", 3, "1,2,3,4,5,6", "1,0,4,0,0,0"),
    ])
    def test_grid_connect(self, tmp_path, monkeypatch, target, rank, a, b):
        from quadcyl.cli import main
        from quadcyl.serialize import dumps, form_to_obj
        form = tmp_path / "grid.qf"
        q = hyperbolic_target(6, rank // 2, bool(rank % 2))
        form.write_text(dumps(form_to_obj(q, Tower.rationals())))
        inverses = count_calls(monkeypatch, "mat_inverse")
        kernels = count_calls(monkeypatch, "nullspace")
        assert main(["connect", target, "--form", str(form), "--from", a,
                     "--to", b, "--out", str(tmp_path / "c.cert")]) == 0
        assert inverses == [] and kernels == []


class TestOnePullback:
    """Every chart built on one coordinate change over one form shares a
    single M^T A M, counted at QuadForm.transform."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        calls = []
        real = QuadForm.transform

        def counted(form, m):
            calls.append(form)
            return real(form, m)
        monkeypatch.setattr(QuadForm, "transform", counted)
        return calls

    @pytest.mark.parametrize("q, pullbacks", [
        (hyperbolic_target(5, 2, True), 1),   # standard: identity frame
        (quadform_from_terms(3, {(0, 0): 1, (1, 1): 2, (2, 2): 3}), 2),
        (hyperbolic_target(6, 2, True), 1),   # a cone, identity frame
    ], ids=["identity", "diagonal", "identity-cone"])
    def test_odd_rank_bundle_pulls_back_per_frame(self, q, pullbacks,
                                                  transforms):
        bundle, _ = build_complement_charts(q, Tower.rationals())
        assert bundle.has_z and len(bundle.all_charts()) == 2 * bundle.pairs + 1
        # once for the W frame, and once for the U/V frame unless it is
        # the identity, whose pullback of q is q itself
        assert len(transforms) == pullbacks

    def test_verify_pulls_back_once_per_matrix(self, transforms):
        from quadcyl.serialize import dumps, loads, path_from_obj, path_to_obj
        q = hyperbolic_target(5, 2, True)
        rng = random.Random(3)
        for _ in range(20):
            a, b = (proj([rng.randint(-5, 5) for _ in range(5)])
                    for _ in range(2))
            if q(a).is_zero() or q(b).is_zero():
                continue
            path = path_from_obj(loads(dumps(path_to_obj(
                connect_complement(q, a, b)))))
            keys = {(s.chart["dist"], s.chart["dep"],
                     tuple(map(tuple, s.chart["matrix"]))) for s in path.steps}
            matrices = {k[2] for k in keys}
            if len(keys) > len(matrices):
                break
        else:
            pytest.fail("no path with two charts on one matrix")
        del transforms[:]
        assert verify_path(q, path).valid
        assert len(transforms) == len(matrices)
