"""Pencils of quadrics, line charts, and connectivity on the intersection.

The hexagonal pencil x0 x1 + x2 x3 + x4 x5, x0 x5 + x1 x2 + x3 x4 with the
line through e0 and e2 is the main frozen fixture: every pairing and the
resulting image quadric were worked out by hand, and the discriminant is
cross-checked against a symbolic oracle.
"""

import random
from fractions import Fraction as F

import pytest

from quadcyl.errors import (
    DuplicateLambdaError,
    EndpointError,
    InputFormatError,
    LineNotInXError,
    OutOfDomainError,
    RetryLimitError,
    SingularPointError,
)
from quadcyl import pencils
from quadcyl.pencils import (
    Line,
    Pencil,
    XPath,
    _cheap_lines,
    _interpolate,
    _is_diagonal,
    _poly_deriv,
    _poly_gcd,
    chart_from_line,
    connect_on_X,
    eacx_build,
    find_line,
    find_line_through,
    pencil_smoothness,
    point_on_intersection,
    polar_degree_audit,
    span_in_X,
    verify_on_X,
)
from quadcyl.projective import (
    ProjPoint,
    QuadForm,
    nullspace,
    proj,
    quadform_from_terms,
    rank_of,
    vec,
)
from quadcyl.tower import Tower, as_scalar, scalar


def hexagonal_pencil():
    b = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    g = quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1})
    return Pencil(b, g)


def e(i, n=6):
    return tuple(1 if j == i else 0 for j in range(n))


def on_line(line, x):
    v = x.coords if isinstance(x, ProjPoint) else vec(x)
    return rank_of((line.v1, line.v2, v)) == 2


def fixture_chart():
    p = hexagonal_pencil()
    return p, chart_from_line(p, Line.through(p, e(0), e(2)))


class TestPencilBasics:
    def test_size_mismatch_rejected(self):
        b = quadform_from_terms(6, {(0, 1): 1})
        g = quadform_from_terms(7, {(0, 1): 1})
        with pytest.raises(InputFormatError):
            Pencil(b, g)

    def test_too_small_rejected(self):
        b = quadform_from_terms(4, {(0, 1): 1})
        with pytest.raises(InputFormatError):
            Pencil(b, b)

    def test_membership_and_smoothness(self):
        p = hexagonal_pencil()
        assert p.on_intersection(proj(e(0)))
        assert p.smooth_at(proj(e(0)))
        # both gradients line up at this point, so the jacobian drops rank
        s = proj((1, 0, 1, 0, 1, 0))
        assert p.on_intersection(s)
        assert p.jacobian_rank(s) == 1
        assert not p.smooth_at(s)
        s2 = proj((0, 1, 0, 1, 0, 1))
        assert p.on_intersection(s2) and not p.smooth_at(s2)


class TestSpan:
    def test_fixture_spans(self):
        p = hexagonal_pencil()
        assert span_in_X(p, [e(0), e(2)])
        assert not span_in_X(p, [e(0), e(1)])
        assert span_in_X(p, [e(0)])

    def test_span_agrees_with_random_combinations(self):
        rng = random.Random(11)
        p = hexagonal_pencil()
        for _ in range(30):
            w1 = tuple(rng.randint(-3, 3) for _ in range(6))
            w2 = tuple(rng.randint(-3, 3) for _ in range(6))
            if all(c == 0 for c in w1) or all(c == 0 for c in w2):
                continue
            claimed = span_in_X(p, [w1, w2])
            combos_on = True
            for _ in range(50):
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                x = tuple(a * u + b * v for u, v in zip(w1, w2))
                if all(c == 0 for c in x):
                    continue
                if not (p.beta(x).is_zero() and p.gamma(x).is_zero()):
                    combos_on = False
                    break
            assert claimed == combos_on


class TestLine:
    def test_through_validates_membership(self):
        p = hexagonal_pencil()
        l = Line.through(p, e(0), e(2))
        assert on_line(l, proj(e(0)))
        assert on_line(l, proj(e(2)))
        assert on_line(l, (1, 0, 5, 0, 0, 0))
        assert not on_line(l, proj(e(1)))
        with pytest.raises(LineNotInXError):
            Line.through(p, e(0), e(1))

    def test_through_needs_two_points(self):
        p = hexagonal_pencil()
        with pytest.raises(InputFormatError):
            Line.through(p, e(0), (2, 0, 0, 0, 0, 0))


class TestLineChart:
    def test_image_quadric_frozen(self):
        _, chart = fixture_chart()
        expected = quadform_from_terms(4, {(0, 0): F(1, 4), (1, 3): F(-1, 4)})
        assert chart.image == expected
        assert chart.image.rank() == 3

    def test_forward_frozen(self):
        _, chart = fixture_chart()
        assert chart.forward(proj(e(1))) == proj((1, 0, 0, 0))
        # a hand-checked intersection point
        x = proj((3, -1, -1, -2, -1, -1))
        assert chart.forward(x) == proj((1, 2, 1, 1))

    def test_forward_on_line_rejected(self):
        _, chart = fixture_chart()
        with pytest.raises(OutOfDomainError):
            chart.forward(proj(e(0)))
        with pytest.raises(OutOfDomainError):
            chart.forward(proj((2, 0, -3, 0, 0, 0)))

    def test_inverse_frozen(self):
        _, chart = fixture_chart()
        assert chart.inverse((1, 0, 0, 0)) == proj(e(1))
        assert chart.inverse((1, 2, 1, 1)) == proj((3, -1, -1, -2, -1, -1))

    def test_inverse_rejected_on_image_quadric(self):
        _, chart = fixture_chart()
        for u in ((0, 1, 0, 0), (1, 1, 1, 1), (0, 0, 1, 0)):
            assert chart.image(u).is_zero()
            with pytest.raises(OutOfDomainError):
                chart.inverse(u)

    def test_roundtrip_random(self):
        pencil, chart = fixture_chart()
        rng = random.Random(5)
        hits = 0
        while hits < 25:
            u = tuple(rng.randint(-7, 7) for _ in range(4))
            if all(c == 0 for c in u) or chart.image(u).is_zero():
                continue
            hits += 1
            x = chart.inverse(u)
            assert pencil.on_intersection(x)
            assert chart.forward(x) == proj(u)

    def test_inverse_lands_on_X_even_near_bad_locus(self):
        # points off the image quadric but with small coordinates, a mix
        # of signs, and zeros sprinkled in
        pencil, chart = fixture_chart()
        for u in ((1, 2, 0, 0), (1, 0, 0, 2), (0, 1, 1, -1), (1, -1, 3, 2)):
            if chart.image(u).is_zero():
                continue
            assert pencil.on_intersection(chart.inverse(u))


class TestDegeneracyForm:
    def test_frozen_matrix(self):
        _, chart = fixture_chart()
        d = chart.degeneracy_form()
        expected = quadform_from_terms(6, {(1, 1): F(1, 4), (3, 5): F(-1, 4)})
        assert d == expected

    def test_vanishes_on_line(self):
        _, chart = fixture_chart()
        d = chart.degeneracy_form()
        assert d(e(0)).is_zero()
        assert d(e(2)).is_zero()
        assert d((1, 0, 1, 0, 0, 0)).is_zero()
        assert d((3, -1, -1, -2, -1, -1)) == scalar(F(-1, 4))


class TestDiscriminant:
    def test_hexagonal_frozen(self):
        rep = pencil_smoothness(hexagonal_pencil())
        want = [F(-1, 64), 0, 0, F(-1, 32), 0, 0, F(-1, 64)]
        assert rep.discriminant == [scalar(c) for c in want]
        assert rep.degree == 6 and rep.expected_degree == 6
        assert not rep.squarefree
        assert not rep.proportional
        assert not rep.identically_zero
        assert not rep.smooth

    def test_diagonal_frozen(self):
        rep = pencil_smoothness(eacx_build([0, 1, 2, 3, 4, 5]))
        want = [0, 120, 274, 225, 85, 15, 1]
        assert rep.discriminant == [scalar(c) for c in want]
        assert rep.smooth and rep.squarefree

    def test_matches_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        rng = random.Random(23)
        pencils = [hexagonal_pencil(), eacx_build([0, 1, 2, 3, 4, 5])]
        for _ in range(3):
            rows_b = [[0] * 6 for _ in range(6)]
            rows_g = [[0] * 6 for _ in range(6)]
            for i in range(6):
                for j in range(i, 6):
                    rows_b[i][j] = rows_b[j][i] = rng.randint(-3, 3)
                    rows_g[i][j] = rows_g[j][i] = rng.randint(-3, 3)
            pencils.append(Pencil(QuadForm(rows_b), QuadForm(rows_g)))
        for pencil in pencils:
            rep = pencil_smoothness(pencil)
            mat = sympy.Matrix(
                6, 6,
                lambda i, j: s * sympy.Rational(str(pencil.beta.matrix[i][j].as_rational()))
                + sympy.Rational(str(pencil.gamma.matrix[i][j].as_rational())))
            expr = sympy.expand(mat.det())
            coeffs = sympy.Poly(expr, s).all_coeffs() if expr != 0 else []
            coeffs = [sympy.Rational(c) for c in reversed(coeffs)]
            got = [F(str(c.as_rational())) for c in rep.discriminant]
            assert got == [F(int(c.p), int(c.q)) for c in coeffs]

    def test_proportional_flag(self):
        b = quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
        g = quadform_from_terms(6, {(0, 1): 2, (2, 3): 2, (4, 5): 2})
        rep = pencil_smoothness(Pencil(b, g))
        assert rep.proportional and not rep.smooth

    def test_repeated_parameter_not_squarefree(self):
        rows = [[0] * 6 for _ in range(6)]
        for i, lam in enumerate([0, 0, 1, 2, 3, 4]):
            rows[i][i] = lam
        ident = quadform_from_terms(6, {(i, i): 1 for i in range(6)})
        rep = pencil_smoothness(Pencil(ident, QuadForm(rows)))
        assert not rep.squarefree and not rep.smooth

    def test_interpolation_helpers(self):
        # p(x) = x^3 - 2x + 5 through four sample points
        xs = [as_scalar(i) for i in range(4)]
        ys = [as_scalar(i ** 3 - 2 * i + 5) for i in range(4)]
        got = _interpolate(xs, ys)
        assert got == [scalar(5), scalar(-2), scalar(0), scalar(1)]
        assert _poly_deriv(got) == [scalar(-2), scalar(0), scalar(3)]
        # gcd((x-1)(x-2), (x-1)) is monic x-1
        a = [scalar(2), scalar(-3), scalar(1)]
        b = [scalar(-1), scalar(1)]
        assert _poly_gcd(a, b) == [scalar(-1), scalar(1)]


class TestPointSearch:
    def test_points_on_intersection(self):
        p = hexagonal_pencil()
        rng = random.Random(7)
        tw = Tower.rationals()
        for _ in range(5):
            x, tw = point_on_intersection(p, rng=rng, tower=tw)
            assert p.smooth_at(x)

    def test_predicate_respected(self):
        p = hexagonal_pencil()
        avoid = proj(e(1))
        x, _ = point_on_intersection(p, rng=random.Random(3),
                                     predicate=lambda y: y != avoid)
        assert x != avoid


class TestFindLine:
    def test_line_through_basis_point(self):
        p = hexagonal_pencil()
        line, _ = find_line_through(p, proj(e(0)), rng=random.Random(1))
        assert on_line(line, proj(e(0)))
        assert span_in_X(p, [line.v1, line.v2])
        chart = chart_from_line(p, line)
        assert chart.image.rank() in (3, 4)

    def test_line_through_other_basis_points(self):
        p = hexagonal_pencil()
        for i in range(6):
            line, _ = find_line_through(p, proj(e(i)), rng=random.Random(i))
            assert on_line(line, proj(e(i)))
            assert span_in_X(p, [line.v1, line.v2])

    def test_partial_at_random_points(self):
        # square roots cannot crack every configuration; the contract is a
        # valid line or a clean failure, never a wrong answer
        p = hexagonal_pencil()
        for seed in (19, 20):
            rng = random.Random(seed)
            x, tw = point_on_intersection(p, rng=rng)
            try:
                line, tw = find_line_through(p, x, rng=rng, tower=tw,
                                             retry_limit=6)
            except RetryLimitError:
                continue
            assert on_line(line, x)
            assert span_in_X(p, [line.v1, line.v2])

    def test_rejects_bad_points(self):
        p = hexagonal_pencil()
        with pytest.raises(EndpointError):
            find_line_through(p, proj((1, 1, 0, 0, 0, 0)))
        with pytest.raises(SingularPointError):
            find_line_through(p, proj((1, 0, 1, 0, 1, 0)))

    def test_auto_line_on_hexagonal(self):
        p = hexagonal_pencil()
        line, _ = find_line(p)
        assert span_in_X(p, [line.v1, line.v2])
        # the coordinate-pair scan should fire, giving a rational line
        assert all(c.is_rational() for c in line.v1 + line.v2)

    def test_auto_line_on_diagonal(self):
        p = eacx_build([0, 1, 2, 3, 4, 5])
        line, tw = find_line(p)
        assert span_in_X(p, [line.v1, line.v2])
        assert tw.height >= 1


class TestConnectOnX:
    def connect_pair(self, seed):
        p = hexagonal_pencil()
        rng = random.Random(seed)
        a, tw = point_on_intersection(p, rng=rng)
        b, tw = point_on_intersection(p, rng=rng, tower=tw,
                                      predicate=lambda y: y != a)
        path = connect_on_X(p, a, b, tower=tw, seed=seed, rng=rng)
        return p, path

    def test_seeded_pairs_verify(self):
        for seed in (1, 2, 3):
            pencil, path = self.connect_pair(seed)
            rep = verify_on_X(pencil, path)
            assert rep.valid, rep.reason
            assert 1 <= len(path.segments) <= 2

    def test_same_point_gives_empty_path(self):
        p = hexagonal_pencil()
        x, tw = point_on_intersection(p, rng=random.Random(4))
        path = connect_on_X(p, x, x, tower=tw)
        assert path.segments == ()
        assert verify_on_X(p, path).valid

    def test_rejects_bad_endpoints(self):
        p = hexagonal_pencil()
        x, _ = point_on_intersection(p, rng=random.Random(4))
        with pytest.raises(EndpointError):
            connect_on_X(p, x, proj((1, 1, 1, 1, 1, 1)))
        with pytest.raises(SingularPointError):
            connect_on_X(p, x, proj((0, 1, 0, 1, 0, 1)))

    def test_supplied_line_used(self):
        p = hexagonal_pencil()
        line = Line.through(p, e(0), e(2))
        a = proj(e(1))
        b = proj((3, -1, -1, -2, -1, -1))
        path = connect_on_X(p, a, b, lines=[line])
        assert len(path.segments) == 1
        assert path.segments[0].line.v1 == line.v1
        assert verify_on_X(p, path).valid


class TestVerifyOnX:
    def make_path(self):
        p = hexagonal_pencil()
        line = Line.through(p, e(0), e(2))
        a = proj(e(1))
        b = proj((3, -1, -1, -2, -1, -1))
        return p, connect_on_X(p, a, b, lines=[line])

    def test_pencil_mismatch(self):
        p, path = self.make_path()
        other = eacx_build([0, 1, 2, 3, 4, 5])
        rep = verify_on_X(other, path)
        assert not rep.valid and rep.reason == "pencil mismatch"

    def test_empty_path_with_distinct_endpoints(self):
        p, path = self.make_path()
        broken = XPath(p, path.start, path.end, (), path.tower)
        rep = verify_on_X(p, broken)
        assert not rep.valid
        assert rep.reason == "endpoints differ but the path is empty"

    def test_corrupt_line_rejected(self):
        import dataclasses
        p, path = self.make_path()
        seg = path.segments[0]
        bad_line = Line(seg.line.v1, tuple(scalar(c) for c in e(1)))
        bad_seg = dataclasses.replace(seg, line=bad_line)
        broken = XPath(p, path.start, path.end, (bad_seg,), path.tower)
        rep = verify_on_X(p, broken)
        assert not rep.valid and "bad line at segment 0" in rep.reason

    def test_endpoint_mismatch_detected(self):
        import dataclasses
        p, path = self.make_path()
        seg = path.segments[0]
        other = proj((0, 0, 1, 0))
        assert seg.steps[0].entry != other
        bad_step = dataclasses.replace(seg.steps[0], entry=other)
        bad_seg = dataclasses.replace(seg, steps=(bad_step,) + seg.steps[1:])
        broken = XPath(p, path.start, path.end, (bad_seg,), path.tower)
        rep = verify_on_X(p, broken)
        assert not rep.valid
        assert rep.reason == \
            "segment 0 inner certificate: chain break at step 0"

    def test_tampered_inner_certificate_rejected(self):
        import dataclasses
        p, path = self.make_path()
        seg = path.segments[0]
        step = seg.steps[1]
        bumped = tuple(t + 1 for t in step.target)
        bad_step = dataclasses.replace(step, target=bumped)
        bad_seg = dataclasses.replace(
            seg, steps=seg.steps[:1] + (bad_step,) + seg.steps[2:])
        broken = XPath(p, path.start, path.end, (bad_seg,), path.tower)
        rep = verify_on_X(p, broken)
        assert not rep.valid and "inner certificate" in rep.reason

    def test_endpoint_off_intersection(self):
        p, path = self.make_path()
        broken = XPath(p, proj((1, 1, 1, 1, 1, 1)), path.end, path.segments,
                       path.tower)
        rep = verify_on_X(p, broken)
        assert not rep.valid
        assert rep.reason == "start point is not on the intersection"


class TestAudit:
    def test_fixture_audit_passes(self):
        _, chart = fixture_chart()
        rep = polar_degree_audit(chart)
        assert rep.passed
        assert (rep.hyperplane_degree, rep.cylinder_degree) == (1, 2)
        assert rep.total_degree == 3
        assert rep.hyperplane_nonzero
        assert rep.quadric_vanishes_on_line


class TestDiagonalPencil:
    def test_build_validation(self):
        with pytest.raises(DuplicateLambdaError):
            eacx_build([0, 1, 2, 3, 4, 4])
        with pytest.raises(InputFormatError):
            eacx_build([0, 1, 2, 3])

    def test_matrices(self):
        p = eacx_build([0, 1, 2, 3, 4, 5])
        assert p.beta == quadform_from_terms(6, {(i, i): 1 for i in range(6)})
        assert p.gamma(e(3)) == scalar(3)

    def test_auto_line_and_roundtrips(self):
        p = eacx_build([0, 1, 2, 3, 4, 5])
        rng = random.Random(2)
        line, tw = find_line(p)
        chart = chart_from_line(p, line)
        assert chart.image.rank() in (3, 4)
        hits = 0
        while hits < 10:
            u = tuple(rng.randint(-5, 5) for _ in range(4))
            if all(c == 0 for c in u):
                continue
            uu = tuple(scalar(c) for c in u)
            if chart.image(uu).is_zero():
                continue
            hits += 1
            y = chart.inverse(uu)
            assert p.on_intersection(y)
            assert chart.forward(y) == ProjPoint(uu)


def hexagonal_under_m():
    """The hexagonal forms under the substitution x = M y, where M has rows
    e_i + e_(i+1) for i < 5 and 2 e_0 + e_5: no coordinate pair spans a
    line of X, and neither form is diagonal."""
    m = [[0] * 6 for _ in range(6)]
    for i in range(5):
        m[i][i] = m[i][i + 1] = 1
    m[5][0], m[5][5] = 2, 1
    h = hexagonal_pencil()
    return Pencil(h.beta.transform(m), h.gamma.transform(m))


class TestLineChartPoints:
    def test_points_on_X_and_off_image_quadric(self):
        for pencil, chart in (fixture_chart(),
                              (eacx_build([0, 1, 2, 3, 4, 5]), None)):
            if chart is None:
                chart = chart_from_line(pencil, find_line(pencil)[0])
            got = list(chart.points(random.Random(5), 30))
            assert len(got) >= 20
            for z in got:
                assert pencil.on_intersection(z)
                assert not chart.image(chart.forward(z)).is_zero()

    def test_inverse_refuses_exactly_on_image_quadric(self):
        # small coordinates so that both outcomes occur often
        _, chart = fixture_chart()
        rng = random.Random(8)
        seen = set()
        for _ in range(300):
            u = tuple(rng.randint(-2, 2) for _ in range(4))
            if all(c == 0 for c in u):
                continue
            try:
                chart.inverse(u)
                refused = False
            except OutOfDomainError:
                refused = True
            assert refused == chart.image(u).is_zero(), u
            seen.add(refused)
        assert seen == {False, True}

    def test_degeneracy_form_is_pulled_back_image_quadric(self):
        # the split-support line lives over Q(sqrt(-2))
        p = eacx_build([0, 1, 2, 3, 4, 5])
        chart = chart_from_line(p, find_line(p)[0])
        d = chart.degeneracy_form()
        rng = random.Random(6)
        for _ in range(20):
            x = vec(tuple(rng.randint(-5, 5) for _ in range(6)))
            u = chart.change.from_ambient(x)[2:]
            assert d(x) == chart.image(u)


class TestPointHeights:
    def test_diagonal_points_no_deeper_than_line(self):
        p = eacx_build([0, 1, 2, 3, 4, 5])
        _, line_tw = find_line(p)
        assert line_tw.height == 1
        for seed in range(4):
            x, tw = point_on_intersection(p, rng=random.Random(seed))
            assert p.smooth_at(x)
            assert tw.height <= line_tw.height

    def test_hexagonal_points_rational_and_accepted(self):
        p = hexagonal_pencil()
        rng = random.Random(9)
        tw = Tower.rationals()
        found = []
        for _ in range(6):
            x, tw = point_on_intersection(
                p, rng=rng, tower=tw, predicate=lambda y: y not in found)
            assert p.smooth_at(x)
            assert x not in found
            found.append(x)
        assert tw.height == 0
        assert all(c.is_rational() for x in found for c in x.coords)

    def test_cheap_line_path_draws_no_random_lines(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("line-free search reached")
        monkeypatch.setattr(pencils, "_point_on_two_quadrics", refuse)
        p = hexagonal_pencil()
        x, _ = point_on_intersection(p, rng=random.Random(2))
        assert p.smooth_at(x)


class TestNoCheapLine:
    def test_pencil_shape(self):
        p = hexagonal_under_m()
        assert not _is_diagonal(p)
        assert _cheap_lines(p, Tower.rationals())[0] == []

    def test_find_line_by_random_fallback(self):
        p = hexagonal_under_m()
        line, tw = find_line(p)
        assert span_in_X(p, [line.v1, line.v2])
        assert tw.height <= 3

    def test_point_by_line_free_path(self, monkeypatch):
        calls = []
        real = pencils._point_on_two_quadrics

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(pencils, "_point_on_two_quadrics", counted)
        p = hexagonal_under_m()
        x, _ = point_on_intersection(p)
        assert p.smooth_at(x)
        assert calls == [1]


class TestFindLineThroughQuotientFour:
    """A seven-coordinate pencil, so the tangent quotient at a point has
    dimension four and the random two-quadric search runs there."""

    def pencil(self):
        b = quadform_from_terms(7, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
        g = quadform_from_terms(7, {(0, 5): 1, (1, 2): 1, (3, 4): 1,
                                    (6, 6): 1})
        return Pencil(b, g)

    def test_lines_through_basis_points(self):
        p = self.pencil()
        for i in (0, 1, 3):
            x = proj(e(i, 7))
            tangent = nullspace((p.beta.gradient(x), p.gamma.gradient(x)))
            assert len(tangent) - 1 == 4
            line, tw = find_line_through(p, x, rng=random.Random(i))
            assert on_line(line, x)
            assert span_in_X(p, [line.v1, line.v2])
            assert tw.height == 0
