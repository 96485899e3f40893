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
    RankTooLowError,
    RetryLimitError,
    SingularPointError,
    ZeroDivisorError,
)
from quadcyl import pencils
from quadcyl.pencils import (
    Line,
    Pencil,
    XPath,
    XSegment,
    _cheap_lines,
    _interpolate,
    _is_diagonal,
    _poly_deriv,
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
    det,
    is_zero_vec,
    mat,
    mat_inverse,
    mat_vec,
    nullspace,
    proj,
    proportional,
    quadform_from_terms,
    rank_of,
    rref,
    transpose,
    unit_vec,
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


def covers(chart, x):
    """connect_on_X's coverage rule: image(proj x) != 0."""
    v = x.coords if isinstance(x, ProjPoint) else vec(x)
    return not chart.image(mat_vec(chart.proj, v)).is_zero()


def round_trips(chart, x):
    """inverse(forward(x)) == x, False where either is undefined."""
    try:
        return chart.inverse(chart.forward(x)) == proj(x)
    except OutOfDomainError:
        return False


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
        gb, gg = p.beta.gradient(s), p.gamma.gradient(s)
        assert proportional(gb, gg) and not is_zero_vec(gb)
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
    """The image quadric pulled back along the projection, as
    polar_degree_audit reads it."""

    def test_frozen_matrix(self):
        _, chart = fixture_chart()
        d = chart.image.transform(chart.proj)
        expected = quadform_from_terms(6, {(1, 1): F(1, 4), (3, 5): F(-1, 4)})
        assert d == expected

    def test_vanishes_on_line(self):
        _, chart = fixture_chart()
        d = chart.image.transform(chart.proj)
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
                lambda i, j: s * sympy.Rational(str(pencil.beta.matrix[i][j].rat))
                + sympy.Rational(str(pencil.gamma.matrix[i][j].rat)))
            expr = sympy.expand(mat.det())
            coeffs = sympy.Poly(expr, s).all_coeffs() if expr != 0 else []
            coeffs = [sympy.Rational(c) for c in reversed(coeffs)]
            got = [F(str(c.rat)) for c in rep.discriminant]
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

    def test_squarefree_matches_symbolic_oracle(self):
        # rep.squarefree against sympy's discriminant of det(sB + C), under
        # the same degree >= n - 1 guard: random pencils, diagonal ones
        # whose parameters repeat, and congruent copies of those
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        s = sympy.Symbol("s")
        ring = sympy.QQ[s]
        rng = random.Random(31)
        verdicts = []
        for k in range(30):
            n = 6 + k % 3
            if k % 3 == 0:
                b = [[0] * n for _ in range(n)]
                g = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        b[i][j] = b[j][i] = rng.randint(-3, 3)
                        g[i][j] = g[j][i] = rng.randint(-3, 3)
            else:
                mu = [rng.choice((-2, -1, 0, 1, 1, 2, 3)) for _ in range(n)]
                lam = [m * rng.randint(-4, 4) or rng.randint(1, 3)
                       for m in mu]
                b = [[mu[i] if i == j else 0 for j in range(n)]
                     for i in range(n)]
                g = [[lam[i] if i == j else 0 for j in range(n)]
                     for i in range(n)]
                if k % 3 == 2:
                    pm = sympy.Matrix(n, n, lambda i, j: rng.randint(-1, 1)
                                      if i != j else 1)
                    b = (pm.T * sympy.Matrix(b) * pm).tolist()
                    g = (pm.T * sympy.Matrix(g) * pm).tolist()
            b = [[int(c) for c in row] for row in b]
            g = [[int(c) for c in row] for row in g]
            rep = pencil_smoothness(Pencil(QuadForm(b), QuadForm(g)))
            pm = DomainMatrix.from_Matrix(
                s * sympy.Matrix(b) + sympy.Matrix(g)).convert_to(ring)
            poly = sympy.Poly(ring.to_sympy(pm.det()), s)
            want = (not poly.is_zero and poly.degree() >= n - 1
                    and sympy.discriminant(poly) != 0)
            assert rep.squarefree == want, (b, g)
            verdicts.append(want)
        assert 8 <= verdicts.count(True) <= 22, verdicts


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
        assert all(c.level == 0 for c in line.v1 + line.v2)

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
        path = connect_on_X(p, a, b, tower=tw, rng=rng)
        return p, path

    def test_seeded_pairs_verify(self):
        for seed in (1, 2, 3):
            pencil, path = self.connect_pair(seed)
            rep = verify_on_X(pencil, path)
            assert rep.valid, rep.reason
            assert 1 <= len(path.segments) <= 2

    def test_one_step_per_chart_run(self):
        pencil, path = self.connect_pair(1)
        assert verify_on_X(pencil, path).valid
        for seg in path.segments:
            for a, b in zip(seg.steps, seg.steps[1:]):
                assert a.chart != b.chart

    def test_scaled_step_points_verify(self):
        import dataclasses
        from quadcyl.serialize import dumps, loads, xpath_from_obj, \
            xpath_to_obj
        rng = random.Random(6)
        pencil, path = self.connect_pair(2)

        def scale(pt):
            c = scalar(F(rng.choice((-3, -2, 2, 3, 5)), rng.randint(1, 7)))
            return proj(tuple(c * x for x in pt.coords))
        segments = tuple(
            dataclasses.replace(seg, steps=tuple(
                dataclasses.replace(s, entry=scale(s.entry),
                                    exit=scale(s.exit))
                for s in seg.steps))
            for seg in path.segments)
        scaled = dataclasses.replace(path, segments=segments)
        back = xpath_from_obj(loads(dumps(xpath_to_obj(scaled))))
        rep = verify_on_X(pencil, back)
        assert rep.valid, rep.reason

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

    def rank_four_misses(self, p, a, b):
        """Does every cheap line with a rank-4 image miss a or b?"""
        charts = [chart_from_line(p, line)
                  for line in _cheap_lines(p, Tower.rationals())[0]]
        return all(not covers(c, a) or not covers(c, b)
                   for c in charts if c.image.rank() == 4)

    def test_rank4_line_preferred(self, monkeypatch):
        # the first cheap line, e0 e2, has a rank-3 image; the segment
        # takes a rank-4 one, whose image (u0 u2 - u1 u3)/4 gets the
        # rational pair frame, so no frame radicand is paid
        from quadcyl import charts
        p = hexagonal_pencil()
        roots = []
        real = charts.try_sqrt
        monkeypatch.setattr(charts, "try_sqrt",
                            lambda tw, x: roots.append(x) or real(tw, x))
        for a, b in [((1, -1, 2, 3, -1, 5), (2, -7, 1, -1, 3, 5)),
                     ((2, -7, 1, -1, 3, 5), (1, F(-1, 2), 1, 1, 1, F(-1, 2)))]:
            a, b = proj(a), proj(b)
            assert not self.rank_four_misses(p, a, b)
            path = connect_on_X(p, a, b)
            (seg,) = path.segments
            assert chart_from_line(p, seg.line).image.rank() == 4
            assert path.tower.height <= 1
            assert verify_on_X(p, path).valid
        assert roots == []

    def test_rank3_fallback(self):
        # no rank-4 coordinate line covers the start
        # (the frozen ci-deep pair s910-p7), so a rank-3 line is taken
        p = hexagonal_pencil()
        a = proj((0, 1, 0, F(-10, 3), 0, 0))
        b = proj((0, 1, 0, F(3, 4), 0, F(-7, 4)))
        assert self.rank_four_misses(p, a, b)
        path = connect_on_X(p, a, b)
        (seg,) = path.segments
        assert chart_from_line(p, seg.line).image.rank() == 3
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

    def test_pencil_mismatch_in_gamma_only(self):
        # the reference (beta, gamma + beta) cuts out the same X, and its
        # line charts have the same images, since the pairings c and d
        # gain a and b, and a d - b c gains a b - b a, whose symmetric
        # part is zero: the certificate replays on it, so only the
        # comparison of gamma refuses it
        p, path = self.make_path()
        other = Pencil(p.beta, QuadForm(tuple(
            tuple(g + b for g, b in zip(rg, rb))
            for rg, rb in zip(p.gamma.matrix, p.beta.matrix))))
        rep = verify_on_X(other, path)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "pencil mismatch", None)

    def test_segment_without_steps_refused(self):
        # the parser refuses an empty steps list, so only a path built in
        # memory reaches this check
        import dataclasses
        p, path = self.make_path()
        bare = dataclasses.replace(path.segments[0], steps=())
        broken = XPath(p, path.start, path.end, (bare,), path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "segment 0 has no steps", 0)

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

    def test_inverses_only_in_chart_rebuilds(self, monkeypatch):
        # the line charts project by minors; the only matrix inverses of a
        # replay are chart_from_descriptor's, one per distinct step matrix
        # of each segment, counted as TestChartCache counts them
        import sys
        import quadcyl.projective as projective
        pencil, path = TestConnectOnX().connect_pair(1)
        callers = []
        real = projective.mat_inverse

        def counting(m):
            callers.append(sys._getframe(2).f_code.co_name)
            return real(m)
        monkeypatch.setattr(projective, "mat_inverse", counting)
        assert verify_on_X(pencil, path).valid
        distinct = sum(len({tuple(map(tuple, st.chart["matrix"]))
                            for st in seg.steps}) for seg in path.segments)
        assert distinct >= 1
        assert callers == ["chart_from_descriptor"] * distinct

    def test_endpoint_off_intersection(self):
        p, path = self.make_path()
        broken = XPath(p, proj((1, 1, 1, 1, 1, 1)), path.end, path.segments,
                       path.tower)
        rep = verify_on_X(p, broken)
        assert not rep.valid
        assert rep.reason == "start point is not on the intersection"

    def test_end_off_intersection(self):
        p, path = self.make_path()
        broken = XPath(p, path.start, proj((1, 1, 1, 1, 1, 1)),
                       path.segments, path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "end point is not on the intersection", None)

    def test_start_reported_before_broken_segment(self):
        # segment 0's line is corrupt too, but the start's check, which a
        # successful replay makes redundant, still comes first
        import dataclasses
        p, path = self.make_path()
        seg = path.segments[0]
        bad_line = Line(seg.line.v1, tuple(scalar(c) for c in e(1)))
        bad_seg = dataclasses.replace(seg, line=bad_line)
        broken = XPath(p, path.start, path.end, (bad_seg,), path.tower)
        assert verify_on_X(p, broken).reason.startswith(
            "bad line at segment 0")
        broken = XPath(p, proj((1, 1, 1, 1, 1, 1)), path.end, (bad_seg,),
                       path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "start point is not on the intersection", None)

    def test_empty_path_off_intersection(self):
        p, path = self.make_path()
        off = proj((1, 1, 1, 1, 1, 1))
        rep = verify_on_X(p, XPath(p, off, off, (), path.tower))
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "start point is not on the intersection", None)

    @staticmethod
    def count_calls(monkeypatch):
        """The points LineChart.inverse and Pencil.on_intersection are
        called with, in order, under their names, and those a line chart's
        image form is evaluated at, under "image"."""
        calls = []
        for cls, name in ((pencils.LineChart, "inverse"),
                          (Pencil, "on_intersection")):
            def counting(self, x, real=getattr(cls, name), name=name):
                calls.append((name, x))
                return real(self, x)
            monkeypatch.setattr(cls, name, counting)
        images = []
        real_init, real_call = pencils.LineChart.__init__, QuadForm.__call__

        def init(chart, *args):
            real_init(chart, *args)
            images.append(chart.image)

        def call(form, x):
            if any(form is im for im in images):
                calls.append(("image", x))
            return real_call(form, x)
        monkeypatch.setattr(pencils.LineChart, "__init__", init)
        monkeypatch.setattr(QuadForm, "__call__", call)
        return calls

    def test_one_segment_replay_lifts_nothing(self, monkeypatch):
        # the ends are decided from the endpoints: start and end each take
        # one membership test, and no point is lifted back to X; the inner
        # replay's lifts decide the image values, so the image form is
        # never evaluated
        pencil, path = TestConnectOnX().connect_pair(1)
        assert len(path.segments) == 1
        calls = self.count_calls(monkeypatch)
        assert verify_on_X(pencil, path).valid
        assert calls == [("on_intersection", path.start),
                         ("on_intersection", path.end)]

    @staticmethod
    def two_segment_path():
        # the frozen ci-deep pair s910-p2, whose certificate has two
        # segments
        p = hexagonal_pencil()
        path = connect_on_X(p, proj((1, 0, -2, 0, F(-1, 2), 0)),
                            proj((1, F(-51, 505), 1, 0, 1, F(51, 505))))
        assert len(path.segments) == 2
        return p, path

    def test_two_segment_replay_lifts_once(self, monkeypatch):
        # only the point at the boundary is lifted, and no image form is
        # evaluated
        p, path = self.two_segment_path()
        calls = self.count_calls(monkeypatch)
        assert verify_on_X(p, path).valid
        assert [name for name, _ in calls] == \
            ["inverse", "on_intersection", "on_intersection"]
        assert [x for _, x in calls[1:]] == [path.start, path.end]

    @staticmethod
    def moved(point, i):
        """point + e_i, in its stored coordinates."""
        return proj(tuple(c + d for c, d in zip(point.coords, e(i))))

    def test_start_moved_along_line(self):
        # start + e0 has the start's projection, but lies off X
        p, path = self.make_path()
        broken = XPath(p, self.moved(path.start, 0), path.end, path.segments,
                       path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "start point is not on the intersection", None)

    def test_end_moved_along_line(self):
        p, path = self.make_path()
        broken = XPath(p, path.start, self.moved(path.end, 0), path.segments,
                       path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "end point is not on the intersection", None)

    @pytest.mark.parametrize("end", [e(0), e(1)])
    def test_end_elsewhere_on_X(self, end):
        # e0 lies on the line, where the projection is zero; e1 is the
        # start, on X, over another image point than the last exit
        p, path = self.make_path()
        broken = XPath(p, path.start, proj(end), path.segments, path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "path does not reach the stated endpoint", 0)

    def test_start_on_degeneracy_quadric(self):
        # e4 lies on X, off the line, but the image quadric
        # (u1^2 - u3 u5)/4 vanishes at its projection, which the inner
        # replay refuses as its start
        p, path = self.make_path()
        broken = XPath(p, proj(e(4)), path.end, path.segments, path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == (
            False, "segment 0 inner certificate: start point lies on the "
            "quadric", 0)

    @pytest.mark.parametrize("exit_p, reason", [
        # on the image quadric (u1^2 - u3 u5)/4
        ((0, 0, 1, 0), "segment 0 inner certificate: end point lies on the "
         "quadric"),
        # of the wrong length: the parser refuses such an exit, so only a
        # path built in memory reaches the inner replay's length check
        ((1, 2, 3), "segment 0 inner certificate: end point has the wrong "
         "length"),
        ((1, 2, 3, 4, 5), "segment 0 inner certificate: end point has the "
         "wrong length"),
    ], ids=["image-quadric", "short", "long"])
    def test_last_exit_refused(self, exit_p, reason):
        import dataclasses
        p, path = self.make_path()
        seg = path.segments[0]
        bad_step = dataclasses.replace(seg.steps[-1], exit=proj(exit_p))
        bad_seg = dataclasses.replace(seg, steps=seg.steps[:-1] + (bad_step,))
        broken = XPath(p, path.start, path.end, (bad_seg,), path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == (False, reason, 0)

    def test_boundary_exit_of_wrong_length(self):
        # the first of two segments ends at an exit of the wrong length:
        # the inner replay refuses it before the boundary lift (the parser
        # refuses such exits)
        import dataclasses
        p, path = self.two_segment_path()
        seg = path.segments[0]
        exit_p = seg.steps[-1].exit
        bad_step = dataclasses.replace(
            seg.steps[-1], exit=proj(exit_p.coords + (scalar(1),)))
        bad_seg = dataclasses.replace(seg, steps=seg.steps[:-1] + (bad_step,))
        broken = XPath(p, path.start, path.end,
                       (bad_seg,) + path.segments[1:], path.tower)
        rep = verify_on_X(p, broken)
        assert (rep.valid, rep.reason, rep.index) == (
            False, "segment 0 inner certificate: end point has the wrong "
            "length", 0)

    def test_image_of_rank_zero_refused(self):
        # on (x0 x1, x0 x2) both pairings of <e3, e4> with every kept e_k
        # vanish, so the image quadric is zero
        b = quadform_from_terms(6, {(0, 1): 1})
        g = quadform_from_terms(6, {(0, 2): 1})
        p = Pencil(b, g)
        line = Line.through(p, e(3), e(4))
        path = XPath(p, proj(e(3)), proj(e(4)),
                     (XSegment(line, ()),), Tower.rationals())
        rep = verify_on_X(p, path)
        assert (rep.valid, rep.reason, rep.index) == (
            False, "bad chart at segment 0: image quadric has rank 0, need "
            "3 or 4", 0)


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

    def test_coverage_is_the_round_trip(self):
        # e0 and e2 span the line, where proj x = 0; e3, e4 and e5 are off
        # it with image(proj x) = 0, where inverse refuses the projection
        p, chart = fixture_chart()
        pts = [e(k) for k in range(6)] + [(3, -1, -1, -2, -1, -1)]
        assert all(p.on_intersection(x) for x in pts)
        assert [covers(chart, x) for x in pts] == \
            [round_trips(chart, x) for x in pts] == \
            [False, True, False, False, False, False, True]
        with pytest.raises(OutOfDomainError, match="on the image quadric"):
            chart.inverse(chart.forward(e(5)))

    def test_pulled_back_image_quadric(self):
        # the split-support line lives over Q(sqrt(-2))
        p = eacx_build([0, 1, 2, 3, 4, 5])
        chart = chart_from_line(p, find_line(p)[0])
        d = chart.image.transform(chart.proj)
        rng = random.Random(6)
        for _ in range(20):
            x = vec(tuple(rng.randint(-5, 5) for _ in range(6)))
            assert d(x) == chart.image(chart.forward(x))


def general_line_charts():
    """(pencil, chart, points of X) for line charts on general lines.  A
    random rational change x = M y carries lines of a pencil to lines of
    the moved pencil, and its points to M^-1 x.  It moves the hexagonal
    pencil's coordinate-pair lines, whose minor D is 1, to lines with
    rational D != 1, and the split-support line of a diagonal pencil to
    one with D != 1 over Q(sqrt(-2)); that line itself has D = 1 and
    entries over Q(sqrt(-2)), and comes along unmoved."""
    rng = random.Random(31)
    while True:
        m = mat([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
                 for _ in range(6)])
        if not det(m).is_zero():
            break
    minv = mat_inverse(m)
    hexp, diag = hexagonal_pencil(), eacx_build([0, 1, 2, 3, 4, 5])
    pts, tw = [], Tower.rationals()
    for _ in range(8):
        x, tw = point_on_intersection(hexp, rng=rng, tower=tw,
                                      predicate=lambda y: y not in pts)
        pts.append(x)
    diag_line = find_line(diag)[0]
    diag_chart = chart_from_line(diag, diag_line)
    out = [(diag, diag_chart, [])]
    for pencil, lines, points in ((hexp, _cheap_lines(hexp, tw)[0], pts),
                                  (diag, [diag_line],
                                   list(diag_chart.points(rng, 8)))):
        moved = Pencil(pencil.beta.transform(m), pencil.gamma.transform(m))
        moved_pts = [proj(mat_vec(minv, x.coords)) for x in points]
        for line in lines:
            moved_line = Line.through(moved, mat_vec(minv, line.v1),
                                      mat_vec(minv, line.v2))
            try:
                chart = chart_from_line(moved, moved_line)
            except RankTooLowError:
                continue
            out.append((moved, chart, moved_pts))
    return out


def completed_basis_projection(chart, x):
    """The projection the long way: the coordinates of x along the kept
    unit vectors in the basis (v1, v2, e_k for k kept), by an inverse."""
    n = chart.pencil.size
    cols = [chart.line.v1, chart.line.v2] + \
        [unit_vec(n, k) for k in chart.kept]
    return mat_vec(mat_inverse(transpose(cols))[2:], x)


class TestGeneralLines:
    """Line charts on lines whose minor D is not 1, against the projection
    through an inverted completed basis."""

    def test_kept_indices_match_greedy_completion(self):
        # greedy completion of (v1, v2) by e_0, e_1, ...: the pivot
        # columns of one row reduction of the columns in that order
        for pencil, chart, _ in general_line_charts():
            n = pencil.size
            vecs = [chart.line.v1, chart.line.v2] + \
                [unit_vec(n, k) for k in range(n)]
            _, pivots = rref(transpose(vecs))
            assert pivots[:2] == [0, 1] and len(pivots) == n
            assert [c - 2 for c in pivots[2:]] == list(chart.kept)

    def test_forward_matches_completed_basis(self):
        rng = random.Random(4)
        charts = general_line_charts()
        minors = [chart.proj[0][chart.kept[0]] for _, chart, _ in charts]
        assert sum(1 for d in minors if d != 1) >= 4
        assert any(d != 1 and d.level > 0 for d in minors)
        for pencil, chart, pts in charts:
            dform = chart.image.transform(chart.proj)
            xs = [z.coords for z in pts]
            xs += [vec(rng.randint(-5, 5) for _ in range(pencil.size))
                   for _ in range(10)]
            for x in xs:
                want = completed_basis_projection(chart, x)
                assert chart.forward(x) == proj(want)
                assert dform(x) == chart.image(chart.forward(x))

    def test_inverse_undoes_forward_on_X(self):
        # on X, a chart covers x exactly where it maps x there and back
        for pencil, chart, pts in general_line_charts():
            pts = pts + list(chart.points(random.Random(2), 8))
            checked = 0
            for x in pts:
                assert pencil.on_intersection(x)
                assert covers(chart, x) == round_trips(chart, x)
                checked += covers(chart, x)
            assert checked >= 6

    def test_segments_on_general_lines_verify(self):
        charts = general_line_charts()
        for pencil, chart, pts in (charts[1], charts[-1]):
            path = connect_on_X(pencil, pts[0], pts[1], lines=[chart.line])
            assert path.segments[0].line == chart.line
            rep = verify_on_X(pencil, path)
            assert rep.valid, rep.reason

    def test_proportional_vectors_refused(self):
        p = hexagonal_pencil()
        with pytest.raises(InputFormatError, match="span a line"):
            chart_from_line(p, Line(vec(e(0)), vec((3, 0, 0, 0, 0, 0))))
        with pytest.raises(InputFormatError, match="span a line"):
            chart_from_line(p, Line(vec(e(0)), vec((0,) * 6)))


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
        assert all(c.level == 0 for x in found for c in x.coords)

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

    @pytest.mark.xfail(strict=True, raises=ZeroDivisorError,
                       reason="ROADMAP item 3 step 2: a random line adjoins "
                       "a nested radicand that already has a square root "
                       "one level down, and the connect divides by a hidden "
                       "zero")
    def test_connect_between_rational_points(self):
        # the M^-1 images of two rational points of the hexagonal
        # intersection, drawn one after the other from Random(12) by
        # bench/workloads.py's rational_pencil_point
        p = hexagonal_under_m()
        a = proj(tuple(F(n, 38) for n in (-7, 235, -165, 127, 139, -63)))
        b = proj((-27, 22, -31, 34, -43, 45))
        assert p.on_intersection(a) and p.on_intersection(b)
        xp = connect_on_X(p, a, b, rng=random.Random(0))
        assert verify_on_X(p, xp).valid


class TestCheapLinesOracle:
    """`_cheap_lines` reads the coordinate lines off six matrix entries;
    span_in_X on every coordinate pair is its oracle.  Random pencils on
    6 to 8 coordinates get zeros planted at (i, i), (j, j) and (i, j),
    sometimes at only some of the three, and some are made diagonal."""

    @staticmethod
    def planted(rng, n, entry):
        mats = [[[entry() for _ in range(n)] for _ in range(n)]
                for _ in range(2)]
        diagonal = rng.random() < 0.4
        # a planted zero on the diagonal mostly kills the split-support
        # line, so diagonal pencils get fewer
        for _ in range(rng.randint(0 if diagonal else 1, 4)):
            i, j = sorted(rng.sample(range(n), 2))
            spots = [(i, i), (j, j), (i, j)]
            for rows in mats:
                keep = spots if rng.random() < 0.6 else \
                    rng.sample(spots, rng.randint(1, 2))
                for a, b in keep:
                    rows[a][b] = 0
        for rows in mats:
            for a in range(n):
                for b in range(a + 1, n):
                    rows[b][a] = 0 if diagonal else rows[a][b]
                    rows[a][b] = rows[b][a]
        return Pencil(QuadForm(mats[0]), QuadForm(mats[1]))

    def test_matches_span_oracle(self):
        rng = random.Random(22)
        root2 = Tower.rationals().extend(2)
        s2 = root2.generator(1)
        fields = (
            (Tower.rationals(),
             lambda: F(rng.randint(-3, 3), rng.randint(1, 3))),
            (root2,
             lambda: rng.randint(-2, 2) + rng.randint(-2, 2) * s2))
        found = diagonal_found = 0
        for k in range(80):
            tower, entry = fields[k % 2]
            p = self.planted(rng, rng.randint(6, 8), entry)
            n = p.size
            want = [Line(unit_vec(n, i), unit_vec(n, j))
                    for i in range(n) for j in range(i + 1, n)
                    if span_in_X(p, [unit_vec(n, i), unit_vec(n, j)])]
            want_tower = tower
            if _is_diagonal(p):
                line, want_tower = pencils._diagonal_line(p, tower)
                if line is not None:
                    want.append(line)
                    diagonal_found += 1
            got, got_tower = _cheap_lines(p, tower)
            assert got == want
            assert got_tower.radicands() == want_tower.radicands()
            found += len(got)
        assert found >= 30 and diagonal_found >= 3


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
