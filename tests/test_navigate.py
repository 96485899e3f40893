"""Connectivity and certificate replay.

The rescale fixtures are frozen by hand:
  four coordinates, start (1:4:0:0), ratio root 2: the gadget must end at
  (1:1:0:0) and its first stop must look like (1:t:root:0);
  three coordinates, start (1:0:1), target z 4 (both roots of the fibers
  rational, so the three-move route): the first move lands on (1:-3:2)
  and the middle parameter comes out 1/6;
  three coordinates, (1:2:0) to (1:8:0): k = 2 and s = 1/2, two moves at
  height 0, the first landing on (1:4:2);
  three coordinates, (1:1:0) to (3:4:0): the guard finds s in Q(k), so
  the header is exactly ["4/3"].
"""

import dataclasses
import json
import math
import os
import random
from fractions import Fraction as F

import pytest

from quadcyl.errors import (
    EndpointError,
    InputFormatError,
    OutOfDomainError,
    SingularPointError,
    TowerError,
)
from quadcyl.charts import (
    Chart,
    build_complement_charts,
    chart_from_descriptor,
    hyperbolic_target,
)
from quadcyl.navigate import (
    MovePath,
    MoveStep,
    _Trail,
    connect_complement,
    connect_on_quadric,
    verify_path,
)
from quadcyl.projective import ProjPoint, QuadForm, proj, quadform_from_terms
from quadcyl.serialize import dumps, loads, path_from_obj, path_to_obj
from quadcyl.tower import Tower, scalar, try_sqrt


def complement_setup(n, pairs, z):
    q = hyperbolic_target(n, pairs, z)
    bundle, tw = build_complement_charts(q, Tower.rationals())
    return q, bundle, tw


class TestRescaleFixtures:
    def test_pair_rescale_frozen(self):
        # start (1:4:0:0) and end (1:1:0:0) differ by fiber 4 vs 1
        q, bundle, tw = complement_setup(4, 2, False)
        p, target = proj([1, 4, 0, 0]), proj([1, 1, 0, 0])
        path = connect_complement(q, p, target, tower=tw, bundle=bundle)
        assert path.steps[0].entry == p
        assert path.steps[-1].exit == target
        assert len(path.steps) == 3
        first = path.steps[0].exit
        # shape (1 : t : root : 0) with root^2 = 4
        c = first.canonical_coords()
        assert c[0] == 1 and c[1] == 4 and c[3].is_zero()
        assert c[2] * c[2] == 4
        assert c[2] == 2
        rep = verify_path(q, path)
        assert rep.valid, rep.reason

    def test_pair_rescale_middle_point(self):
        q, bundle, tw = complement_setup(4, 2, False)
        path = connect_complement(
            q, proj([1, 4, 0, 0]), proj([1, 1, 0, 0]), tower=tw, bundle=bundle)
        assert path.steps[1].exit == proj([1, 2, 1, -1])

    def test_axis_rescale_frozen(self):
        # three coordinates, fibers 1 and 16
        q, bundle, tw = complement_setup(3, 1, True)
        p, target = proj([1, 0, 1]), proj([1, 0, 4])
        path = connect_complement(q, p, target, tower=tw, bundle=bundle)
        assert len(path.steps) == 3
        assert path.steps[0].exit == proj([1, -3, 2])
        # middle move parameter: the new z value in the second chart
        step2 = path.steps[1]
        assert step2.target[-1] == scalar(F(1, 6))
        assert path.steps[-1].exit == target
        rep = verify_path(q, path)
        assert rep.valid, rep.reason

    def test_axis_rescale_adjoins_when_needed(self):
        q, bundle, tw = complement_setup(3, 1, True)
        p, target = proj([1, 0, 1]), proj([1, 2, 1])  # fibers 1 and 3
        path = connect_complement(q, p, target, tower=tw, bundle=bundle)
        rep = verify_path(q, path)
        assert rep.valid, rep.reason
        assert path.tower.height >= 1

    def test_axis_rescale_tests_each_sign_once(self, monkeypatch):
        # fibers 1 and 9/8: the gadget tests sqrt(t_p), sqrt(t_q) and k,
        # all but the first missing, so the guard runs and tests u^2 = 1/9
        # and both signs of x^2 = (1 -+ 1/3)/2, then k and s's radicand are
        # adjoined without a retest; fibers 1 and 4 keep the three-move
        # route, which tests both signs of c^2 = (1 -+ 3/2)/9 and adjoins
        # the minus sign's root
        import quadcyl.navigate as nav
        import quadcyl.tower as tower_mod
        tests = []
        for mod in (nav, tower_mod):
            def counted(tower, value, _real=mod.sqrt_if_present):
                tests.append(value)
                return _real(tower, value)
            monkeypatch.setattr(mod, "sqrt_if_present", counted)
        gadget, runs = nav._rescale_axis, []

        def axis(*args):
            del tests[:]
            trail, tower = gadget(*args)
            runs.append((len(tests), tower.height - args[-1].height))
            return trail, tower
        monkeypatch.setattr(nav, "_rescale_axis", axis)
        q, bundle, tw = complement_setup(3, 1, True)
        for p, r, run in (([1, 1, 0], [8, 9, 0], (6, 2)),
                          ([1, 0, 1], [1, 0, 2], (4, 1))):
            del runs[:]
            path = connect_complement(q, proj(p), proj(r),
                                      tower=tw, bundle=bundle)
            assert runs == [run], (p, r)
            assert verify_path(q, path).valid

    def test_axis_rescale_two_moves_frozen(self):
        # fibers 2 and 8: k = 2 and s = 1/2, so no radicand is paid, and
        # the V_1 move lands on (1/2 - 1/4 : 1 : 1/2) = (1:4:2)
        q, bundle, tw = complement_setup(3, 1, True)
        p, r = proj([1, 2, 0]), proj([1, 8, 0])
        path = connect_complement(q, p, r, tower=tw, bundle=bundle)
        assert len(path.steps) == 2 and path.tower.height == 0
        assert path.steps[0].exit == proj([1, 4, 2])
        assert path.steps[-1].exit == r
        rep = verify_path(q, path)
        assert rep.valid, rep.reason

    def test_axis_rescale_guard_pays_k_only(self):
        # fibers 1 and 4/3: s^2 = 1 - (3/4)k with k^2 = 4/3 is the square
        # of 1/2 - (3/4)k, which the guard finds (u = 1/2, x = 1/2), so the
        # header holds k's radicand alone
        q, bundle, tw = complement_setup(3, 1, True)
        path = connect_complement(q, proj([1, 1, 0]), proj([3, 4, 0]),
                                  tower=tw, bundle=bundle)
        assert len(path.steps) == 2
        obj = loads(dumps(path_to_obj(path)))
        assert obj["radicands"] == ["4/3"]
        back = path_from_obj(obj)
        rep = verify_path(q, back)
        assert rep.valid, rep.reason
        assert rep.radicand_count == 1


DEEP_FIXTURES = os.path.join(os.path.dirname(__file__), "..", "bench",
                             "fixtures", "ci_deep.json")


def _frozen_deep_pair(ident):
    """(start, end) of a frozen ci-deep pair, on the hexagonal pencil, over
    its own tower: "p/q" is a rational, [k, a, b] is a + b*sqrt(d_k)."""
    with open(DEEP_FIXTURES, encoding="utf-8") as fh:
        pair = next(p for p in json.load(fh)["pairs"] if p["id"] == ident)

    def decode(obj, tower):
        if isinstance(obj, str):
            return scalar(F(obj))
        level, a, b = obj
        return decode(a, tower) + decode(b, tower) * tower.generator(level)
    tower = Tower.rationals()
    for r in pair["radicands"]:
        tower = tower.extend(decode(r, tower))
    return [ProjPoint([decode(c, tower) for c in pair[end]])
            for end in ("from", "to")]


class TestRescaleClosedForm:
    """The rank-3 gadget records its two-move route, and the pair gadget
    its three moves, from their closed form; _Trail.move, replayed on each
    recorded step, must record the same."""

    @staticmethod
    def spy(monkeypatch, name="_rescale_axis"):
        """The (bundle, cp, cq, trail, points read by Chart.forward) of
        every run of the named gadget from now on."""
        import quadcyl.navigate as nav
        runs = []
        gadget, forward = getattr(nav, name), Chart.forward

        def spied(bundle, cp, cq, tower):
            read = []

            def counting(chart, p):
                read.append(p)
                return forward(chart, p)
            monkeypatch.setattr(Chart, "forward", counting)
            trail, tower = gadget(bundle, cp, cq, tower)
            monkeypatch.setattr(Chart, "forward", forward)
            runs.append((bundle, cp, cq, trail, read))
            return trail, tower
        monkeypatch.setattr(nav, name, spied)
        return runs

    def check(self, runs):
        """Check every run; returns how many took the two-move route."""
        two = 0
        for bundle, cp, cq, trail, read in runs:
            for chart, step, entry_tv in trail.recs:
                fresh = _Trail()
                fresh.move(chart, step.entry, step.target)
                (chart2, step2, entry_tv2), = fresh.recs
                assert chart2 is chart
                assert step2.entry.coords == step.entry.coords
                assert step2.target == step.target
                assert step2.exit.coords == step.exit.coords
                assert entry_tv2 == entry_tv
            if bundle.v_charts and trail.recs[0][0] is bundle.v_charts[0]:
                # forward reads the two fibers and nothing else
                two += 1
                assert len(trail.recs) == 2
                assert len(read) == 2 and read[0] is cq and read[1] is cp
        return two

    def test_grid_rank3_sample(self, monkeypatch):
        # the seeded grid sample's rank-3 pairs, cones included, all on
        # the two-move route; fibers 6 and 24, where k = 2 and of s^2 =
        # 1/6 -+ 1/12 only the plus sign's is a square, so the U_1 entry
        # block takes e = -1; then the frozen three-move fixtures: each
        # step as _Trail.move records it
        runs = self.spy(monkeypatch)
        rng = random.Random(25)
        pairs = []
        for size in range(3, 9):
            q = hyperbolic_target(size, 1, True)
            pairs += [(q, _random_off_quadric(q, rng),
                       _random_off_quadric(q, rng)) for _ in range(15)]
        q = hyperbolic_target(3, 1, True)
        pairs.append((q, proj([1, 6, 0]), proj([1, 24, 0])))
        pairs += [(q, proj([1, 0, 1]), proj(r)) for r in ([1, 0, 4],
                                                          [1, 0, 2])]
        for q, p, r in pairs:
            assert verify_path(q, connect_complement(q, p, r)).valid
        assert len(runs) == len(pairs)
        assert self.check(runs) == len(runs) - 2

    @pytest.mark.parametrize("ident", ["s910-p0", "s910-p7", "s911-p9"])
    def test_frozen_deep_pairs(self, monkeypatch, ident):
        # a frozen ci-deep pair, over its nested tower: the image quadric
        # has rank 3 and the gadget takes the two-move route
        from quadcyl.pencils import Pencil, connect_on_X, verify_on_X
        pencil = Pencil(
            quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1}),
            quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1}))
        runs = self.spy(monkeypatch)
        p, r = _frozen_deep_pair(ident)
        path = connect_on_X(pencil, p, r, rng=random.Random(0))
        assert verify_on_X(pencil, path).valid
        assert self.check(runs) == len(runs) >= 1

    def test_pair_rescale(self, monkeypatch):
        # every grid shape past rank 3, then the frozen ci-deep pairs
        # s909-p3 and s910-p8, whose segments take a rank-4 line: three
        # steps, each as _Trail.move records it, and forward reads the
        # two fibers and nothing else
        from quadcyl.pencils import Pencil, connect_on_X, verify_on_X
        runs = self.spy(monkeypatch, "_rescale_pairs")
        rng = random.Random(31)
        for size in range(4, 9):
            for rank in range(4, size + 1):
                q = hyperbolic_target(size, rank // 2, bool(rank % 2))
                for _ in range(3):
                    p, r = _random_off_quadric(q, rng), \
                        _random_off_quadric(q, rng)
                    assert verify_path(q, connect_complement(q, p, r)).valid
        pencil = Pencil(
            quadform_from_terms(6, {(0, 1): 1, (2, 3): 1, (4, 5): 1}),
            quadform_from_terms(6, {(0, 5): 1, (1, 2): 1, (3, 4): 1}))
        for ident in ("s909-p3", "s910-p8"):
            count = len(runs)
            path = connect_on_X(pencil, *_frozen_deep_pair(ident),
                                rng=random.Random(0))
            assert verify_on_X(pencil, path).valid
            assert len(runs) == count + 1
        assert self.check(runs) == 0 and len(runs) > 30
        for bundle, cp, cq, trail, read in runs:
            assert [chart for chart, _, _ in trail.recs] == \
                [bundle.u_charts[0], bundle.u_charts[1], bundle.u_charts[0]]
            assert len(read) == 2 and read[0] is cq and read[1] is cp


class TestConnectComplement:
    def test_same_point_gives_empty_path(self):
        q, bundle, tw = complement_setup(4, 2, False)
        p = proj([1, 7, 0, 2])
        path = connect_complement(q, p, proj([2, 14, 0, 4]),
                                  tower=tw, bundle=bundle)
        assert path.steps == ()
        assert verify_path(q, path).valid

    def test_shared_fiber_single_move(self):
        q, bundle, tw = complement_setup(4, 2, False)
        p = proj([1, 7, 0, 0])
        r = proj([1, 5, 1, 2])  # fiber in the first chart: 5 + 2 = 7
        path = connect_complement(q, p, r, tower=tw, bundle=bundle)
        assert len(path.steps) == 1
        assert verify_path(q, path).valid

    @pytest.mark.parametrize("which", ["v1", "w"])
    def test_shortcut_joins_rank3_fibers(self, which):
        # seeded pairs on one fiber of V_1 or of W at rank 3 take one step
        # and no radicand; canonicalization and the rank-3 gadget would
        # take about three steps and pay radicands on many of them
        q, bundle, tw = complement_setup(3, 1, True)
        chart = bundle.v_charts[0] if which == "v1" else bundle.w_chart
        rng = random.Random(30)
        joined = 0
        while joined < 10:
            p = _random_off_quadric(q, rng)
            try:
                t, _ = chart.forward(p)
            except OutOfDomainError:
                continue
            r = chart.backward(t, [rng.randint(-9, 9) for _ in chart.trans])
            if r == p:
                continue
            path = connect_complement(q, p, r, tower=tw, bundle=bundle)
            assert (len(path.steps), path.tower.height) == (1, 0)
            assert verify_path(q, path).valid
            joined += 1

    def test_shortcut_lifts_nothing(self, monkeypatch):
        # the single-move shortcut reads each chart's distinguished
        # coordinate and the endpoints' form values: no Chart.lift runs
        # before canonicalization, whose moves lift as before
        import quadcyl.navigate as navigate
        from quadcyl.charts import Chart
        lifts, at_canon = [], []
        real_lift, real_canon = Chart.lift, navigate._canonicalize_complement

        def counting_lift(chart, p):
            lifts.append(p)
            return real_lift(chart, p)

        def canon(bundle, p):
            at_canon.append(len(lifts))
            return real_canon(bundle, p)
        monkeypatch.setattr(Chart, "lift", counting_lift)
        monkeypatch.setattr(navigate, "_canonicalize_complement", canon)
        rng = random.Random(28)
        for n, pairs, z in ((3, 1, True), (4, 2, False), (5, 2, True)):
            q, bundle, tw = complement_setup(n, pairs, z)
            for _ in range(3):
                p, r = _random_off_quadric(q, rng), _random_off_quadric(q, rng)
                del lifts[:], at_canon[:]
                path = connect_complement(q, p, r, tower=tw, bundle=bundle)
                assert at_canon[:1] == [0] and lifts
                assert verify_path(q, path).valid

    def test_endpoint_on_quadric_rejected(self):
        q, bundle, tw = complement_setup(4, 2, False)
        with pytest.raises(EndpointError):
            connect_complement(q, proj([1, 0, 0, 0]), proj([1, 1, 0, 0]),
                               tower=tw, bundle=bundle)

    def test_awkward_entry_positions(self):
        # points with a vanishing first pair force relocation moves
        q, bundle, tw = complement_setup(5, 2, True)
        cases = [
            (proj([0, 0, 1, 3, 0]), proj([1, 1, 0, 0, 0])),
            (proj([0, 0, 0, 0, 1]), proj([1, 5, 0, 0, 0])),  # axis point
            (proj([0, 3, 0, 0, 2]), proj([0, 0, 0, 3, 1])),
        ]
        for p, r in cases:
            path = connect_complement(q, p, r, tower=tw, bundle=bundle)
            rep = verify_path(q, path)
            assert rep.valid, (p, r, rep.reason)
            assert len(path.steps) <= 12

    def test_degenerate_form_with_vertex(self):
        # rank 3 on four coordinates: the last coordinate is radical
        q = quadform_from_terms(4, {(0, 1): 1, (2, 2): 1})
        p, r = proj([1, 1, 0, 5]), proj([0, 0, 1, 1])
        path = connect_complement(q, p, r)
        rep = verify_path(q, path)
        assert rep.valid, rep.reason

    def test_random_grid_verified(self):
        rng = random.Random(99)
        for n in range(2, 6):
            for r in range(3, n + 2):
                q, bundle, tw = None, None, None
                terms = {}
                m, z = r // 2, r % 2
                for i in range(m):
                    terms[(2 * i, 2 * i + 1)] = 1
                if z:
                    terms[(2 * m, 2 * m)] = 1
                q = quadform_from_terms(n + 1, terms)
                bundle, tw = build_complement_charts(q, Tower.rationals())
                for _ in range(3):
                    p = _random_off_quadric(q, rng)
                    s = _random_off_quadric(q, rng)
                    path = connect_complement(q, p, s, tower=tw, bundle=bundle)
                    rep = verify_path(q, path)
                    assert rep.valid, (n, r, rep.reason)
                    assert len(path.steps) <= 12


    def test_grid_forms_pay_the_square_class_bound(self):
        # a fiber move over K keeps the class of q(x) in K*/K*^2, so p and r
        # need a radicand exactly when q(p)/q(r) is not a rational square;
        # past rank 3 the connection pays that bound and no more
        rng = random.Random(25)
        paid = set()
        for size in range(3, 9):
            for rank in range(3, size + 1):
                q = hyperbolic_target(size, rank // 2, bool(rank % 2))
                for _ in range(4):
                    p, r = _random_off_quadric(q, rng), \
                        _random_off_quadric(q, rng)
                    path = connect_complement(q, p, r)
                    assert verify_path(q, path).valid
                    h = path.tower.height
                    if rank == 3:
                        # the axis route pays k = sqrt(t_q/t_p) and s at
                        # most (ROADMAP item 1 step 2)
                        assert h <= 2
                        continue
                    ratio = q(p).rat / q(r).rat
                    square = ratio > 0 and all(
                        math.isqrt(n) ** 2 == n
                        for n in (ratio.numerator, ratio.denominator))
                    assert h == (0 if square else 1), (size, rank, p, r)
                    paid.add(h)
        assert paid == {0, 1}

    def test_rank3_headers_are_fields(self):
        # an independent oracle (ROADMAP aim 3): over the seeded grid
        # sample's rank-3 pairs, each header's field Q(sqrt(d_1), ...,
        # sqrt(d_h)) has degree 2^h, read off the minimal polynomial of
        # the primitive element sum i*sqrt(d_i); a radicand that is
        # already a square there, as s's can be over Q(k), lowers it
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def value(obj, roots):
            if isinstance(obj, str):
                return sympy.Rational(obj)
            return value(obj["a"], roots) \
                + value(obj["b"], roots) * roots[obj["level"] - 1]
        rng = random.Random(25)
        seen = 0
        for size in range(3, 9):
            for rank in range(3, size + 1):
                q = hyperbolic_target(size, rank // 2, bool(rank % 2))
                for _ in range(15):
                    p, r = _random_off_quadric(q, rng), \
                        _random_off_quadric(q, rng)
                    if rank != 3:
                        continue
                    rads = path_to_obj(connect_complement(q, p, r))[
                        "radicands"]
                    roots = []
                    for rad in rads:
                        roots.append(sympy.sqrt(value(rad, roots)))
                    prim = sum((i + 1) * w for i, w in enumerate(roots))
                    poly = sympy.minimal_polynomial(prim, x, compose=False)
                    assert sympy.degree(poly, x) == 2 ** len(rads), \
                        (p, r, rads)
                    seen += 1
        assert seen == 90

    def test_bundle_carries_its_tower(self):
        # the frames of sums of squares need sqrt(-1); a bundle passed
        # without its tower must still connect
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        bundle, tw = build_complement_charts(q, Tower.rationals())
        assert tw.height >= 1 and bundle.tower is tw
        path = connect_complement(q, proj([1, 2, 3]), proj([2, -1, 5]),
                                  bundle=bundle)
        rep = verify_path(q, path)
        assert rep.valid, rep.reason
        q = quadform_from_terms(4, {(i, i): 1 for i in range(4)})
        bundle, _ = build_complement_charts(q, Tower.rationals())
        rng = random.Random(7)
        for _ in range(20):
            a, b = _random_off_quadric(q, rng), _random_off_quadric(q, rng)
            rep = verify_path(q, connect_complement(q, a, b, bundle=bundle))
            assert rep.valid, (a, b, rep.reason)

    def test_bundle_and_tower_on_one_chain(self):
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        bundle, tw = build_complement_charts(q, Tower.rationals())
        p, r = proj([1, 2, 3]), proj([2, -1, 5])
        deeper = tw.extend(scalar(2))
        path = connect_complement(q, p, r, tower=deeper, bundle=bundle)
        assert path.tower.floor(deeper.height) is deeper
        assert verify_path(q, path).valid
        other = Tower.rationals().extend(scalar(3))
        with pytest.raises(TowerError):
            connect_complement(q, p, r, tower=other, bundle=bundle)

    def test_bundle_of_another_form_refused(self):
        q = hyperbolic_target(4, 2, False)
        other = quadform_from_terms(4, {(0, 1): 1, (2, 3): 2})
        bundle, tw = build_complement_charts(other, Tower.rationals())
        with pytest.raises(InputFormatError, match="another form"):
            connect_complement(q, proj([1, 4, 0, 0]), proj([1, 1, 1, 1]),
                               tower=tw, bundle=bundle)


def _random_off_quadric(q, rng):
    while True:
        c = [rng.randint(-9, 9) for _ in range(q.size)]
        if any(c):
            p = proj(c)
            if not q(p).is_zero():
                return p


class TestConnectOnQuadric:
    def test_single_jump(self):
        q = hyperbolic_target(4, 2, False)
        p = proj([1, 0, 0, 0])
        r = proj([0, 0, 1, 0])
        path = connect_on_quadric(q, p, r, rng=random.Random(1))
        rep = verify_path(q, path)
        assert rep.valid, rep.reason
        assert path.problem == "quadric"

    def test_rejects_bad_endpoints(self):
        q = hyperbolic_target(4, 2, False)
        with pytest.raises(EndpointError):
            connect_on_quadric(q, proj([1, 1, 0, 0]), proj([1, 0, 0, 0]))
        sing = quadform_from_terms(4, {(0, 1): 1, (2, 2): 1})
        with pytest.raises(SingularPointError):
            connect_on_quadric(sing, proj([0, 0, 0, 1]), proj([1, 0, 0, 0]))

    def test_random_pairs(self):
        rng = random.Random(5)
        q = hyperbolic_target(5, 2, True)
        from quadcyl.projective import point_on_quadric
        tw = Tower.rationals()
        for _ in range(5):
            p, tw = point_on_quadric(q, rng=rng, tower=tw,
                                     predicate=lambda x: q.is_smooth_at(x))
            r, tw = point_on_quadric(q, rng=rng, tower=tw,
                                     predicate=lambda x: q.is_smooth_at(x))
            path = connect_on_quadric(q, p, r, tower=tw,
                                      rng=random.Random(rng.randint(0, 99)))
            rep = verify_path(q, path)
            assert rep.valid, rep.reason

    def test_grid_forms_pay_no_radicand(self):
        # seeded rational smooth points (x0 != 0, x1 solved) on every
        # hyperbolic_target form of the acceptance grid
        rng = random.Random(9)
        for size in range(3, 9):
            for rank in range(3, size + 1):
                q = hyperbolic_target(size, rank // 2, bool(rank % 2))
                for _ in range(3):
                    ends = []
                    for _ in range(2):
                        x = [F(rng.randint(-9, 9)) for _ in range(size)]
                        x[0], x[1] = F(rng.choice([-3, -1, 1, 2])), F(0)
                        x[1] = -q(proj(x)).rat / x[0]
                        ends.append(proj(x))
                    path = connect_on_quadric(
                        q, *ends, rng=random.Random(rng.randint(0, 99)))
                    assert path.tower.height == 0
                    assert verify_path(q, path).valid


def _scaled_steps(steps, rng):
    """The steps with every entry and exit scaled by its own nonzero
    rational, so no two written representatives agree."""
    def scale(p):
        c = scalar(F(rng.choice((-3, -2, 2, 3, 5)), rng.randint(1, 7)))
        return ProjPoint(tuple(c * x for x in p.coords))
    return tuple(dataclasses.replace(s, entry=scale(s.entry),
                                     exit=scale(s.exit)) for s in steps)


class TestCertificateSteps:
    @pytest.mark.parametrize("rank", range(3, 9))
    def test_one_step_per_chart_run(self, rank):
        rng = random.Random(rank)
        for n in range(rank, min(rank + 1, 8) + 1):
            q = hyperbolic_target(n, rank // 2, rank % 2 == 1)
            bundle, tw = build_complement_charts(q, Tower.rationals())
            for _ in range(4):
                p = _random_off_quadric(q, rng)
                r = _random_off_quadric(q, rng)
                path = connect_complement(q, p, r, tower=tw, bundle=bundle)
                assert verify_path(q, path).valid
                for a, b in zip(path.steps, path.steps[1:]):
                    assert a.chart != b.chart, (n, rank, p, r)

    def test_chart_run_merges_and_cancels(self):
        q, bundle, tw = complement_setup(4, 2, False)
        u1 = bundle.u_charts[0]
        p = proj([1, 4, 0, 0])
        trail = _Trail()
        a = trail.move(u1, p, u1.target_from({2: 1}))
        b = trail.move(u1, a, u1.target_from({2: 2, 3: 1}))
        [step] = trail.steps()
        assert step.entry is p and step.exit is b
        assert trail.move(u1, b, u1.target_from({})) == p
        assert trail.steps() == ()

    def test_scaled_step_points_verify(self):
        from quadcyl.serialize import dumps, loads, path_from_obj, \
            path_to_obj
        rng = random.Random(5)
        q = quadform_from_terms(5, {(0, 1): 1, (2, 3): 1, (4, 4): 1})
        for p, r in (([1, 0, 1, 0, 1], [1, 0, 0, 0, 4]),
                     ([0, 0, 1, 3, 0], [1, 2, 0, 1, 3])):
            path = connect_complement(q, proj(p), proj(r))
            scaled = dataclasses.replace(
                path, steps=_scaled_steps(path.steps, rng))
            back = path_from_obj(loads(dumps(path_to_obj(scaled))))
            assert back.steps[0].entry.coords != path.steps[0].entry.coords
            rep = verify_path(q, back)
            assert rep.valid, rep.reason
            assert rep.count == len(path.steps)

    def test_irrationally_scaled_step_points_verify(self):
        # each entry and exit times its own a + b*sqrt(7), a scalar above
        # the path's own tower, which the written header then carries
        from quadcyl.serialize import dumps, loads, path_from_obj, \
            path_to_obj
        rng = random.Random(6)
        q = quadform_from_terms(5, {(0, 1): 1, (2, 3): 1, (4, 4): 1})
        paths = [connect_complement(q, proj(p), proj(r)) for p, r in
                 (([1, 0, 1, 0, 1], [1, 0, 0, 0, 4]),
                  ([0, 0, 1, 3, 0], [1, 2, 0, 1, 3]))]
        paths.append(connect_on_quadric(q, proj([1, 0, 0, 0, 0]),
                                         proj([0, 1, 1, -1, 1])))
        for path in paths:
            root, tw = try_sqrt(path.tower, 7)
            assert root.level == tw.height > path.tower.height

            def scale(p):
                c = rng.choice((-2, 1, 3)) + rng.choice((-1, 1, 2)) * root
                return ProjPoint(tuple(c * x for x in p.coords))
            steps = tuple(dataclasses.replace(s, entry=scale(s.entry),
                                              exit=scale(s.exit))
                          for s in path.steps)
            scaled = dataclasses.replace(path, steps=steps, tower=tw)
            back = path_from_obj(loads(dumps(path_to_obj(scaled))))
            assert all(max(x.level for x in pt.coords) == tw.height
                       for st in back.steps for pt in (st.entry, st.exit))
            rep = verify_path(q, back)
            assert rep.valid, rep.reason
            assert rep.count == len(path.steps)


class TestVerifyRejections:
    def _path(self):
        q, bundle, tw = complement_setup(4, 2, False)
        path = connect_complement(q, proj([1, 4, 0, 0]), proj([1, 1, 0, 0]),
                                  tower=tw, bundle=bundle)
        return q, path

    def test_wrong_form(self):
        q, path = self._path()
        other = hyperbolic_target(4, 1, True)
        rep = verify_path(other, path)
        assert not rep.valid and "mismatch" in rep.reason

    def test_chain_break(self):
        q, path = self._path()
        broken = list(path.steps)
        s = broken[1]
        broken[1] = MoveStep(s.chart, proj([1, 9, 9, 1]), s.target, s.exit)
        bad = MovePath(path.problem, path.form, path.start, path.end,
                       tuple(broken), path.tower)
        rep = verify_path(q, bad)
        assert not rep.valid
        assert "chain break at step 1" in rep.reason

    def test_fiber_change_detected(self):
        q, path = self._path()
        broken = list(path.steps)
        s = broken[-1]
        # claim an exit on a different fiber (2:1:0:0 has fiber 1/2 not 1)
        fake = proj([2, 1, 0, 0])
        broken[-1] = MoveStep(s.chart, s.entry, s.target, fake)
        bad = MovePath(path.problem, path.form, path.start, fake,
                       tuple(broken), path.tower)
        rep = verify_path(q, bad)
        assert not rep.valid
        assert "fiber parameter changed" in rep.reason or \
            "transverse target missed" in rep.reason

    @pytest.mark.parametrize("k", [0, -1])
    def test_target_of_wrong_length(self, k):
        # the target keeps its true prefix and gains a zero: a comparison
        # over zip alone would take the step as met
        q, path = self._path()
        steps = list(path.steps)
        k %= len(steps)
        steps[k] = dataclasses.replace(
            steps[k], target=steps[k].target + (scalar(0),))
        bad = MovePath(path.problem, path.form, path.start, path.end,
                       tuple(steps), path.tower)
        rep = verify_path(q, bad)
        assert (rep.valid, rep.reason, rep.index) == (
            False, "transverse target has the wrong length at step %d" % k, k)

    def test_exit_on_another_fiber_with_matching_target(self):
        # the exit keeps the target but moves to fiber 2t, and carries
        # the scale 3 on its transverse block, so only the fiber test
        # can refuse it
        q, path = self._path()
        k = len(path.steps) - 1
        s = path.steps[k]
        chart = chart_from_descriptor(q, s.chart, False, {})
        t, tv = chart.forward(s.exit)
        assert list(tv) == list(s.target)
        moved = chart.backward(2 * t, s.target)
        fake = ProjPoint(tuple(3 * x for x in moved.coords))
        s_out, _, w_out = chart.lift(fake)
        assert s_out == 3 and list(w_out) == [3 * x for x in s.target]
        bad = MovePath(path.problem, path.form, path.start, fake,
                       path.steps[:k] + (dataclasses.replace(s, exit=fake),),
                       path.tower)
        rep = verify_path(q, bad)
        assert not rep.valid and rep.index == k
        assert rep.reason == "fiber parameter changed at step %d" % k

    def test_corrupt_chart_matrix(self):
        q, path = self._path()
        broken = list(path.steps)
        s = broken[0]
        desc = {k: (v if k != "matrix" else [row[:] for row in v])
                for k, v in s.chart.items()}
        desc["matrix"][0][0] = desc["matrix"][0][0] + 1
        broken[0] = MoveStep(desc, s.entry, s.target, s.exit)
        bad = MovePath(path.problem, path.form, path.start, path.end,
                       tuple(broken), path.tower)
        rep = verify_path(q, bad)
        assert not rep.valid
        assert "step 0" in rep.reason

    def test_endpoint_mismatch(self):
        q, path = self._path()
        bad = MovePath(path.problem, path.form, path.start, proj([1, 7, 0, 0]),
                       path.steps, path.tower)
        rep = verify_path(q, bad)
        assert not rep.valid

    def test_problem_kind_mismatch(self):
        q, path = self._path()
        bad = MovePath("quadric", path.form, path.start, path.end,
                       path.steps, path.tower)
        rep = verify_path(q, bad)
        assert not rep.valid

    def test_start_on_the_quadric_with_steps(self):
        # the replay breaks at step 0, and the start's own check, which
        # a successful replay makes redundant, still comes first
        q, path = self._path()
        bad = MovePath(path.problem, path.form, proj([1, 0, 0, 0]),
                       path.end, path.steps, path.tower)
        rep = verify_path(q, bad)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "start point lies on the quadric", None)

    def test_end_off_the_quadric_with_steps(self):
        q = hyperbolic_target(4, 2, False)
        path = connect_on_quadric(q, proj([1, 0, 0, 0]), proj([0, 0, 1, 0]),
                                  rng=random.Random(1))
        assert path.steps and verify_path(q, path).valid
        bad = MovePath(path.problem, path.form, path.start,
                       proj([1, 1, 0, 0]), path.steps, path.tower)
        rep = verify_path(q, bad)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "end point is off the quadric", None)

    def test_empty_path_on_the_quadric(self):
        # no replay proves anything about a zero-step path's point
        q, path = self._path()
        pt = proj([0, 1, 0, 0])
        bad = MovePath("complement", q, pt, pt, (), path.tower)
        rep = verify_path(q, bad)
        assert (rep.valid, rep.reason, rep.index) == \
            (False, "start point lies on the quadric", None)

    def test_valid_replay_skips_endpoint_forms(self, monkeypatch):
        # step 0's entry lift decides q(start) and the last exit's lift
        # q(end), so a valid replay never evaluates the form at either
        q, path = self._path()
        evaluated = []
        real = QuadForm.__call__

        def counting(form, x):
            evaluated.append(x)
            return real(form, x)
        monkeypatch.setattr(QuadForm, "__call__", counting)
        assert verify_path(q, path).valid
        assert not any(proj(getattr(x, "coords", x)) == pt
                       for x in evaluated for pt in (path.start, path.end))


class TestChartCache:
    def test_one_inverse_per_matrix(self, monkeypatch):
        # the axis gadget (1:0:1) -> (1:0:4) moves in u1, v1, u1: two
        # charts on one matrix, which a replay inverts once
        import quadcyl.projective as projective
        q = hyperbolic_target(3, 1, True)
        path = connect_complement(q, proj([1, 0, 1]), proj([1, 0, 4]))
        assert [(s.chart["dist"], s.chart["dep"]) for s in path.steps] == \
            [(0, 1), (1, 0), (0, 1)]
        inverted = []
        real = projective.mat_inverse

        def counting(m):
            inverted.append(m)
            return real(m)
        monkeypatch.setattr(projective, "mat_inverse", counting)
        assert verify_path(q, path).valid
        assert len(inverted) == 1

    def test_one_product_per_point_and_matrix(self, monkeypatch):
        # the u1, v1, u1 steps share one matrix, and each step's exit is
        # the next step's entry: four distinct points, so four products
        # of F^-1 for six lifts
        import sys
        import quadcyl.projective as projective
        q = hyperbolic_target(3, 1, True)
        path = connect_complement(q, proj([1, 0, 1]), proj([1, 0, 4]))
        assert len(path.steps) == 3
        products = []
        real = projective.mat_vec

        def counting(m, v):
            if sys._getframe(1).f_code.co_name == "from_ambient":
                products.append(v)
            return real(m, v)
        monkeypatch.setattr(projective, "mat_vec", counting)
        assert verify_path(q, path).valid
        assert len(products) == 4

    @pytest.mark.parametrize("n, pairs, z, p, r, count", [
        # rank 3, two moves: p, r and their canonical points, one product
        # each; the closed-form steps read no point
        (3, 1, True, [1, 1, 1], [2, 1, 3], 4),
        # rank 3, three moves: the four points above and two exits
        (3, 1, True, [1, 0, 1], [1, 0, 4], 6),
        # two pairs: p and r are canonical, so p is read again when the
        # gadget reads its fiber after r's; the closed-form steps read no
        # point
        (4, 2, False, [1, 4, 0, 0], [1, 1, 0, 0], 3),
    ])
    def test_connect_reads_each_point_once(self, monkeypatch, n, pairs, z,
                                           p, r, count):
        # the gadgets read the start's fiber last, so their first move
        # from it finds it in from_ambient's one-slot memo
        import sys
        import quadcyl.projective as projective
        q = hyperbolic_target(n, pairs, z)
        bundle, _ = build_complement_charts(q, Tower.rationals())
        products = []
        real = projective.mat_vec

        def counting(m, v):
            if sys._getframe(1).f_code.co_name == "from_ambient":
                products.append(v)
            return real(m, v)
        monkeypatch.setattr(projective, "mat_vec", counting)
        path = connect_complement(q, proj(p), proj(r), bundle=bundle)
        assert len(products) == count
        assert verify_path(q, path).valid

    def test_shared_cache_tells_radicands_apart(self):
        # x^2 + y^2 + z^2 needs sqrt(-1) in its chart matrices; reading the
        # same certificate with sqrt(-2) at level 1 changes every level-1
        # scalar, and a shared cache must not hand it the first charts
        from quadcyl.serialize import path_from_obj, path_to_obj
        q = quadform_from_terms(3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        path = connect_complement(q, proj([1, 0, 0]), proj([0, 1, 2]))
        obj = path_to_obj(path)
        assert obj["radicands"][0] == "-1/1"
        assert any(isinstance(c, dict)
                   for step in obj["steps"] for c in step["chart"]["matrix"])
        original = path_from_obj(obj)
        obj["radicands"][0] = "-2/1"
        variant = path_from_obj(obj)
        fresh = verify_path(q, variant)
        cache = {}
        assert verify_path(q, original, cache).valid
        assert verify_path(q, variant, cache) == fresh
