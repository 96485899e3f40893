"""Connectivity and certificate replay.

The two rescale fixtures are frozen by hand:
  four coordinates, start (1:4:0:0), ratio root 2: the gadget must end at
  (1:1:0:0) and its first stop must look like (1:t:root:0);
  three coordinates, start (1:0:1), target z 4: the first move lands on
  (1:-3:2) and the middle parameter comes out 1/6.
"""

import random
from fractions import Fraction as F

import pytest

from quadcyl.errors import EndpointError, SingularPointError
from quadcyl.charts import build_complement_charts, hyperbolic_target
from quadcyl.navigate import (
    MovePath,
    MoveStep,
    connect_complement,
    connect_on_quadric,
    verify_path,
)
from quadcyl.projective import ProjPoint, QuadForm, proj, quadform_from_terms
from quadcyl.tower import Tower, scalar


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
        path = connect_on_quadric(q, p, r, seed=1)
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
                                      seed=rng.randint(0, 99))
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
                    path = connect_on_quadric(q, *ends, seed=rng.randint(0, 99))
                    assert path.tower.height == 0
                    assert verify_path(q, path).valid


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


class TestChartCache:
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
