"""Tower arithmetic: frozen hand-checked values first, then properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadcyl.errors import (
    InputFormatError,
    TowerError,
    TowerLimitError,
    ZeroDivisorError,
)
from quadcyl.tower import (
    Tower,
    as_scalar,
    parse_rational,
    scalar,
    scalar_from_obj,
    scalar_to_obj,
    sqrt_if_present,
    tower_from_obj,
    tower_to_obj,
    try_sqrt,
)


def sqrt2_setup():
    tw = Tower.rationals()
    s, tw = try_sqrt(tw, 2)
    return s, tw


class TestFrozenValues:
    def test_conjugate_product_is_minus_one(self):
        # (1 + sqrt2)(1 - sqrt2) = 1 - 2 = -1, by hand
        s, _ = sqrt2_setup()
        assert (1 + s) * (1 - s) == -1

    def test_sqrt_of_square_rational_no_extension(self):
        tw = Tower.rationals()
        s, tw2 = try_sqrt(tw, 4)
        assert tw2 is tw
        assert s == 2
        s, tw2 = try_sqrt(tw, Fraction(9, 25))
        assert tw2 is tw
        assert s == scalar(Fraction(3, 5))

    def test_sqrt_squares_back(self):
        s, _ = sqrt2_setup()
        assert s * s == 2

    def test_inverse_of_one_plus_sqrt2(self):
        # 1/(1+sqrt2) = -1 + sqrt2, by rationalizing
        s, _ = sqrt2_setup()
        assert 1 / (1 + s) == s - 1

    def test_nested_level_two_product(self):
        # u = sqrt(1+sqrt2); u*u must come out structurally equal to 1+sqrt2
        s, tw = sqrt2_setup()
        u, tw = try_sqrt(tw, 1 + s)
        assert tw.height == 2
        assert u * u == 1 + s

    def test_division_keeps_exactness(self):
        s, tw = sqrt2_setup()
        x = (3 + 5 * s) / (7 - 2 * s)
        assert x * (7 - 2 * s) == 3 + 5 * s

    def test_zero_radical_part_demotes(self):
        s, _ = sqrt2_setup()
        v = (s + 1) - s
        assert v.is_rational()
        assert v == 1

    def test_sqrt_of_multiple_of_existing_radicand(self):
        # sqrt(8) = 2*sqrt(2) must reuse the generator, not extend
        s, tw = sqrt2_setup()
        r, tw2 = try_sqrt(tw, 8)
        assert tw2 is tw
        assert r == 2 * s
        assert r * r == 8

    def test_sqrt_of_negative_multiple(self):
        tw = Tower.rationals()
        i, tw = try_sqrt(tw, -1)
        r, tw2 = try_sqrt(tw, -9)
        assert tw2 is tw
        assert r == 3 * i

    def test_try_sqrt_zero(self):
        tw = Tower.rationals()
        z, tw2 = try_sqrt(tw, 0)
        assert tw2 is tw
        assert z.is_zero()


class TestTowerStructure:
    def test_values_survive_extension(self):
        s, tw = sqrt2_setup()
        old = 1 + s
        u, tw2 = try_sqrt(tw, 3)
        assert tw2.height == 2
        # the old value still combines with new ones
        assert (old + u) - u == old

    def test_height_limit(self):
        tw = Tower.rationals(limit=2)
        _, tw = try_sqrt(tw, 2)
        _, tw = try_sqrt(tw, 3)
        with pytest.raises(TowerLimitError):
            try_sqrt(tw, 5)

    def test_adjoining_zero_rejected(self):
        tw = Tower.rationals()
        with pytest.raises(TowerError):
            tw.extend(0)

    def test_unrelated_towers_do_not_mix(self):
        _, tw1 = try_sqrt(Tower.rationals(), 2)
        _, tw2 = try_sqrt(Tower.rationals(), 3)
        a = tw1.generator(1)
        b = tw2.generator(1)
        with pytest.raises(TowerError):
            a + b

    def test_structurally_equal_chains_do_mix(self):
        _, tw1 = try_sqrt(Tower.rationals(), 2)
        _, tw2 = try_sqrt(Tower.rationals(), 2)
        assert tw1.generator(1) == tw2.generator(1)
        assert tw1.generator(1) + tw2.generator(1) == 2 * tw1.generator(1)

    def test_zero_divisor_detected(self):
        # force a redundant generator by hand: adjoin 2, then adjoin 8
        # directly (bypassing try_sqrt); then sqrt8 - 2*sqrt2 is a nonzero
        # element of zero norm at the top level
        _, tw = try_sqrt(Tower.rationals(), 2)
        tw2 = tw.extend(8)
        x = tw2.generator(2) - 2 * tw2.generator(1)
        with pytest.raises(ZeroDivisorError):
            1 / x

    @pytest.mark.xfail(strict=True, reason="square detection is shallow: "
                       "it misses squares that are not rational multiples "
                       "of a radicand, so try_sqrt can build zero divisors")
    def test_nested_square_found(self):
        # 3 + 2*sqrt2 = (1 + sqrt2)^2 already has a root in Q(sqrt2)
        s, tw = sqrt2_setup()
        root = sqrt_if_present(tw, 3 + 2 * s)
        assert root in (1 + s, -1 - s)

    def test_division_by_zero(self):
        s, _ = sqrt2_setup()
        with pytest.raises(ZeroDivisionError):
            (1 + s) / (s - s)


class TestParsing:
    def test_rational_normal_form_enforced(self):
        assert parse_rational("3/4") == scalar(Fraction(3, 4))
        assert parse_rational("-7") == -7
        for bad in ("2/4", "1/-2", "1/0", "0.5", "a", "1/2/3"):
            with pytest.raises(InputFormatError):
                parse_rational(bad)

    def test_only_round_tripping_literals(self):
        # each of these used to parse and be written back as other text
        for bad in ("1_0/3", "١٢/5", "+3/4", " 3/4 ", "3/4\n",
                    "-0/1", "-0", "03/4", "3/04", "", "-", "/3", "3/"):
            with pytest.raises(InputFormatError):
                parse_rational(bad)
        for good in ("0/1", "-3/4", "10/3", "7/1"):
            assert scalar_to_obj(parse_rational(good)) == good
        assert scalar_to_obj(parse_rational("0")) == "0/1"
        assert scalar_to_obj(parse_rational("-12")) == "-12/1"

    def test_point_document_refuses_loose_literal(self):
        from quadcyl.serialize import point_from_obj
        doc = {"kind": "point", "radicands": [], "size": 2,
               "coords": ["1/1", "1_0/3"]}
        with pytest.raises(InputFormatError):
            point_from_obj(doc)
        doc["coords"] = ["1/1", "10/3"]
        point_from_obj(doc)


class TestSerialization:
    def test_rational_round_trip(self):
        v = scalar(Fraction(-22, 7))
        assert scalar_to_obj(v) == "-22/7"
        assert scalar_from_obj("-22/7", Tower.rationals()) == v

    def test_nested_round_trip(self):
        s, tw = sqrt2_setup()
        u, tw = try_sqrt(tw, 1 + s)
        v = (2 + 3 * s) + (s - 5) * u
        obj = scalar_to_obj(v)
        back = scalar_from_obj(obj, tw)
        assert back == v
        assert scalar_to_obj(back) == obj

    def test_tower_round_trip(self):
        s, tw = sqrt2_setup()
        _, tw = try_sqrt(tw, 1 + s)
        objs = tower_to_obj(tw)
        tw2 = tower_from_obj(objs)
        assert tw.same_chain(tw2)

    def test_tower_prefix_extension(self):
        s, tw = sqrt2_setup()
        _, big = try_sqrt(tw, 3)
        objs = tower_to_obj(big)
        rebuilt = tower_from_obj(objs, base=tw)
        assert rebuilt.same_chain(big)
        # mismatched prefix is rejected
        _, other = try_sqrt(Tower.rationals(), 5)
        with pytest.raises(InputFormatError):
            tower_from_obj(objs, base=other)

    def test_non_canonical_rejected(self):
        tw = Tower.rationals()
        with pytest.raises(InputFormatError):
            scalar_from_obj({"a": "1", "b": "1", "level": 1}, tw)
        _, tw2 = try_sqrt(tw, 2)
        with pytest.raises(InputFormatError):
            scalar_from_obj({"a": "1", "b": "0", "level": 1}, tw2)
        with pytest.raises(InputFormatError):
            scalar_from_obj({"a": "1", "b": "2/4", "level": 1}, tw2)

    def test_node_levels_checked(self):
        s, tw = sqrt2_setup()
        _, tw = try_sqrt(tw, 3)
        one = {"a": "0/1", "b": "1/1", "level": 1}
        assert scalar_from_obj(
            {"a": one, "b": "1/1", "level": 2}, tw) == s + tw.generator(2)
        bad = [
            ({"a": "1/1", "b": "1/1", "level": 3}, r"outside 1\.\.2"),
            ({"a": "1/1", "b": "1/1", "level": 0}, r"outside 1\.\.2"),
            ({"a": "1/1", "b": "1/1", "level": True}, "integer"),
            ({"a": "1/1", "b": "1/1", "level": "1"}, "integer"),
            ({"a": one, "b": "1/1", "level": 1}, r"outside 1\.\.0"),
            ({"a": "1/1", "b": {"a": "1/1", "b": "1/1", "level": 2},
              "level": 1}, r"outside 1\.\.0"),
            ({"a": "1/1", "b": "1/1", "rad": "2/1"}, "keys a, b, level"),
            ({"a": "1/1", "b": "1/1", "level": 1, "rad": "2/1"},
             "keys a, b, level"),
        ]
        for obj, message in bad:
            with pytest.raises(InputFormatError, match=message):
                scalar_from_obj(obj, tw)

    def test_nesting_depth_bounded_by_height(self):
        # a hostile chain of nodes stops at the first level that is not
        # below its parent, however deep the document goes
        _, tw = sqrt2_setup()
        obj = "1/1"
        for _ in range(5000):
            obj = {"a": obj, "b": "1/1", "level": 1}
        with pytest.raises(InputFormatError, match=r"outside 1\.\.0"):
            scalar_from_obj(obj, tw)


rats = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)


@st.composite
def tower_values(draw):
    """A tower of height 2 over sqrt(2), sqrt(3) and a value in it."""
    _, tw = try_sqrt(Tower.rationals(), 2)
    _, tw = try_sqrt(tw, 3)
    coeffs = [scalar(draw(rats)) for _ in range(4)]
    g1, g2 = tw.generator(1), tw.generator(2)
    v = coeffs[0] + coeffs[1] * g1 + (coeffs[2] + coeffs[3] * g1) * g2
    return v, tw


@given(tower_values(), tower_values())
def test_field_axioms_add_mul(xv, yv):
    x, _ = xv
    y, _ = yv
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x


@given(tower_values())
def test_field_inverse(xv):
    x, _ = xv
    if not x.is_zero():
        assert x * (1 / x) == 1


@given(tower_values())
def test_serialization_round_trip_property(xv):
    x, tw = xv
    assert scalar_from_obj(scalar_to_obj(x), tw) == x


@given(rats, rats)
def test_rational_fast_paths_agree(a, b):
    x, y = scalar(a), scalar(b)
    assert (x + y).as_rational() == a + b
    assert (x * y).as_rational() == a * b
    if b:
        assert (x / y).as_rational() == Fraction(a, 1) / b


def test_as_scalar_rejects_floats():
    with pytest.raises(TowerError):
        as_scalar(0.5)


class TestNumericOracle:
    """Nested towers of height up to 6 checked against mpmath at 90
    digits, with one fixed complex square root per level."""

    HEIGHT = 6

    @staticmethod
    def random_rational(rng):
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def random_value(self, rng, tower, level):
        """A random element of level <= `level`, sparse below the top."""
        if level == 0 or rng.random() < 0.15:
            return scalar(self.random_rational(rng))
        a = self.random_value(rng, tower, level - 1)
        b = self.random_value(rng, tower, level - 1)
        if b.is_zero():
            b = scalar(1)
        return a + b * tower.generator(level)

    def build(self, seed):
        """A tower whose radicand k is a random element of level k-1 (the
        first one 3/5), and the generator it draws the rest from."""
        rng = random.Random(seed)
        tw = Tower.rationals()
        tw = tw.extend(Fraction(3, 5))
        for k in range(2, self.HEIGHT + 1):
            tw = tw.extend(self.random_value(rng, tw, k - 1))
        return rng, tw

    def test_arithmetic_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(90):
            self.check_against(mpmath)

    def check_against(self, mpmath):
        tolerance = mpmath.mpf(10) ** -70

        def ev(x):
            def walk(obj):
                if isinstance(obj, str):
                    p, q = obj.split("/")
                    return mpmath.mpf(int(p)) / int(q)
                return walk(obj["a"]) + walk(obj["b"]) * roots[obj["level"]]
            return walk(scalar_to_obj(x))

        def close(got, want, scale):
            return abs(got - want) <= tolerance * (1 + scale)

        for seed in (1, 2):
            rng, tw = self.build(seed)
            roots = [None]
            for k, d in enumerate(tw.radicands(), start=1):
                roots.append(mpmath.sqrt(mpmath.mpc(ev(d))))
                g = tw.generator(k)
                assert g * g == d
                assert close(ev(g) ** 2, ev(d), abs(ev(d)))
            for level in range(1, self.HEIGHT + 1):
                for _ in range(2):
                    x = self.random_value(rng, tw, level)
                    y = self.random_value(rng, tw, rng.randint(0, level))
                    ex, ey = ev(x), ev(y)
                    size = abs(ex) * abs(ey) + abs(ex) + abs(ey)
                    assert close(ev(x + y), ex + ey, size)
                    assert close(ev(x - y), ex - ey, size)
                    assert close(ev(x * y), ex * ey, size)
                    if not y.is_zero():
                        q = x / y
                        assert close(ev(q), ex / ey, abs(ex / ey))
                        assert q * y == x
                    if not x.is_zero():
                        inv = 1 / x
                        assert close(ev(inv), 1 / ex, abs(1 / ex))
                        assert inv * x == 1

    def test_round_trip_and_hash_across_towers(self):
        for seed in (3, 4):
            rng1, tw1 = self.build(seed)
            rng2, tw2 = self.build(seed)
            assert tw1 is not tw2 and tw1.same_chain(tw2)
            for level in range(1, self.HEIGHT + 1):
                x1 = self.random_value(rng1, tw1, level)
                x2 = self.random_value(rng2, tw2, level)
                y1 = self.random_value(rng1, tw1, level)
                y2 = self.random_value(rng2, tw2, level)
                for v1, v2 in ((x1, x2), (x1 * y1, x2 * y2),
                               (x1 - y1 / 7, x2 - y2 / 7)):
                    assert v1 == v2
                    assert hash(v1) == hash(v2)
                    obj = scalar_to_obj(v1)
                    back = scalar_from_obj(obj, tw2)
                    assert back == v1 and hash(back) == hash(v1)
                    assert scalar_to_obj(back) == obj


class TestReadSurface:
    """The attributes and operator bindings that outside readers (the
    benchmark's scalar encoding and tracer) rely on."""

    def test_rational_and_node_fields(self):
        from quadcyl import tower
        assert tower.ONE.rat == 1 and tower.ONE.level == 0
        assert type(tower._Q(0)) is type(tower.ONE.rat)
        r = scalar(Fraction(-3, 4))
        assert r.level == 0 and r.rat == Fraction(-3, 4)
        _, tw = try_sqrt(Tower.rationals(), Fraction(3, 5))
        s1 = tw.generator(1)
        u, tw = try_sqrt(tw, 2 + s1 / 3)
        x = (Fraction(1, 2) + 7 * s1) + (s1 - Fraction(5, 6)) * u
        assert x.level == 2
        assert isinstance(x.a, tower.TowerScalar)
        assert isinstance(x.b, tower.TowerScalar)
        assert x.a == Fraction(1, 2) + 7 * s1
        assert x.b == s1 - Fraction(5, 6)
        assert x == x.a + x.b * tw.generator(2)
        for part in (x.a, x.b):
            assert part.level == 1
            assert part == part.a + part.b * tw.generator(1)
            assert part.a.level == 0 and part.b.level == 0

    def test_operators_are_the_only_entry_points(self, monkeypatch):
        from quadcyl.tower import TowerScalar
        names = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__add__", "__radd__", "__sub__", "__rsub__")
        calls = []

        def counting(name, orig):
            def op(a, b):
                calls.append(name)
                return orig(a, b)
            return op

        s, tw = sqrt2_setup()
        u, tw = try_sqrt(tw, 1 + s)
        x = (3 + s) + (s - 5) * u
        y = (1 - 2 * s) + 4 * u
        for name in names:
            monkeypatch.setattr(TowerScalar, name,
                                counting(name, getattr(TowerScalar, name)))
        results = [x * y, 2 * x, x / y, 1 / x, x + y, 1 + x, x - y, 1 - x]
        assert calls == list(names)
        monkeypatch.undo()
        assert results[2] * y == x and results[3] * x == 1
