"""Tower arithmetic: frozen hand-checked values first, then properties."""

import gc
import math
import random
import time
from fractions import Fraction
from math import gcd

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
    rational_string,
    scalar,
    scalar_from_obj,
    scalar_to_obj,
    sqrt_if_present,
    tower_from_obj,
    tower_to_obj,
    try_sqrt,
)


def parts(x):
    """(tree, den) of a scalar, rationals included."""
    return x.tree, x.den


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
        assert v.level == 0
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
        # adjoin 3 + 2*sqrt2 = (1 + sqrt2)^2, a nested square that the
        # shallow detection misses; then u - (1 + sqrt2), with u its new
        # generator, is a nonzero element of zero norm at the top level
        s, tw = sqrt2_setup()
        tw2 = tw.extend(3 + 2 * s)
        x = tw2.generator(2) - (1 + s)
        with pytest.raises(ZeroDivisorError):
            1 / x

    @pytest.mark.parametrize("radicand", [4, Fraction(1, 4), 2, 8,
                                          Fraction(9, 2)])
    def test_radicand_with_a_root_refused(self, radicand):
        # rational squares, and rational-square multiples of sqrt2
        _, tw = sqrt2_setup()
        with pytest.raises(TowerError, match="already has a square root"):
            tw.extend(radicand)

    @pytest.mark.xfail(strict=True, reason="square detection is shallow: "
                       "it misses squares that are not rational multiples "
                       "of a radicand, so try_sqrt can build zero divisors")
    def test_nested_square_found(self):
        # 3 + 2*sqrt2 = (1 + sqrt2)^2 already has a root in Q(sqrt2)
        s, tw = sqrt2_setup()
        root = sqrt_if_present(tw, 3 + 2 * s)
        assert root in (1 + s, -1 - s)

    def test_dropped_towers_are_not_cyclic_garbage(self):
        # a tower refers to its strict ancestors only, so reference
        # counting frees a dropped chain and the cycle collector finds none
        gc.collect()
        gc.disable()
        try:
            s, tw = sqrt2_setup()
            u, tw = try_sqrt(tw, 3)
            x = (1 + s + u) * (2 - u) / (3 + s)
            assert tw.floor(tw.height) is tw and tw.floor(1).height == 1
            assert tw.radicands() == (2, 3)
            del s, tw, u, x
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            towers = [o for o in gc.garbage if isinstance(o, Tower)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert towers == []

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

    def test_rational_text_matches_rational_string(self):
        # a rational is kept in lowest terms, so its text needs no gcd;
        # long numbers cross the writer's 600-digit pieces
        rng = random.Random(35)
        pairs = [(0, 1), (1, 1), (-1, 1), (-22, 7), (6, 4), (-10 ** 600, 3),
                 (7, 10 ** 601 + 1), (-(10 ** 1300) - 9, 10 ** 700 - 3)]
        for _ in range(40):
            num, den = (rng.randint(1, 10 ** rng.randint(1, 1500))
                        for _ in range(2))
            pairs.append((rng.choice((-1, 1)) * num, den))
        for num, den in pairs:
            text = scalar_to_obj(Fraction(num, den))
            assert text == rational_string(num, den)
            back = parse_rational(text)
            assert back == scalar(Fraction(num, den))
            assert scalar_to_obj(back) == text
        assert max(len(rational_string(n, d)) for n, d in pairs) > 1200

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
        assert tw.radicands() == tw2.radicands()

    def test_tower_prefix_extension(self):
        s, tw = sqrt2_setup()
        _, big = try_sqrt(tw, 3)
        objs = tower_to_obj(big)
        rebuilt = tower_from_obj(objs, base=tw)
        assert rebuilt.radicands() == big.radicands()
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
    assert (x + y).rat == a + b
    assert (x * y).rat == a * b
    if b:
        assert (x / y).rat == Fraction(a, 1) / b


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
            assert tw1 is not tw2 and tw1.radicands() == tw2.radicands()
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


def ref_level(t):
    return 0 if isinstance(t, int) else t[0]


def ref_node(j, a, b):
    return a if b == 0 else (j, a, b)


def ref_add(x, y):
    jx, jy = ref_level(x), ref_level(y)
    if jx == jy == 0:
        return x + y
    if jx == jy:
        return ref_node(jx, ref_add(x[1], y[1]), ref_add(x[2], y[2]))
    if jx > jy:
        return (jx, ref_add(x[1], y), x[2])
    return (jy, ref_add(x, y[1]), y[2])


def ref_mul(x, y, rads):
    """The four-product integer-tree product: (A + B*r)(C + D*r) =
    (AC + BD*d'_j) + (AD + BC)*r at every same-level node."""
    jx, jy = ref_level(x), ref_level(y)
    if jx == jy == 0:
        return x * y
    if jx > jy:
        return ref_node(jx, ref_mul(x[1], y, rads), ref_mul(x[2], y, rads))
    if jy > jx:
        return ref_node(jy, ref_mul(x, y[1], rads), ref_mul(x, y[2], rads))
    a, b, c, d = x[1], x[2], y[1], y[2]
    lo = ref_add(ref_mul(a, c, rads),
                 ref_mul(ref_mul(b, d, rads), rads[jx], rads))
    hi = ref_add(ref_mul(a, d, rads), ref_mul(b, c, rads))
    return ref_node(jx, lo, hi)


def scalar_from_tree(t, tw):
    """The value of an integer tree of tw, summed from its nodes."""
    if isinstance(t, int):
        return scalar(t)
    j = t[0]
    r = tw.generator(j) * tw.scales[j]
    return scalar_from_tree(t[1], tw) + scalar_from_tree(t[2], tw) * r


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class TestKernelOracle:
    """tower._tmul (three products per same-level node whose halves are
    all trees) against the four-product reference above, on the raw
    integer trees, in seeded towers of height 1-8."""

    @staticmethod
    def prime_tower(h):
        tw = Tower.rationals()
        for p in PRIMES[:h]:
            tw = tw.extend(p)
        return tw

    @staticmethod
    def nested_tower(h, seed):
        """Radicand k is an integer-coefficient element of level k-1,
        every one of whose coefficients is nonzero."""
        rng = random.Random(seed)
        tw = Tower.rationals().extend(rng.choice((3, 5, 7, 11)))
        for _ in range(1, h):
            tw = tw.extend(TestKernelOracle.value(rng, tw, tw.height, 1.0))
        return tw

    @staticmethod
    def value(rng, tw, level, density):
        """An element of level <= `level` whose sqrt-basis coefficients
        are nonzero with probability `density` (the top one always)."""
        if level == 0:
            return scalar(rng.choice((-1, 1)) * rng.randint(1, 9))
        a = (TestKernelOracle.value(rng, tw, level - 1, density)
             if rng.random() < density else scalar(0))
        b = TestKernelOracle.value(rng, tw, level - 1, density)
        return a + b * tw.generator(level)

    def towers(self):
        for h in range(1, 9):
            yield self.prime_tower(h)
            yield self.nested_tower(min(h, 5), 100 + h)

    def check(self, x, y, tw):
        from quadcyl.tower import _tmul
        (tx, dx), (ty, dy) = parts(x), parts(y)
        got = _tmul(tx, ty, tw.rads)
        assert got == ref_mul(tx, ty, tw.rads)
        assert x * y == y * x
        assert (x * y) * (dx * dy) == scalar_from_tree(got, tw)

    def test_products_match_four_product_reference(self):
        rng = random.Random(7)
        for tw in self.towers():
            h = tw.height
            for density in (1.0, 0.5, 0.0):
                for _ in range(3):
                    x = self.value(rng, tw, h, density)
                    y = self.value(rng, tw, rng.randint(0, h), density)
                    self.check(x, y, tw)
                    self.check(x, x, tw)
                    # zero A part, and an int half against tree halves
                    g = tw.generator(h)
                    self.check(x.b * g, y, tw)
                    self.check(x, (y.b if y.level else y) * g + 3, tw)
                    self.check(x / 7, y - Fraction(1, 3), tw)

    def test_conjugate_products_drop_to_the_lower_level(self):
        rng = random.Random(11)
        for tw in self.towers():
            h = tw.height
            if h < 2:
                continue
            g = tw.generator(h)
            d = tw.radicands()[-1]
            for density in (1.0, 0.5):
                a = self.value(rng, tw, h - 1, density)
                b = self.value(rng, tw, h - 1, density)
                x, xbar = a + b * g, a - b * g
                self.check(x, xbar, tw)
                low = a * a - b * b * d
                prod = x * xbar
                assert prod == low and hash(prod) == hash(low)
                assert prod.level == low.level < h

    def test_inverse_of_dense_height_eight(self):
        rng = random.Random(13)
        tw = self.prime_tower(8)
        for _ in range(2):
            x = self.value(rng, tw, 8, 1.0)
            inv = 1 / x
            assert x * inv == 1 and inv * x == 1
            assert (x * x) / x == x


# rationals of every width: zero, small, and numerators and denominators
# well past 64 bits; also denominators the numeric hash modulus divides
HASH_MODULUS = 2 ** 61 - 1
wide_ints = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))
wide_rats = st.one_of(
    st.builds(Fraction, wide_ints, st.integers(1, 2 ** 130)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                     Fraction(1, HASH_MODULUS), Fraction(-3, 2 * HASH_MODULUS)]),
)
operands = st.one_of(wide_rats, wide_ints)


def value_of(x):
    """A level-0 scalar as a Fraction, read through its int layout."""
    assert x.level == 0 and x.tree.__class__ is int and x.den > 0
    assert gcd(x.tree, x.den) == 1
    return Fraction(x.tree, x.den)


class TestRationalOracle:
    """Level-0 scalars against fractions.Fraction, operand by operand."""

    @given(wide_rats, operands)
    def test_arithmetic(self, a, b):
        x = scalar(a)
        for got, want in ((x + b, a + b), (b + x, b + a), (x - b, a - b),
                          (b - x, b - a), (x * b, a * b), (b * x, b * a),
                          (x + scalar(b), a + b), (x * scalar(b), a * b),
                          (-x, -a)):
            assert value_of(got) == want
            assert got == want and want == got
        if b:
            assert value_of(x / b) == a / b
            assert value_of(x / scalar(b)) == a / b
        if a:
            assert value_of(b / x) == b / a

    @given(wide_rats)
    def test_predicates_text_and_hash(self, a):
        x = scalar(a)
        assert bool(x) == bool(a) and x.is_zero() == (a == 0)
        assert repr(x) == str(a)
        assert x.rat == a and type(x.rat) is Fraction
        assert hash(x) == hash(a)
        assert (x == a + 1) is False and x != a + 1
        text = scalar_to_obj(x)
        assert text == "%d/%d" % (a.numerator, a.denominator)
        back = parse_rational(text)
        assert back == x and value_of(back) == a

    @given(wide_ints)
    def test_int_hash_follows_the_numeric_rule(self, n):
        assert hash(as_scalar(n)) == hash(n) == hash(Fraction(n))
        assert {as_scalar(n): 1}[Fraction(n)] == 1

    def test_division_by_a_rational_zero(self):
        s, _ = sqrt2_setup()
        for x in (scalar(Fraction(5, 7)), scalar(0), 1 + s):
            for zero in (0, Fraction(0), scalar(0)):
                with pytest.raises(ZeroDivisionError):
                    x / zero
        with pytest.raises(ZeroDivisionError):
            1 / scalar(0)

    @staticmethod
    def canonical(t, den):
        """(t, den) over a positive den with no common factor left: the
        layout's normal form, computed without the kernel."""
        def leaves(u):
            return [u] if isinstance(u, int) else leaves(u[1]) + leaves(u[2])

        def div(u, g):
            return u // g if isinstance(u, int) else (u[0], div(u[1], g),
                                                      div(u[2], g))
        g = gcd(den, *leaves(t))
        if den < 0:
            g = -g
        return div(t, g), den // g

    def test_rational_times_and_into_nodes(self):
        rng = random.Random(17)
        oracle = TestKernelOracle()
        for tw in oracle.towers():
            for _ in range(3):
                x = oracle.value(rng, tw, tw.height, rng.choice((1.0, 0.5)))
                q = Fraction(rng.randint(-2 ** 70, 2 ** 70) or 1,
                             rng.randint(1, 2 ** 70))
                oracle.check(x, scalar(q), tw)
                oracle.check(scalar(q), x, tw)
                tx, dx = parts(x)
                n, d = q.numerator, q.denominator
                assert parts(x * q) == self.canonical(
                    ref_mul(tx, n, tw.rads), dx * d)
                assert parts(q * x) == parts(x * q)
                assert parts(x / q) == self.canonical(
                    ref_mul(tx, d, tw.rads), dx * n)
                assert (x / q) * q == x


def division_sqrt_rule(tower, v):
    """sqrt_if_present decided by dividing: for a rational v, a rational
    square root of v/prod_S d_i for a subset S of the rational radicands
    (Kummer), tried in bit-mask order; else of v/d_i for the first
    radicand d_i with a rational square quotient, skipping a radicand
    whose inverse hits a zero divisor."""
    def rational_root(q):
        if q <= 0:
            return None
        rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
        return Fraction(rn, rd) if rn * rn == q.numerator and \
            rd * rd == q.denominator else None

    if v.is_zero():
        return scalar(0)
    if v.level == 0:
        rational = [(i, d.rat) for i, d in enumerate(tower.radicands(), 1)
                    if d.level == 0]
        for mask in range(1 << len(rational)):
            chosen = [rational[k] for k in range(len(rational))
                      if mask >> k & 1]
            root = rational_root(v.rat / math.prod(d for _, d in chosen))
            if root is not None:
                return math.prod((tower.generator(i) for i, _ in chosen),
                                 start=scalar(root))
        return None
    for i, d in enumerate(tower.radicands(), start=1):
        try:
            ratio = v / d
        except (ZeroDivisorError, ZeroDivisionError):
            continue
        if ratio.level == 0 and rational_root(ratio.rat) is not None:
            return rational_root(ratio.rat) * tower.generator(i)
    return None


SQUARE_TOWERS = [Tower.rationals()] + [
    make(h) for h in range(1, 5)
    for make in (TestKernelOracle.prime_tower,
                 lambda h: TestKernelOracle.nested_tower(h, 100 + h))]
NONZERO_RATS = st.fractions(min_value=-50, max_value=50,
                            max_denominator=12).filter(bool)


@st.composite
def square_queries(draw):
    """(tower of height <= 4, value): r^2 d_i (a hit), r d_i with r not a
    square, -r^2 d_i, zero, r^2 d_i moved one level up or down, r^2 d_i
    with one coefficient changed (the integer tree keeps its shape and
    its first leaf), r^2 d_i d_j for two rational radicands (a hit by
    Kummer, or a miss when their product is not a square class the tower
    holds), or a random element of the tower."""
    tw = draw(st.sampled_from(SQUARE_TOWERS))
    r = scalar(draw(NONZERO_RATS))
    case = draw(st.sampled_from(("hit", "non-square", "negative", "zero",
                                 "above", "below", "changed", "product",
                                 "random")))
    if case == "zero":
        return tw, scalar(0)
    rational = [d for d in tw.radicands() if not d.level]
    if case == "product" and len(rational) >= 2:
        d, e = draw(st.permutations(rational))[:2]
        c = draw(st.sampled_from((1, 1, 2, -1)))
        return tw, c * r * r * d * e
    if case == "random" or not tw.height:
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        level = draw(st.integers(0, tw.height))
        return tw, TestKernelOracle.value(rng, tw, level, 0.5) * r
    i = draw(st.integers(1, tw.height))
    d = tw.radicands()[i - 1]
    if case == "hit":
        return tw, r * r * d
    if case == "non-square":
        return tw, draw(st.sampled_from((2, 3, 6, -1, -7))) * r * r * d
    if case == "negative":
        return tw, -r * r * d
    if case == "below" and d.level:
        return tw, r * r * d.b
    if case == "changed" and d.level:
        return tw, r * r * (d + tw.generator(d.level))
    if d.level < tw.height:
        return tw, r * r * d + tw.generator(d.level + 1)
    return tw, r * r * d * tw.generator(d.level)


class TestSquareDetection:
    @given(square_queries())
    def test_agrees_with_the_division_rule(self, query):
        tw, v = query
        got = sqrt_if_present(tw, v)
        assert got == division_sqrt_rule(tw, v)
        if got is not None:
            assert got * got == v

    def test_every_radicand(self):
        # a hit, and misses that keep the tree's shape: a negative
        # multiple, and a changed top coefficient whose first leaf ratio
        # is still the square 9/4
        for tw in SQUARE_TOWERS:
            for i, d in enumerate(tw.radicands(), start=1):
                root = sqrt_if_present(tw, Fraction(9, 4) * d)
                assert root == Fraction(3, 2) * tw.generator(i)
                misses = [Fraction(-9, 4) * d]
                if d.level:
                    misses.append(
                        Fraction(9, 4) * (d + tw.generator(d.level)))
                for v in misses:
                    assert sqrt_if_present(tw, v) == division_sqrt_rule(tw, v)

    def test_products_of_rational_radicands(self):
        # 9/4 times the product of any subset of the rational radicands
        # has the root 3/2 times the product of their generators; a
        # non-square multiple of that product has none
        from itertools import combinations
        tw = TestKernelOracle.prime_tower(4)
        for k in range(5):
            for subset in combinations(range(1, 5), k):
                gens = math.prod((tw.generator(i) for i in subset),
                                 start=scalar(1))
                prod = math.prod(PRIMES[i - 1] for i in subset)
                root = sqrt_if_present(tw, Fraction(9, 4) * prod)
                assert root == Fraction(3, 2) * gens
                assert sqrt_if_present(tw, 11 * prod) is None

    def test_kummer_walk_at_the_default_limit(self):
        # a miss walks all 2^k subsets of the k rational radicands, and
        # the height limit is the only bound on k: at the default limit
        # the header of the first 16 primes, read with one walk per
        # radicand, and one miss over it must each stay within seconds
        primes = [p for p in range(2, 54) if all(p % q for q in range(2, p))]
        assert len(primes) == Tower.rationals().limit == 16
        start = time.perf_counter()
        tw = tower_from_obj(["%d/1" % p for p in primes])
        built = time.perf_counter()
        assert tw.height == 16
        assert sqrt_if_present(tw, 59) is None
        done = time.perf_counter()
        assert built - start < 5 and done - built < 5

    def test_value_off_the_chain_refused(self):
        # the radicand at level 2 is a node, so a level-1 value of an
        # unrelated tower is refused as dividing by it was
        tw = TestKernelOracle.nested_tower(2, 102)
        stranger = Tower.rationals().extend(101).generator(1)
        with pytest.raises(TowerError):
            sqrt_if_present(tw, stranger)


def denominated_tower(radicands):
    """The tower adjoining, in order, each rational radicand, or for a
    pair (c, e) the nested radicand c + e*sqrt(d_top) of the tower so far,
    so that every level has E_j != 1 and node b edges are rescaled."""
    tw = Tower.rationals()
    for d in radicands:
        if isinstance(d, tuple):
            d = d[0] + d[1] * tw.generator(tw.height)
        tw = tw.extend(d)
    return tw


F = Fraction
DENOMINATED_TOWERS = [tw.floor(h) for tw in (
    denominated_tower([F(3, 4), F(-7, 2), F(5, 9), F(11, 6), F(-5, 12)]),
    denominated_tower([F(3, 4), (F(5, 9), F(2, 3)), F(-7, 2),
                       (F(1, 6), F(-3, 4)), (F(-2, 5), F(7, 3))]),
) for h in range(6)]
COEFFICIENTS = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-60, max_value=60, max_denominator=36))


@st.composite
def denominated_values(draw, count=1):
    """(tower of height 0-5 from DENOMINATED_TOWERS, count values of it),
    each built by public arithmetic as a + b*sqrt(d_j) from coefficients
    that are often zero, so levels are skipped and trees vary in shape."""
    tw = draw(st.sampled_from(DENOMINATED_TOWERS))

    def value(level):
        if level == 0:
            return scalar(draw(COEFFICIENTS))
        return value(level - 1) + value(level - 1) * tw.generator(level)
    top = draw(st.integers(0, tw.height))
    return tw, [value(top) for _ in range(count)]


def rebuilt(obj, tw):
    """The value of a scalar_to_obj encoding by public arithmetic alone:
    leaves through Fraction, nodes as a + b*generator."""
    if isinstance(obj, str):
        return scalar(Fraction(obj))
    return rebuilt(obj["a"], tw) + \
        rebuilt(obj["b"], tw) * tw.generator(obj["level"])


class TestNodeReader:
    """scalar_from_obj reads a node in one pass into one integer tree,
    reduced once; checked against the writer and public arithmetic, over
    towers whose radicands have non-unit denominators."""

    @given(denominated_values())
    def test_round_trip_and_rebuild(self, case):
        from quadcyl.serialize import dumps
        tw, [x] = case
        obj = scalar_to_obj(x)
        back = scalar_from_obj(obj, tw)
        assert back == x and parts(back) == parts(x)
        assert dumps(scalar_to_obj(back)) == dumps(obj)
        assert back == rebuilt(obj, tw)

    @given(denominated_values(count=4))
    def test_document_reader_shares_leaves(self, case):
        # a point document reads all its coordinates through one reader,
        # whose leaf memo sees each repeated literal once
        from quadcyl.projective import ProjPoint, vec
        from quadcyl.serialize import dumps, loads, point_from_obj, \
            point_to_obj
        tw, xs = case
        p = ProjPoint(vec([scalar(1), *xs, *xs]))
        text = dumps(point_to_obj(p, tw))
        q, back = point_from_obj(loads(text), tw)
        assert q.coords == p.canonical_coords()
        assert dumps(point_to_obj(q, back)) == text

    @pytest.mark.parametrize("bad, message", [
        ({"a": "1/1", "b": "0/1", "level": 1}, "zero radical part"),
        ({"a": "1/1", "b": "1/1", "level": 2}, r"outside 1\.\.1"),
        ({"a": "1/1", "b": "1/1", "level": True}, "must be an integer"),
        ("2/4", "not in lowest terms"),
        ("03/4", "leading zero"),
        ("-0/1", "negative zero"),
        ("1" * 100_001, "above the cap"),
    ], ids=["zero-b", "level", "bool-level", "unreduced", "leading-zero",
            "negative-zero", "digit-cap"])
    def test_rejections_fire_deep_inside(self, bad, message):
        # the spot obj["b"]["b"] of a level-3 node lies inside a level-2
        # node, so it is read at depth 2 and holds a level-1 value
        from quadcyl.serialize import point_from_obj
        tw = DENOMINATED_TOWERS[3]
        g1, g2, g3 = (tw.generator(k) for k in (1, 2, 3))
        x = (F(1, 3) + g1) + (F(2, 5) + (F(-7, 4) + g1) * g2) * g3
        obj = scalar_to_obj(x)
        assert isinstance(obj["b"]["b"], dict)
        obj["b"]["b"] = bad
        with pytest.raises(InputFormatError, match=message):
            scalar_from_obj(obj, tw)
        doc = {"kind": "point", "size": 2, "coords": ["1/1", obj],
               "radicands": tower_to_obj(tw)}
        with pytest.raises(InputFormatError, match=message):
            point_from_obj(doc)
