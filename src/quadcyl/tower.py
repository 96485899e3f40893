"""Exact arithmetic in towers of quadratic extensions of the rationals.

A Tower records an ordered chain of adjoined radicands d_1, ..., d_k,
each a value of the floor below it, so F_0 = Q and F_{i+1} = F_i(sqrt(d_{i+1})).
A TowerScalar is an element of some floor: either a plain rational, or a
node (a, b) meaning a + b*sqrt(d_level) with a and b stored at their own
strictly lower levels.  Values are canonical: a node never has b = 0, and
rationals are kept reduced with positive denominator, so every element has
exactly one representation and equality is structural.

Towers are immutable.  extend() returns a child tower sharing the parent
chain, so scalars built before an extension remain valid in every
descendant, and a rejected search branch can simply drop its child tower.

Everything here is exact; no floats ever appear.
"""

from __future__ import annotations

import math

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

from .errors import InputFormatError, TowerError, TowerLimitError, ZeroDivisorError

DEFAULT_TOWER_LIMIT = 16


class Tower:
    """A chain of quadratic extensions of Q, identified by its radicands."""

    __slots__ = ("parent", "radicand", "height", "limit", "ancestors")

    def __init__(self, *, _parent=None, _radicand=None, limit=DEFAULT_TOWER_LIMIT):
        if _parent is None:
            self.parent = None
            self.radicand = None
            self.height = 0
            self.limit = limit
            self.ancestors = (self,)
        else:
            self.parent = _parent
            self.radicand = _radicand
            self.height = _parent.height + 1
            self.limit = _parent.limit
            self.ancestors = _parent.ancestors + (self,)

    @classmethod
    def rationals(cls, limit: int = DEFAULT_TOWER_LIMIT) -> "Tower":
        return cls(limit=limit)

    def extend(self, radicand) -> "Tower":
        """Adjoin sqrt(radicand).  The radicand must be a nonzero value of
        this tower (level <= height)."""
        d = as_scalar(radicand)
        if d.is_zero():
            raise TowerError("cannot adjoin the square root of zero")
        if d.level > self.height or (d.level > 0 and not _chain_compatible(self, d.tower)):
            raise TowerError("radicand does not live in this tower")
        if self.height + 1 > self.limit:
            raise TowerLimitError(
                "tower height limit %d exceeded" % self.limit)
        return Tower(_parent=self, _radicand=d)

    def radicands(self) -> tuple:
        """The adjoined radicands, in adjunction order."""
        return tuple(t.radicand for t in self.ancestors[1:])

    def generator(self, level: int):
        """sqrt(d_level) as a scalar of this tower (level is 1-based)."""
        if not 1 <= level <= self.height:
            raise TowerError("no generator at level %d" % level)
        return _node_unchecked(self.ancestors[level], _ZERO, _ONE)

    def same_chain(self, other: "Tower") -> bool:
        return _same_chain(self, other)

    def __repr__(self):
        return "Tower(height=%d, limit=%d)" % (self.height, self.limit)


class TowerScalar:
    """One exact value of some floor of a tower.  Immutable."""

    __slots__ = ("level", "rat", "a", "b", "tower")

    def __init__(self, value=0):
        s = as_scalar(value)
        self.level = s.level
        self.rat = s.rat
        self.a = s.a
        self.b = s.b
        self.tower = s.tower

    def is_zero(self) -> bool:
        return self.level == 0 and not self.rat

    def is_rational(self) -> bool:
        return self.level == 0

    def as_rational(self):
        if self.level != 0:
            raise TowerError("value is not rational")
        return self.rat

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _eq(self, other)

    def __hash__(self):
        if self.level == 0:
            return hash(self.rat)
        return hash((self.level, hash(self.a), hash(self.b)))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, _neg(other))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(other, _neg(self))

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _div(other, self)

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    def __repr__(self):
        if self.level == 0:
            return str(self.rat)
        return "(%r + %r*s%d)" % (self.a, self.b, self.level)


def _rational(q):
    s = TowerScalar.__new__(TowerScalar)
    s.level = 0
    s.rat = q
    s.a = None
    s.b = None
    s.tower = None
    return s


def _node_unchecked(tower, a, b):
    s = TowerScalar.__new__(TowerScalar)
    s.level = tower.height
    s.rat = None
    s.a = a
    s.b = b
    s.tower = tower
    return s


def _node(tower, a, b):
    """Canonical node constructor: demote when the radical part is zero."""
    if b.level == 0 and not b.rat:
        return a
    return _node_unchecked(tower, a, b)


_ZERO = _rational(_Q(0))
_ONE = _rational(_Q(1))


def _coerce(x):
    if isinstance(x, TowerScalar):
        return x
    if isinstance(x, int):
        return _rational(_Q(x))
    tp = type(x).__name__
    if tp in ("Fraction", "mpq", "mpz"):
        return _rational(_Q(x))
    return None


def as_scalar(x) -> TowerScalar:
    """Coerce an int, Fraction, mpq, or "p/q" string to a scalar."""
    if isinstance(x, str):
        return parse_rational(x)
    s = _coerce(x)
    if s is None:
        raise TowerError("cannot interpret %r as an exact scalar" % (x,))
    return s


def scalar(x) -> TowerScalar:
    return as_scalar(x)


def parse_rational(text: str) -> TowerScalar:
    """Parse "p/q" or "p" with the normal-form requirements: integer parts,
    positive denominator, lowest terms."""
    t = text.strip()
    try:
        if "/" in t:
            ns, ds = t.split("/", 1)
            num = int(ns)
            den = int(ds)
        else:
            num = int(t)
            den = 1
    except ValueError:
        raise InputFormatError("not a rational literal: %r" % text) from None
    if den <= 0:
        raise InputFormatError("denominator must be positive: %r" % text)
    if math.gcd(num, den) != 1:
        raise InputFormatError("rational not in lowest terms: %r" % text)
    return _rational(_Q(num, den))


def _same_chain(t1: Tower, t2: Tower) -> bool:
    if t1 is t2:
        return True
    if t1.height != t2.height:
        return False
    for u, v in zip(t1.ancestors[1:], t2.ancestors[1:]):
        if u is v:
            continue
        if not _eq(u.radicand, v.radicand):
            return False
    return True


def _chain_compatible(t_high: Tower, t_low: Tower) -> bool:
    """Is t_low (structurally) a prefix of t_high?"""
    if t_low.height > t_high.height:
        return False
    return _same_chain(t_high.ancestors[t_low.height], t_low)


def _eq(x, y) -> bool:
    if x is y:
        return True
    if x.level != y.level:
        return False
    if x.level == 0:
        return x.rat == y.rat
    if x.tower is not y.tower and not _same_chain(x.tower, y.tower):
        return False
    return _eq(x.a, y.a) and _eq(x.b, y.b)


def _meet(x, y):
    """The common floor for an operation on x and y: (level, tower)."""
    lx, ly = x.level, y.level
    if lx >= ly:
        hi, lo = x, y
    else:
        hi, lo = y, x
    if lo.level == 0:
        return hi.level, hi.tower
    if hi.tower is lo.tower:
        return hi.level, hi.tower
    anc = hi.tower.ancestors[lo.level] if lo.level <= hi.tower.height else None
    if anc is not None and (anc is lo.tower or _same_chain(anc, lo.tower)):
        return hi.level, hi.tower
    raise TowerError("scalars belong to unrelated towers")


def _split(x, k):
    if x.level == k:
        return x.a, x.b
    return x, _ZERO


def _is0(x) -> bool:
    return x.level == 0 and not x.rat


def _add(x, y):
    if x.level == 0 and y.level == 0:
        return _rational(x.rat + y.rat)
    if _is0(x):
        return y
    if _is0(y):
        return x
    k, tw = _meet(x, y)
    xa, xb = _split(x, k)
    ya, yb = _split(y, k)
    return _node(tw, _add(xa, ya), _add(xb, yb))


def _neg(x):
    if x.level == 0:
        return _rational(-x.rat)
    return _node_unchecked(x.tower, _neg(x.a), _neg(x.b))


def _scale(x, q):
    """x times a nonzero rational q; keeps canonical form."""
    if x.level == 0:
        return _rational(x.rat * q)
    return _node_unchecked(x.tower, _scale(x.a, q), _scale(x.b, q))


def _mul(x, y):
    if x.level == 0:
        if y.level == 0:
            return _rational(x.rat * y.rat)
        if not x.rat:
            return _ZERO
        if x.rat == 1:
            return y
        return _scale(y, x.rat)
    if y.level == 0:
        if not y.rat:
            return _ZERO
        if y.rat == 1:
            return x
        return _scale(x, y.rat)
    k, tw = _meet(x, y)
    xa, xb = _split(x, k)
    ya, yb = _split(y, k)
    d = tw.radicand
    lo = _mul(xa, ya)
    if not (_is0(xb) or _is0(yb)):
        lo = _add(lo, _mul(_mul(xb, yb), d))
    if _is0(xa) or _is0(yb):
        hi = _ZERO
    else:
        hi = _mul(xa, yb)
    if not (_is0(xb) or _is0(ya)):
        hi = _add(hi, _mul(xb, ya))
    return _node(tw, lo, hi)


def _inv(x):
    if x.level == 0:
        if not x.rat:
            raise ZeroDivisionError("division by zero scalar")
        return _rational(1 / x.rat)
    a, b = x.a, x.b
    d = x.tower.radicand
    n = _add(_mul(a, a), _neg(_mul(_mul(b, b), d)))
    if _is0(n):
        raise ZeroDivisorError(
            "zero conjugate norm at level %d; the radicand there is a perfect "
            "square lower in the tower" % x.level)
    ni = _inv(n)
    return _node(x.tower, _mul(a, ni), _neg(_mul(b, ni)))


def _div(x, y):
    if y.level == 0:
        if not y.rat:
            raise ZeroDivisionError("division by zero scalar")
        if _is0(x):
            return _ZERO
        return _scale(x, 1 / y.rat)
    return _mul(x, _inv(y))


ZERO = _ZERO
ONE = _ONE


def _sqrt_rational(q):
    """Exact square root of a positive rational, or None."""
    num = int(q.numerator)
    den = int(q.denominator)
    rn = math.isqrt(num)
    if rn * rn != num:
        return None
    rd = math.isqrt(den)
    if rd * rd != den:
        return None
    return _Q(rn, rd)


def sqrt_if_present(tower: Tower, value) -> TowerScalar | None:
    """A square root of value already expressible in the tower, or None.

    Detection is deliberately shallow: rational perfect squares, and
    rational-square multiples of an already-adjoined radicand.  No norm
    equations are solved.
    """
    v = as_scalar(value)
    if v.is_zero():
        return _ZERO
    if v.level == 0 and v.rat > 0:
        r = _sqrt_rational(v.rat)
        if r is not None:
            return _rational(r)
    for i in range(1, tower.height + 1):
        d = tower.ancestors[i].radicand
        try:
            ratio = _div(v, d)
        except (ZeroDivisorError, ZeroDivisionError):
            continue
        if ratio.level == 0 and ratio.rat > 0:
            r = _sqrt_rational(ratio.rat)
            if r is not None:
                gen = tower.generator(i)
                return gen if r == 1 else _scale(gen, r)
    return None


def try_sqrt(tower: Tower, value):
    """(s, tower') with s*s == value, adjoining a new radicand if needed."""
    v = as_scalar(value)
    s = sqrt_if_present(tower, v)
    if s is not None:
        return s, tower
    t2 = tower.extend(v)
    return t2.generator(t2.height), t2


def deepest_tower(scalars, base: Tower) -> Tower:
    """The deepest tower among base and the scalars' own towers, after
    checking they all sit on one chain."""
    best = base
    for s in scalars:
        if s.level == 0:
            continue
        tw = s.tower
        if tw.height > best.height:
            if not _chain_compatible(tw, best):
                raise TowerError("scalars belong to unrelated towers")
            best = tw
        elif not _chain_compatible(best, tw):
            raise TowerError("scalars belong to unrelated towers")
    return best


def rational_string(q) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def scalar_to_obj(x):
    """Serialize: rationals as "p/q" strings, a + b*sqrt(d_k) as
    {"a": a, "b": b, "level": k}.  The radicand d_k itself is spelled out
    once, in the radicand header of the document."""
    s = as_scalar(x)
    if s.level == 0:
        return rational_string(s.rat)
    return {"a": scalar_to_obj(s.a), "b": scalar_to_obj(s.b),
            "level": s.level}


_NODE_KEYS = frozenset(("a", "b", "level"))


def scalar_from_obj(obj, tower: Tower, top=None) -> TowerScalar:
    """Parse the scalar_to_obj encoding against a tower, with node levels
    at most top (default: the tower height).  Rejects non-canonical input
    (zero radical part, unreduced rationals, a level outside the tower or
    not above both children) so that serialization round-trips are
    bit-exact.  Each level is checked before its children are read, so the
    recursion is no deeper than the tower."""
    if isinstance(obj, str):
        return parse_rational(obj)
    if not isinstance(obj, dict):
        raise InputFormatError("scalar must be a string or an object")
    if obj.keys() != _NODE_KEYS:
        raise InputFormatError(
            "scalar object must have exactly the keys a, b, level")
    level = obj["level"]
    if not isinstance(level, int) or isinstance(level, bool):
        raise InputFormatError("scalar level must be an integer")
    if top is None:
        top = tower.height
    if not 1 <= level <= top:
        raise InputFormatError(
            "scalar level %d is outside 1..%d: above the tower, or not "
            "below its parent node" % (level, top))
    a = scalar_from_obj(obj["a"], tower, level - 1)
    b = scalar_from_obj(obj["b"], tower, level - 1)
    if b.is_zero():
        raise InputFormatError("non-canonical scalar: zero radical part")
    return _node_unchecked(tower.ancestors[level], a, b)


def tower_to_obj(tower: Tower) -> list:
    return [scalar_to_obj(d) for d in tower.radicands()]


def tower_from_obj(objs, limit: int = DEFAULT_TOWER_LIMIT,
                   base: Tower | None = None) -> Tower:
    """Rebuild a tower from its radicand list.  When base is given, the
    list must extend base's radicands (prefix match, checked exactly)."""
    if base is None:
        tw = Tower.rationals(limit)
    else:
        tw = base
        if len(objs) < tw.height:
            raise InputFormatError("radicand list shorter than the base tower")
        for i in range(1, tw.height + 1):
            d = scalar_from_obj(objs[i - 1], tw.ancestors[i - 1])
            if not _eq(d, tw.ancestors[i].radicand):
                raise InputFormatError(
                    "radicand %d does not match the base tower" % i)
    for obj in objs[tw.height:]:
        d = scalar_from_obj(obj, tw)
        tw = tw.extend(d)
    return tw
