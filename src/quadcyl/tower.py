"""Exact arithmetic in towers of quadratic extensions of the rationals.

A Tower records an ordered chain of adjoined radicands d_1, ..., d_k,
each a value of the floor below it, so F_0 = Q and F_{i+1} = F_i(sqrt(d_{i+1})).
A TowerScalar is an element of some floor.

Layout.  A rational (level 0) is one reduced Fraction (gmpy2's mpq when it
is installed).  An element of level k >= 1 is an integer tree T over one
positive integer denominator D, meaning T/D.  A tree is a Python int, or a
tuple (j, A, B) meaning A + B*sqrt(d'_j), where A and B are trees of level
below j and B != 0.  The generators are scaled so that trees multiply to
trees: level j stores its radicand once in integral form d'_j = E_j*E_j*d_j,
where E_j is the denominator of d_j in this layout, so d'_j is itself a
tree and sqrt(d'_j) = E_j*sqrt(d_j).

Values are canonical: D > 0, the gcd of D and all leaves of T is 1, and
no node has B = 0, so every element has exactly one representation and
equality is structural.  Arithmetic runs on the trees in plain integers
and normalizes each result once, instead of reducing a fraction at every
leaf; an inverse is conj(T)/N(T), recursing on the integer norm N(T).

The sqrt(d_j) basis, a + b*sqrt(d_j) with a and b at lower levels (the
coefficient on sqrt(d'_j) is b/E_j), appears only at the edges: the
read-only .a and .b, repr, scalar_to_obj and scalar_from_obj.

Towers are immutable.  extend() returns a child tower sharing the parent
chain, so scalars built before an extension remain valid in every
descendant, and a rejected search branch can simply drop its child tower.

Everything here is exact; no floats ever appear.
"""

from __future__ import annotations

import math
from math import gcd

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

from .errors import InputFormatError, TowerError, TowerLimitError, ZeroDivisorError

DEFAULT_TOWER_LIMIT = 16


class Tower:
    """A chain of quadratic extensions of Q, identified by its radicands.
    scales[j] is E_j and rads[j] the integral radicand d'_j (index 0 is a
    placeholder for Q)."""

    __slots__ = ("parent", "radicand", "height", "limit", "ancestors",
                 "scales", "rads")

    def __init__(self, *, _parent=None, _radicand=None, limit=DEFAULT_TOWER_LIMIT):
        if _parent is None:
            self.parent = None
            self.radicand = None
            self.height = 0
            self.limit = limit
            self.ancestors = (self,)
            self.scales = (1,)
            self.rads = (None,)
        else:
            self.parent = _parent
            self.radicand = _radicand
            self.height = _parent.height + 1
            self.limit = _parent.limit
            self.ancestors = _parent.ancestors + (self,)
            t, e = _parts(_radicand)
            self.scales = _parent.scales + (e,)
            self.rads = _parent.rads + (_tscale(t, e),)

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
        return _node(self.ancestors[level], (level, 0, 1), self.scales[level])

    def same_chain(self, other: "Tower") -> bool:
        return _same_chain(self, other)

    def __repr__(self):
        return "Tower(height=%d, limit=%d)" % (self.height, self.limit)


class TowerScalar:
    """One exact value of some floor of a tower.  Immutable.  A rational
    has level 0 and its value in .rat; a node has tree/den as described in
    the module docstring and tower.height == level."""

    __slots__ = ("level", "rat", "tree", "den", "tower")

    def __init__(self, value=0):
        s = as_scalar(value)
        self.level = s.level
        self.rat = s.rat
        self.tree = s.tree
        self.den = s.den
        self.tower = s.tower

    @property
    def a(self):
        """a in a + b*sqrt(d_level), at a lower level (None on rationals)."""
        if self.level == 0:
            return None
        return _make(self.tower, self.tree[1], 1, self.den)

    @property
    def b(self):
        """b in a + b*sqrt(d_level), at a lower level (None on rationals)."""
        if self.level == 0:
            return None
        return _make(self.tower, self.tree[2], self.tower.scales[self.level],
                     self.den)

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
        return hash((self.level, self.den, self.tree))

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
    s.tree = None
    s.den = None
    s.tower = None
    return s


def _node(tower, t, den):
    """The node t/den, already canonical, whose top level is tower.height."""
    s = TowerScalar.__new__(TowerScalar)
    s.level = tower.height
    s.rat = None
    s.tree = t
    s.den = den
    s.tower = tower
    return s


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
    """Parse "p/q" or "p" in normal form: ASCII digits, an optional leading
    minus, no leading zeros, no negative zero, positive denominator, lowest
    terms.  Anything accepted is written back as the same text (the bare
    "p" form as "p/1")."""
    ns, slash, ds = text.partition("/")
    digits = ns[1:] if ns[:1] == "-" else ns
    if not (text.isascii() and digits.isdigit() and
            (not slash or (ds[1:] if ds[:1] == "-" else ds).isdigit())):
        raise InputFormatError("not a rational literal: %r" % text)
    num = int(ns)
    den = int(ds) if slash else 1
    if den <= 0:
        raise InputFormatError("denominator must be positive: %r" % text)
    if (len(digits) > 1 and digits[0] == "0") or ds[:1] == "0":
        raise InputFormatError("leading zero in rational: %r" % text)
    if ns[0] == "-" and not num:
        raise InputFormatError("negative zero in rational: %r" % text)
    if gcd(num, den) != 1:
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
    return x.den == y.den and x.tree == y.tree


def _meet(x, y):
    """The tower of the common floor for an operation on x and y."""
    if x.level >= y.level:
        hi, lo = x, y
    else:
        hi, lo = y, x
    if lo.level == 0 or hi.tower is lo.tower:
        return hi.tower
    anc = hi.tower.ancestors[lo.level]
    if anc is lo.tower or _same_chain(anc, lo.tower):
        return hi.tower
    raise TowerError("scalars belong to unrelated towers")


# ---------------------------------------------------------------------------
# integer trees: an int, or (j, A, B) meaning A + B*sqrt(d'_j), B != 0;
# rads[j] is d'_j.  A tree is only ever divided by a common factor of its
# leaves (_rescale).


def _tnode(j, a, b):
    """A + B*sqrt(d'_j), demoted to A when B is zero."""
    if b.__class__ is int and not b:
        return a
    return (j, a, b)


def _tadd(x, y):
    if x.__class__ is int:
        if y.__class__ is int:
            return x + y
        if not x:
            return y
        return (y[0], _tadd(x, y[1]), y[2])
    if y.__class__ is int:
        if not y:
            return x
        return (x[0], _tadd(x[1], y), x[2])
    jx = x[0]
    jy = y[0]
    if jx == jy:
        return _tnode(jx, _tadd(x[1], y[1]), _tadd(x[2], y[2]))
    if jx > jy:
        return (jx, _tadd(x[1], y), x[2])
    return (jy, _tadd(x, y[1]), y[2])


def _tneg(t):
    if t.__class__ is int:
        return -t
    return (t[0], _tneg(t[1]), _tneg(t[2]))


def _tscale(t, c):
    """t times the integer c."""
    if c == 1:
        return t
    if not c:
        return 0
    if t.__class__ is int:
        return t * c
    return (t[0], _tscale(t[1], c), _tscale(t[2], c))


def _tmul(x, y, rads):
    if x.__class__ is int:
        if y.__class__ is int:
            return x * y
        return _tscale(y, x)
    if y.__class__ is int:
        return _tscale(x, y)
    jx = x[0]
    jy = y[0]
    if jx > jy:
        return _tnode(jx, _tmul(x[1], y, rads), _tmul(x[2], y, rads))
    if jy > jx:
        return _tnode(jy, _tmul(x, y[1], rads), _tmul(x, y[2], rads))
    xa, xb = x[1], x[2]
    ya, yb = y[1], y[2]
    lo = _tadd(_tmul(xa, ya, rads),
               _tmul(_tmul(xb, yb, rads), rads[jx], rads))
    hi = _tadd(_tmul(xa, yb, rads), _tmul(xb, ya, rads))
    return _tnode(jx, lo, hi)


def _gcd_leaves(t, g):
    """gcd of g and every leaf of t, stopping as soon as it is 1."""
    if t.__class__ is int:
        return gcd(g, t)
    g = _gcd_leaves(t[2], g)
    if g == 1:
        return 1
    return _gcd_leaves(t[1], g)


def _rescale(t, num, g):
    """Every leaf of t exactly divided by g, then times num."""
    if t.__class__ is int:
        return t // g * num
    return (t[0], _rescale(t[1], num, g), _rescale(t[2], num, g))


def _make(tower, t, num, den):
    """The canonical scalar t*num/den, for a tree t whose levels tower
    holds, den > 0 and num != 0."""
    if t.__class__ is int:
        return _rational(_Q(t * num, den))
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    g = _gcd_leaves(t, den)
    if g != 1 or num != 1:
        t = _rescale(t, num, g)
        den //= g
    return _node(tower.ancestors[t[0]], t, den)


def _parts(x):
    """(tree, den) of a scalar, rationals included."""
    if x.level == 0:
        q = x.rat
        return int(q.numerator), int(q.denominator)
    return x.tree, x.den


def _is0(x) -> bool:
    return x.level == 0 and not x.rat


def _add(x, y):
    if x.level == 0 and y.level == 0:
        return _rational(x.rat + y.rat)
    if _is0(x):
        return y
    if _is0(y):
        return x
    tw = _meet(x, y)
    tx, dx = _parts(x)
    ty, dy = _parts(y)
    g = gcd(dx, dy)
    t = _tadd(_tscale(tx, dy // g), _tscale(ty, dx // g))
    if t.__class__ is int and not t:
        return _ZERO
    return _make(tw, t, 1, dx // g * dy)


def _neg(x):
    if x.level == 0:
        return _rational(-x.rat)
    return _node(x.tower, _tneg(x.tree), x.den)


def _scale(x, q):
    """x (a node) times a nonzero rational q."""
    return _make(x.tower, x.tree, int(q.numerator), x.den * int(q.denominator))


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
    tw = _meet(x, y)
    t = _tmul(x.tree, y.tree, tw.rads)
    if t.__class__ is int and not t:
        return _ZERO
    return _make(tw, t, 1, x.den * y.den)


def _inv_tree(t, rads):
    """(s, m) with t*s == m for a positive integer m: the product of the
    conjugates of t down the tower, with the content taken out of each
    norm on the way."""
    if t.__class__ is int:
        return (1, t) if t > 0 else (-1, -t)
    j, a, b = t
    n = _tadd(_tmul(a, a, rads), _tneg(_tmul(_tmul(b, b, rads), rads[j], rads)))
    if n.__class__ is int and not n:
        raise ZeroDivisorError(
            "zero conjugate norm at level %d; the radicand there is a "
            "perfect square lower in the tower" % j)
    c = _gcd_leaves(n, 0)
    if c != 1:
        n = _rescale(n, 1, c)
    s, m = _inv_tree(n, rads)
    return _tmul((j, a, _tneg(b)), s, rads), m * c


def _div(x, y):
    if y.level == 0:
        if not y.rat:
            raise ZeroDivisionError("division by zero scalar")
        return _mul(x, _rational(1 / y.rat))
    # x/y = x*den(y)*s/m with tree(y)*s = m; the inverse is found even
    # when x is zero, so a zero divisor y is refused whatever x is
    tw = _meet(x, y)
    s, m = _inv_tree(y.tree, tw.rads)
    tx, dx = _parts(x)
    t = _tmul(tx, s, tw.rads)
    if t.__class__ is int and not t:
        return _ZERO
    return _make(tw, t, y.den, dx * m)


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


def _tree_to_obj(t, num, den, scales):
    """The sqrt(d_j)-basis encoding of t*num/den."""
    if t.__class__ is int:
        return rational_string(_Q(t * num, den))
    j = t[0]
    return {"a": _tree_to_obj(t[1], num, den, scales),
            "b": _tree_to_obj(t[2], num * scales[j], den, scales),
            "level": j}


def scalar_to_obj(x):
    """Serialize: rationals as "p/q" strings, a + b*sqrt(d_k) as
    {"a": a, "b": b, "level": k}.  The radicand d_k itself is spelled out
    once, in the radicand header of the document."""
    s = as_scalar(x)
    if s.level == 0:
        return rational_string(s.rat)
    return _tree_to_obj(s.tree, 1, s.den, s.tower.scales)


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
    ta, da = _parts(scalar_from_obj(obj["a"], tower, level - 1))
    b = scalar_from_obj(obj["b"], tower, level - 1)
    if b.is_zero():
        raise InputFormatError("non-canonical scalar: zero radical part")
    # a + b*sqrt(d_j) = a + (b/E_j)*sqrt(d'_j), over one denominator
    tb, db = _parts(b)
    db *= tower.scales[level]
    g = gcd(da, db)
    return _make(tower, (level, _tscale(ta, db // g), _tscale(tb, da // g)),
                 1, da // g * db)


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
