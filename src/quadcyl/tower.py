"""Exact arithmetic in towers of quadratic extensions of the rationals.

A Tower records an ordered chain of adjoined radicands d_1, ..., d_k,
each a value of the floor below it, so F_0 = Q and F_{i+1} = F_i(sqrt(d_{i+1})).
A TowerScalar is an element of some floor.

Layout.  Every element is an integer tree T over one positive integer
denominator D, meaning T/D.  A tree is a Python int, or a tuple (j, A, B)
meaning A + B*sqrt(d'_j), where A and B are trees of level below j and
B != 0.  A rational (level 0) is therefore a plain int over D, in lowest
terms; its sums and products reduce by Henrici's cross gcds (Knuth, TAOCP
vol. 2, 4.5.1), and no Fraction is built on the way.  The generators are
scaled so that trees multiply to trees: level j stores its radicand once in
integral form d'_j = E_j*E_j*d_j, where E_j is the denominator of d_j, so
d'_j is itself a tree and sqrt(d'_j) = E_j*sqrt(d_j).

Values are canonical: D > 0, the gcd of D and all leaves of T is 1, and
no node has B = 0, so every element has exactly one representation and
equality is structural.  Arithmetic runs on the trees in plain integers
and normalizes each result once, instead of reducing a fraction at every
leaf; an inverse is conj(T)/N(T), recursing on the integer norm N(T).

Products.  Two nodes of the same level j multiply as
(A + B*r)(C + D*r) = (AC + BD*d'_j) + ((A+B)(C+D) - AC - BD)*r, with
r = sqrt(d'_j): three products one level down instead of four
(Karatsuba-Ofman).  When any of A, B, C, D is a plain int its products
are integer scalings, cheaper than the extra additions, so there the
four-product form AC + BD*d'_j + (AD + BC)*r is kept as the base case.
A node times a node of a lower level multiplies both halves.

The sqrt(d_j) basis, a + b*sqrt(d_j) with a and b at lower levels (the
coefficient on sqrt(d'_j) is b/E_j), appears only at the edges: the
read-only .a and .b, repr, scalar_to_obj and scalar_from_obj.  So does
Fraction: the read-only .rat of a rational.  scalar_from_obj reads a
whole scalar in one pass: each leaf literal becomes its (num, den), each
node one tree over the least common denominator of its halves, with b
divided by E_j, and only the finished tree is reduced to canonical form.

Towers are immutable.  extend() returns a child tower sharing the parent
chain, so scalars built before an extension remain valid in every
descendant, and a rejected search branch can simply drop its child tower.

Everything here is exact; no floats ever appear.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction as _Q
from math import gcd

from .errors import InputFormatError, TowerError, TowerLimitError, ZeroDivisorError

DEFAULT_TOWER_LIMIT = 16


class Tower:
    """A chain of quadratic extensions of Q, identified by its radicands.
    ancestors[j] is the tower of floor j < height, so no tower refers to
    itself; scales[j] is E_j and rads[j] the integral radicand d'_j (index
    0 is a placeholder for Q)."""

    __slots__ = ("radicand", "height", "limit", "ancestors", "scales", "rads")

    def __init__(self, *, _parent=None, _radicand=None, limit=DEFAULT_TOWER_LIMIT):
        if _parent is None:
            self.radicand = None
            self.height = 0
            self.limit = limit
            self.ancestors = ()
            self.scales = (1,)
            self.rads = (None,)
        else:
            self.radicand = _radicand
            self.height = _parent.height + 1
            self.limit = _parent.limit
            self.ancestors = _parent.ancestors + (_parent,)
            e = _radicand.den
            self.scales = _parent.scales + (e,)
            self.rads = _parent.rads + (_tscale(_radicand.tree, e),)

    @classmethod
    def rationals(cls, limit: int = DEFAULT_TOWER_LIMIT) -> "Tower":
        return cls(limit=limit)

    def floor(self, level: int) -> "Tower":
        """The tower of floor level <= height: this tower at its own
        height, else its ancestor there."""
        return self if level == self.height else self.ancestors[level]

    def extend(self, radicand) -> "Tower":
        """Adjoin sqrt(radicand).  The radicand must be a nonzero value of
        this tower (level <= height) that has no square root in it as far
        as sqrt_if_present sees: a rational-square multiple of an adjoined
        radicand, or a rational one of a product of adjoined rational
        radicands (sqrt(6) over sqrt(2), sqrt(3)), is refused."""
        tw = self._adjoin(as_scalar(radicand))
        if sqrt_if_present(self, tw.radicand) is not None:
            raise TowerError("radicand already has a square root in this tower")
        return tw

    def _adjoin(self, d) -> "Tower":
        """extend without the square test, for callers that just made it."""
        if d.is_zero():
            raise TowerError("cannot adjoin the square root of zero")
        try:
            inside = not d.level or deeper_tower(self, d.tower) is self
        except TowerError:
            inside = False
        if not inside:
            raise TowerError("radicand does not live in this tower")
        if self.height + 1 > self.limit:
            raise TowerLimitError(
                "tower height limit %d exceeded" % self.limit)
        return Tower(_parent=self, _radicand=d)

    def radicands(self) -> tuple:
        """The adjoined radicands, in adjunction order."""
        return tuple(self.floor(k).radicand for k in range(1, self.height + 1))

    def generator(self, level: int):
        """sqrt(d_level) as a scalar of this tower (level is 1-based)."""
        if not 1 <= level <= self.height:
            raise TowerError("no generator at level %d" % level)
        return _node(self.floor(level), (level, 0, 1), self.scales[level])

    def __repr__(self):
        return "Tower(height=%d, limit=%d)" % (self.height, self.limit)


class TowerScalar:
    """One exact value of some floor of a tower.  Immutable.  Its value is
    tree/den as described in the module docstring.  A rational has level 0,
    an int tree and no tower; a node has tower.height == level."""

    __slots__ = ("level", "tree", "den", "tower")

    @property
    def rat(self):
        """The value as a Fraction (None on nodes)."""
        if self.level != 0:
            return None
        return _Q(self.tree, self.den)

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
        return not self.tree

    def __bool__(self):
        return bool(self.tree)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _eq(self, other)

    def __hash__(self):
        if self.level == 0:
            return _hash_rational(self.tree, self.den)
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
            if self.den == 1:
                return _int_text(self.tree)
            return rational_string(self.tree, self.den)
        return "(%r + %r*s%d)" % (self.a, self.b, self.level)


def _rational(num, den):
    """The rational num/den, for ints already in lowest terms, den > 0."""
    s = TowerScalar.__new__(TowerScalar)
    s.level = 0
    s.tree = num
    s.den = den
    s.tower = None
    return s


def _ratio(num, den):
    """The rational num/den, for ints with den > 0."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _rational(num, den)


_HASH_MODULUS = sys.hash_info.modulus


def _hash_rational(num, den):
    """hash(Fraction(num, den)), by Python's rule for numeric hashes."""
    if den == 1:
        return hash(num)
    try:
        h = hash(hash(abs(num)) * pow(den, -1, _HASH_MODULUS))
    except ValueError:  # the modulus divides den
        h = sys.hash_info.inf
    h = h if num >= 0 else -h
    return -2 if h == -1 else h


def _node(tower, t, den):
    """The node t/den, already canonical, whose top level is tower.height."""
    s = TowerScalar.__new__(TowerScalar)
    s.level = tower.height
    s.tree = t
    s.den = den
    s.tower = tower
    return s


ZERO = _rational(0, 1)
ONE = _rational(1, 1)


def _coerce(x):
    if x.__class__ is TowerScalar:
        return x
    if x.__class__ is int:
        return _rational(x, 1)
    if isinstance(x, numbers.Rational):
        return _ratio(int(x.numerator), int(x.denominator))
    return None


def as_scalar(x) -> TowerScalar:
    """Coerce an int, a Fraction (any numbers.Rational), or a "p/q" string
    to a scalar; a scalar is returned as it is."""
    if x.__class__ is TowerScalar:
        return x
    if isinstance(x, str):
        return parse_rational(x)
    s = _coerce(x)
    if s is None:
        raise TowerError("cannot interpret %r as an exact scalar" % (x,))
    return s


def scalar(x) -> TowerScalar:
    return as_scalar(x)


# Decimal text of ints of any size.  Python refuses int <-> str conversions
# above sys.get_int_max_str_digits() digits (4300 by default, never less
# than 640 unless 0, meaning no limit); longer numbers go through pieces
# of _PIECE digits, so no process-wide setting is read or changed.
_PIECE = 600
_PIECE_BASE = 10 ** _PIECE

# The most digits, numerator and denominator together, that one rational
# literal of a document may carry; reading refuses longer ones before
# converting them.  The longest literals of three valid certificates on a
# pencil with no rational coordinate line (height 8, ROADMAP.md Baseline)
# have 1364 to 1663 digits; the cap leaves a margin of about sixty times.
MAX_LITERAL_DIGITS = 100_000


def _int_text(n: int) -> str:
    """str(n), for an int of any size."""
    if -_PIECE_BASE < n < _PIECE_BASE:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    pieces = []
    while n:
        n, r = divmod(n, _PIECE_BASE)
        pieces.append(r)
    return str(pieces[-1]) + "".join("%0*d" % (_PIECE, r)
                                     for r in reversed(pieces[:-1]))


def _text_int(digits: str) -> int:
    """int(digits), for ASCII digits of any length after an optional
    minus."""
    if len(digits) <= _PIECE:
        return int(digits)
    if digits[:1] == "-":
        return -_text_int(digits[1:])
    n = 0
    for i in range(0, len(digits), _PIECE):
        piece = digits[i:i + _PIECE]
        n = n * 10 ** len(piece) + int(piece)
    return n


def _quoted(text: str) -> str:
    """text for an error message: quoted, but past 40 characters only its
    head, then its length, so a refused literal gives a short message."""
    if len(text) <= 40:
        return repr(text)
    return "%r... (%d characters)" % (text[:40], len(text))


def parse_rational(text: str) -> TowerScalar:
    """Parse "p/q" or "p" in normal form: ASCII digits, an optional leading
    minus, no leading zeros, no negative zero, positive denominator, lowest
    terms, at most MAX_LITERAL_DIGITS digits.  Anything accepted is written
    back as the same text (the bare "p" form as "p/1")."""
    ns, slash, ds = text.partition("/")
    digits = ns[1:] if ns[:1] == "-" else ns
    if not (text.isascii() and digits.isdigit() and
            (not slash or (ds[1:] if ds[:1] == "-" else ds).isdigit())):
        raise InputFormatError(
            "not a rational literal: %s" % _quoted(text))
    if len(digits) + len(ds) > MAX_LITERAL_DIGITS:
        raise InputFormatError(
            "rational literal has %d digits, above the cap of %d"
            % (len(digits) + len(ds), MAX_LITERAL_DIGITS))
    num = _text_int(ns)
    den = _text_int(ds) if slash else 1
    if den <= 0:
        raise InputFormatError(
            "denominator must be positive: %s" % _quoted(text))
    if (len(digits) > 1 and digits[0] == "0") or ds[:1] == "0":
        raise InputFormatError(
            "leading zero in rational: %s" % _quoted(text))
    if ns[0] == "-" and not num:
        raise InputFormatError(
            "negative zero in rational: %s" % _quoted(text))
    if gcd(num, den) != 1:
        raise InputFormatError(
            "rational not in lowest terms: %s" % _quoted(text))
    return _rational(num, den)


def _same_chain(t1: Tower, t2: Tower) -> bool:
    if t1 is t2:
        return True
    if t1.height != t2.height:
        return False
    for k in range(1, t1.height + 1):
        u, v = t1.floor(k), t2.floor(k)
        if u is not v and not _eq(u.radicand, v.radicand):
            return False
    return True


def _eq(x, y) -> bool:
    if x is y:
        return True
    if x.level != y.level or x.den != y.den or x.tree != y.tree:
        return False
    return x.level == 0 or x.tower is y.tower or _same_chain(x.tower, y.tower)


def _meet(x, y):
    """The tower of the common floor for an operation on x and y."""
    if x.level >= y.level:
        hi, lo = x, y
    else:
        hi, lo = y, x
    if lo.level == 0 or hi.tower is lo.tower:
        return hi.tower
    return deeper_tower(hi.tower, lo.tower)


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
    ac = _tmul(xa, ya, rads)
    bd = _tmul(xb, yb, rads)
    if (xa.__class__ is int or xb.__class__ is int or
            ya.__class__ is int or yb.__class__ is int):
        hi = _tadd(_tmul(xa, yb, rads), _tmul(xb, ya, rads))
    else:
        hi = _tadd(_tmul(_tadd(xa, xb), _tadd(ya, yb), rads),
                   _tneg(_tadd(ac, bd)))
    return _tnode(jx, _tadd(ac, _tmul(bd, rads[jx], rads)), hi)


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
        return _ratio(t * num, den)
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    g = _gcd_leaves(t, den)
    if g != 1 or num != 1:
        t = _rescale(t, num, g)
        den //= g
    return _node(tower.floor(t[0]), t, den)


def _add(x, y):
    tx, dx = x.tree, x.den
    ty, dy = y.tree, y.den
    if x.level == 0 and y.level == 0:
        if dx == dy == 1:
            return _rational(tx + ty, 1)
        # Henrici: only the common factor of the denominators can cancel
        g = gcd(dx, dy)
        if g == 1:
            return _rational(tx * dy + ty * dx, dx * dy)
        dx //= g
        t = tx * (dy // g) + ty * dx
        g2 = gcd(t, g)
        return _rational(t // g2, dx * (dy // g2))
    if not tx:
        return y
    if not ty:
        return x
    tw = _meet(x, y)
    g = gcd(dx, dy)
    t = _tadd(_tscale(tx, dy // g), _tscale(ty, dx // g))
    if t.__class__ is int and not t:
        return ZERO
    return _make(tw, t, 1, dx // g * dy)


def _neg(x):
    if x.level == 0:
        return _rational(-x.tree, x.den)
    return _node(x.tower, _tneg(x.tree), x.den)


def _mul(x, y):
    tx, dx = x.tree, x.den
    ty, dy = y.tree, y.den
    if x.level == 0:
        if y.level == 0:
            if dx == dy == 1:
                return _rational(tx * ty, 1)
            # Henrici: cancel across before multiplying
            g = gcd(tx, dy)
            if g != 1:
                tx //= g
                dy //= g
            g = gcd(ty, dx)
            if g != 1:
                ty //= g
                dx //= g
            return _rational(tx * ty, dx * dy)
        if not tx:
            return ZERO
        if tx == dx == 1:
            return y
        return _make(y.tower, ty, tx, dy * dx)
    if y.level == 0:
        if not ty:
            return ZERO
        if ty == dy == 1:
            return x
        return _make(x.tower, tx, ty, dx * dy)
    tw = _meet(x, y)
    t = _tmul(tx, ty, tw.rads)
    if t.__class__ is int and not t:
        return ZERO
    return _make(tw, t, 1, dx * dy)


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
        ty, dy = y.tree, y.den
        if not ty:
            raise ZeroDivisionError("division by zero scalar")
        if ty < 0:
            ty, dy = -ty, -dy
        # x times dy/ty, with ty > 0
        return _mul(x, _rational(dy, ty))
    # x/y = x*den(y)*s/m with tree(y)*s = m; the inverse is found even
    # when x is zero, so a zero divisor y is refused whatever x is
    tw = _meet(x, y)
    s, m = _inv_tree(y.tree, tw.rads)
    t = _tmul(x.tree, s, tw.rads)
    if t.__class__ is int and not t:
        return ZERO
    return _make(tw, t, y.den, x.den * m)


def _sqrt_rational(x):
    """Exact square root of a positive rational scalar, or None."""
    rn = math.isqrt(x.tree)
    if rn * rn != x.tree:
        return None
    rd = math.isqrt(x.den)
    if rd * rd != x.den:
        return None
    return _rational(rn, rd)


def _rational_ratio(x, y):
    """x/y when it is rational, else None, for nonzero x and y of one
    level.  Canonical trees are rational multiples of each other exactly
    when they have one shape and proportional leaves, so the ratio is
    read off the last leaves (nonzero: the end of the B chain) and the
    trees are compared cross-multiplied by them: no inverse is computed."""
    a, b = x.tree, y.tree
    while a.__class__ is not int:
        a = a[2]
    while b.__class__ is not int:
        b = b[2]
    if _tscale(x.tree, b) != _tscale(y.tree, a):
        return None
    num, den = a * y.den, b * x.den
    return _ratio(num, den) if den > 0 else _ratio(-num, -den)


def _rational_root(tower: Tower, v):
    """A square root of the nonzero rational v over the tower's rational
    radicands d_i, or None.  By Kummer theory v is a square in
    Q(sqrt(d_i) : i) exactly when q = v/prod_S d_i is a rational square
    for some subset S of them, and sqrt(q)*prod_S sqrt(d_i) is then a
    root.  The subsets are walked in Gray-code order, so each next q is
    one product or quotient away and none is stored."""
    levels = [i for i in range(1, tower.height + 1)
              if not tower.floor(i).radicand.level]
    q, subset = v, 0
    for step in range(1 << len(levels)):
        if step:
            k = (step & -step).bit_length() - 1
            subset ^= 1 << k
            d = tower.floor(levels[k]).radicand
            q = _div(q, d) if subset >> k & 1 else _mul(q, d)
        r = _sqrt_rational(q) if q.tree > 0 else None
        if r is not None:
            for k, i in enumerate(levels):
                if subset >> k & 1:
                    r = _mul(r, tower.generator(i))
            return r
    return None


def sqrt_if_present(tower: Tower, value) -> TowerScalar | None:
    """A square root of value already expressible in the tower, or None.

    A rational value is decided over the k rational radicands
    (_rational_root), which is exact when every radicand is rational; a
    miss walks 2^k subsets, and only the tower's height limit
    (`--tower-limit`) bounds k.  A node value is found only as a
    rational-square multiple of an adjoined radicand; no norm equations
    are solved, so a nested square such as 3 + 2*sqrt(2) =
    (1 + sqrt(2))^2 is missed, and so is a rational value whose root
    needs a nested radicand.  value/d_i can only be rational
    when value and d_i share a level, and is then found by comparing their
    integer trees (_rational_ratio), without dividing; value must still
    lie on the tower's chain (TowerError otherwise).
    """
    v = as_scalar(value)
    if not v.tree:
        return ZERO
    if v.level == 0:
        return _rational_root(tower, v)
    for i in range(1, tower.height + 1):
        d = tower.floor(i).radicand
        if d.level:
            _meet(v, d)
        if d.level != v.level:
            continue
        ratio = _rational_ratio(v, d)
        if ratio is not None and ratio.tree > 0:
            r = _sqrt_rational(ratio)
            if r is not None:
                return _mul(r, tower.generator(i))
    return None


def try_sqrt(tower: Tower, value):
    """(s, tower') with s*s == value, adjoining a new radicand if needed."""
    v = as_scalar(value)
    s = sqrt_if_present(tower, v)
    if s is not None:
        return s, tower
    t2 = tower._adjoin(v)
    return t2.generator(t2.height), t2


def deeper_tower(t1: Tower, t2: Tower) -> Tower:
    """The deeper of two towers on one chain (t1 on a tie)."""
    high, low = (t1, t2) if t1.height >= t2.height else (t2, t1)
    if not _same_chain(high.floor(low.height), low):
        raise TowerError("scalars belong to unrelated towers")
    return high


def deepest_tower(scalars, base: Tower) -> Tower:
    """The deepest tower among base and the scalars' own towers, after
    checking they all sit on one chain."""
    best = base
    for s in scalars:
        if s.level:
            best = deeper_tower(best, s.tower)
    return best


def rational_string(num, den) -> str:
    """The "p/q" text of num/den in lowest terms, for ints with den > 0."""
    g = gcd(num, den)
    return _int_text(num // g) + "/" + _int_text(den // g)


def _tree_to_obj(t, num, den, scales, nodes):
    """The sqrt(d_j)-basis encoding of t*num/den; its nodes go to nodes."""
    if t.__class__ is int:
        return rational_string(t * num, den)
    j = t[0]
    nodes.append({"a": _tree_to_obj(t[1], num, den, scales, nodes),
                  "b": _tree_to_obj(t[2], num * scales[j], den, scales, nodes),
                  "level": j})
    return nodes[-1]  # appended after its children


def scalar_to_obj(x):
    """Serialize: rationals as "p/q" strings, a + b*sqrt(d_k) as
    {"a": a, "b": b, "level": k}.  The radicand d_k itself is spelled out
    once, in the radicand header of the document."""
    return _scalar_to_obj(x, [])


def _scalar_to_obj(x, nodes):
    """scalar_to_obj, appending each node dict it builds to nodes."""
    s = as_scalar(x)
    if not s.level:  # in lowest terms already
        return _int_text(s.tree) + "/" + _int_text(s.den)
    return _tree_to_obj(s.tree, 1, s.den, s.tower.scales, nodes)


_NODE_KEYS = frozenset(("a", "b", "level"))


def scalar_from_obj(obj, tower: Tower) -> TowerScalar:
    """Parse the scalar_to_obj encoding against a tower.  Rejects
    non-canonical input (zero radical part, unreduced rationals, a level
    outside the tower or not above both children) so that serialization
    round-trips are bit-exact."""
    return _scalar_from_obj(obj, tower, {})


def _scalar_from_obj(obj, tower, literals):
    """scalar_from_obj, with literals memoizing the parse_rational of each
    leaf literal (serialize keeps one such memo per document)."""
    t, den = _node_parts(obj, tower.height, tower.scales, literals)
    return _make(tower, t, 1, den)


def _node_parts(obj, top, scales, literals):
    """(t, den) with value t/den for the encoding of a value whose node
    levels are at most top: a leaf's (num, den), or a node's tree over the
    least common denominator of its halves, not reduced any further.  Each
    level is checked before its children are read, so the recursion is no
    deeper than the tower."""
    if obj.__class__ is str:
        s = literals.get(obj)
        if s is None:
            s = literals[obj] = parse_rational(obj)
        return s.tree, s.den
    if not isinstance(obj, dict):
        raise InputFormatError("scalar must be a string or an object")
    if obj.keys() != _NODE_KEYS:
        raise InputFormatError(
            "scalar object must have exactly the keys a, b, level")
    level = obj["level"]
    if not isinstance(level, int) or isinstance(level, bool):
        raise InputFormatError("scalar level must be an integer")
    if not 1 <= level <= top:
        raise InputFormatError(
            "scalar level %d is outside 1..%d: above the tower, or not "
            "below its parent node" % (level, top))
    ta, da = _node_parts(obj["a"], level - 1, scales, literals)
    tb, db = _node_parts(obj["b"], level - 1, scales, literals)
    # a node's tree is never zero, so b is zero only as the leaf 0
    if not tb:
        raise InputFormatError("non-canonical scalar: zero radical part")
    # a + b*sqrt(d_j) = a + (b/E_j)*sqrt(d'_j), over one denominator
    db *= scales[level]
    if da == db:
        return (level, ta, tb), da
    g = gcd(da, db)
    return (level, _tscale(ta, db // g), _tscale(tb, da // g)), da // g * db


def tower_to_obj(tower: Tower) -> list:
    return [scalar_to_obj(d) for d in tower.radicands()]


def tower_from_obj(objs, base: Tower | None = None) -> Tower:
    """Rebuild a tower from its radicand list, which must extend base's
    radicands (prefix match, checked exactly).  base defaults to
    Tower.rationals(); its height limit bounds the rebuilt tower."""
    tw = Tower.rationals() if base is None else base
    if len(objs) < tw.height:
        raise InputFormatError("radicand list shorter than the base tower")
    for i in range(1, tw.height + 1):
        d = scalar_from_obj(objs[i - 1], tw.floor(i - 1))
        if not _eq(d, tw.floor(i).radicand):
            raise InputFormatError(
                "radicand %d does not match the base tower" % i)
    for obj in objs[tw.height:]:
        d = scalar_from_obj(obj, tw)
        tw = tw.extend(d)
    return tw
