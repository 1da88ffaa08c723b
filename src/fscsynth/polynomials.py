"""Exact multivariate polynomials and rational functions over named parameters.

Polynomials use the packed-exponent layout of Monagan and Pearce (CASC 2007;
ISSAC 2009): a monomial is one int whose field i, w bits wide, holds the
exponent of parameter i (indexed per process in first-use order) and whose
field 0 holds the total degree, so a monomial product is one int addition.
Each polynomial has its own w, 8 at first and doubled, operands repacked,
when a result's degree would not fit: no field carries into its neighbour.
Coefficients are ints over one positive denominator that shares no factor
with all of them. Readers see `terms`: name-sorted ((name, exponent), ...)
tuples mapped to Fractions, rendered in graded lexicographic order. Rational
functions past GCD_TERM_THRESHOLD terms are cancelled by the gcd of their
integer coefficient polynomials in sympy's sparse ring over ZZ, with sympy
imported on that path only. The exact path never touches binary floats.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

Coeffable = Union[int, str, Fraction]

# a monomial, as `terms` shows it, is a tuple of (variable name, positive
# exponent) pairs, sorted by name; the empty tuple is the constant monomial
Monomial = tuple

# field width, in bits, that every polynomial starts from
_WIDTH = 8

# parameter name <-> field index; no result depends on the index order
_FIELD: dict = {}
_NAMES: list = [None]


class MissingParameterError(KeyError):
    def __init__(self, name):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return "no value assigned to parameter '%s'" % self.name


def _coeff(value) -> Fraction:
    # floats are rejected on purpose: exact coefficients only. Decimal
    # strings ("0.6") convert exactly via Fraction's string constructor.
    if isinstance(value, (Fraction, int, str)):
        return value if isinstance(value, Fraction) else Fraction(value)
    raise TypeError("exact coefficient expected, got %r" % (value,))


def _field(name: str) -> int:
    if name not in _FIELD:
        _FIELD[name] = len(_NAMES)
        _NAMES.append(name)
    return _FIELD[name]


def _width(deg: int, w: int = _WIDTH) -> int:
    """The width w, doubled until a field holds total degree deg."""
    while deg >= 1 << w:
        w *= 2
    return w


def _fields(m: int, w: int):
    """(shift, exponent) of each nonzero parameter field of a packed
    monomial; zero fields are skipped, not visited."""
    mask = (1 << w) - 1
    m &= ~mask
    while m:
        sh = (m & -m).bit_length() - 1
        sh -= sh % w
        e = (m >> sh) & mask
        yield sh, e
        m ^= e << sh


@functools.lru_cache(maxsize=1 << 12)
def _decode(m: int, w: int) -> Monomial:
    return tuple(sorted((_NAMES[sh // w], e) for sh, e in _fields(m, w)))


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable. `_mons` maps packed monomials to nonzero int coefficients
    over `_den`; `_w` is the field width and `_deg` a bound on the total
    degree that fits in it. The form is unique per width, so equality is
    structural. `terms` is a read-only view of the store, in its order.
    """

    __slots__ = ("_mons", "_den", "_w", "_deg")

    def __init__(self, terms: Mapping[Monomial, Coeffable] | None = None):
        items = [(mono, _coeff(c)) for mono, c in (terms or {}).items()]
        deg = max((sum(e for _, e in mono) for mono, c in items if c), default=0)
        w = _width(deg)
        acc = {}
        for mono, c in items:
            if c != 0:
                m = 0
                for name, e in mono:
                    if e < 0:
                        raise ValueError("nonnegative exponent expected, got %r" % (e,))
                    m += (e << (w * _field(name))) + e
                s = acc.get(m, 0) + c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        den = math.lcm(*(c.denominator for c in acc.values()))
        _packed({m: c.numerator * (den // c.denominator) for m, c in acc.items()},
                den, w, deg, self)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: Coeffable) -> "Polynomial":
        c = _coeff(value)
        return _packed({0: c.numerator} if c else {}, c.denominator, _WIDTH, 0)

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return _packed({(1 << (_WIDTH * _field(name))) + 1: 1}, 1, _WIDTH, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        w, d = self._w, self._den
        return MappingProxyType(
            {_decode(m, w): Fraction(c, d) for m, c in self._mons.items()})

    def is_zero(self) -> bool:
        return not self._mons

    def is_constant(self) -> bool:
        return not self._mons or (len(self._mons) == 1 and 0 in self._mons)

    def constant_value(self) -> Fraction:
        if self.is_constant():
            return Fraction(self._mons.get(0, 0), self._den)
        raise ValueError("polynomial %s is not constant" % self)

    def variables(self) -> frozenset:
        # a field of the OR of all monomials is nonzero iff some monomial's is
        acc = 0
        for m in self._mons:
            acc |= m
        return frozenset(_NAMES[sh // self._w] for sh, _ in _fields(acc, self._w))

    def degree(self) -> int:
        return max((m & ((1 << self._w) - 1) for m in self._mons), default=0)

    def sorted_terms(self):
        """Terms in canonical (ascending graded-lex) order."""
        w, d = self._w, self._den
        mask = (1 << w) - 1
        keyed = sorted((m & mask, _decode(m, w), c) for m, c in self._mons.items())
        return [(mono, Fraction(c, d)) for _, mono, c in keyed]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = _common(self, other)
        den = math.lcm(a._den, b._den)
        sa, sb = den // a._den, den // b._den
        out = dict(a._mons) if sa == 1 else {m: c * sa for m, c in a._mons.items()}
        for m, c in b._mons.items():
            s = out.get(m, 0) + c * sb
            if s:
                out[m] = s
            else:
                del out[m]
        return _packed(out, den, a._w, max(a._deg, b._deg))

    __radd__ = __add__

    def __neg__(self):
        return _packed({m: -c for m, c in self._mons.items()}, self._den, self._w, self._deg)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._mons or not other._mons:
            return Polynomial()
        deg = self._deg + other._deg
        a, b = _common(self, other, deg)
        out: dict = {}
        get = out.get
        right = b._mons.items()
        for m1, c1 in a._mons.items():
            for m2, c2 in right:
                m = m1 + m2
                s = get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _packed(out, a._den * b._den, a._w, deg)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer exponent expected")
        result = POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = _common(self, other)
        return a._den == b._den and a._mons == b._mons

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, valuation: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation, always a Fraction: int and Fraction values are
        multiplied as they are, any other value is converted exactly first.
        Raises MissingParameterError for absent names."""
        total = 0
        for m, c in self._mons.items():
            for name, e in _decode(m, self._w):
                x = _value(valuation, name)
                if not isinstance(x, (int, Fraction)):
                    x = Fraction(x)
                c *= x if e == 1 else x ** e
            total += c
        return Fraction(total, self._den)

    def evaluate_float(self, valuation: Mapping[str, float]) -> float:
        total = 0.0
        for m, c in self._mons.items():
            # int division rounds correctly, as float(Fraction) does
            v = c / self._den
            for name, e in _decode(m, self._w):
                v *= float(_value(valuation, name)) ** e
            total += v
        return total

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self._mons:
            return "0"
        pieces = []
        for mono, c in self.sorted_terms():
            factor_strs = []
            for name, e in mono:
                factor_strs.extend([name] * e)
            if not factor_strs:
                body = fraction_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factor_strs)
            else:
                body = fraction_str(abs(c)) + "*" + "*".join(factor_strs)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _value(valuation, name):
    try:
        return valuation[name]
    except KeyError:
        raise MissingParameterError(name) from None


def _unlimited(convert, value):
    """convert(value) with the interpreter's int/str digit limit lifted.

    The interpreter refuses int/str conversions past 4300 digits by default;
    exact values can be longer. Callers try the conversion first and redo it
    here when it raises ValueError; the limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _int_str(n: int) -> str:
    """Decimal text of an integer of any length."""
    try:
        return str(n)
    except ValueError:
        return _unlimited(str, n)


def fraction_str(f: Fraction) -> str:
    """'n' for an integer, 'n/d' otherwise, at any length."""
    try:
        return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)
    except ValueError:
        return _unlimited(fraction_str, f)


def _packed(mons: dict, den: int, w: int, deg: int, p=None) -> Polynomial:
    """Polynomial (p, or a new one) of int coefficients over den, less the
    factor they share with den."""
    if den != 1:
        g = math.gcd(den, *mons.values())
        if g != 1:
            mons = {m: c // g for m, c in mons.items()}
            den //= g
    p = object.__new__(Polynomial) if p is None else p
    for slot, value in zip(Polynomial.__slots__, (mons, den, w, deg)):
        object.__setattr__(p, slot, value)
    return p


def _common(a: Polynomial, b: Polynomial, deg: int = 0):
    """a and b repacked to one field width that also holds total degree deg."""
    w = a._w
    if w == b._w and deg < 1 << w:
        return a, b
    w = _width(deg, max(w, b._w))
    return tuple(p if p._w == w else _packed({
        sum(e << (sh // p._w * w) for sh, e in _fields(m, p._w)) + (m & ((1 << p._w) - 1)): c
        for m, c in p._mons.items()}, p._den, w, p._deg) for p in (a, b))


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    return NotImplemented


POLY_ZERO = Polynomial()
POLY_ONE = Polynomial.constant(1)


# ---------------------------------------------------------------------------
# rational functions


def _integer_normal(num: Polynomial, den: Polynomial):
    """Scale so both polynomials have integer coefficients with content 1 and
    the denominator's leading coefficient positive. Each side's coefficients
    are already ints over its denominator, so this is int lcm and gcds."""
    scale = math.lcm(num._den, den._den)
    g = math.gcd(math.gcd(*num._mons.values()) * (scale // num._den),
                 math.gcd(*den._mons.values()) * (scale // den._den))
    factor = Fraction(scale, g)
    # sign of the graded-lex largest monomial of den
    w = den._w
    top = den.degree()
    if den._mons[max((m for m in den._mons if m & ((1 << w) - 1) == top),
                     key=lambda m: _decode(m, w))] < 0:
        factor = -factor
    if factor != 1:
        num = num * Polynomial.constant(factor)
        den = den * Polynomial.constant(factor)
    return num, den


def _content(p: Polynomial, mins: dict) -> dict:
    """The monomial mins ({shift: positive exponent}) lowered to the largest
    one that divides every term of p: a per-field minimum."""
    mask = (1 << p._w) - 1
    for m in p._mons:
        for sh, e in list(mins.items()):
            f = (m >> sh) & mask
            if f < e:
                if f:
                    mins[sh] = f
                else:
                    del mins[sh]
        if not mins:
            break
    return mins


# gcd cancellation is expensive; only triggered past this term count
GCD_TERM_THRESHOLD = 64


@functools.lru_cache(maxsize=None)
def _ring(names: tuple):
    """sympy's sparse polynomial ring over ZZ in `names` (imports sympy)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    return ring(names, ZZ)[0]


def _sympy_cancel(num: Polynomial, den: Polynomial):
    """Divide num and den by the gcd of their integer coefficient
    polynomials, computed in sympy's sparse polynomial ring over ZZ. Each
    side keeps its denominator, so the quotient is unchanged. Returns the
    inputs when the gcd is a constant."""
    a, b = _common(num, den)
    w = a._w
    mask = (1 << w) - 1
    names = tuple(sorted(num.variables() | den.variables()))
    shifts = [w * _FIELD[n] for n in names]
    R = _ring(names)

    def to_ring(p):
        return R.from_dict({tuple((m >> sh) & mask for sh in shifts): c
                            for m, c in p._mons.items()})

    def from_ring(f, p):
        return _packed({sum(exps) + sum(e << sh for e, sh in zip(exps, shifts)): int(c)
                         for exps, c in f.items()}, p._den, w, p._deg)

    g, qn, qd = to_ring(a).cofactors(to_ring(b))
    if g.is_ground:
        return num, den
    return from_ring(qn, a), from_ring(qd, b)


class RationalFunction:
    """Quotient of two Polynomials, kept in a cheap canonical form.

    Normalization works on the packed store: it divides out the shared
    monomial content (per-field exponent minima), clears coefficient
    denominators, divides out the integer content with int gcds and fixes
    the denominator sign. Full gcd cancellation (sympy's sparse ring over ZZ,
    imported on first use) runs only past GCD_TERM_THRESHOLD terms on either
    side, since gcd cost dominates otherwise; the gcd is unique up to a
    constant, which the integer normalization fixes. Equality is
    mathematical (cross multiplication), not representational.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = POLY_ONE if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = POLY_ZERO, POLY_ONE
        else:
            num, den = _common(num, den)
            shared = dict(_fields(next(iter(num._mons)), num._w))
            shared = _content(den, _content(num, shared))
            if shared:  # a monomial division is one int subtraction per term
                k = sum(shared.values())
                c = k + sum(e << sh for sh, e in shared.items())
                num, den = (_packed({m - c: v for m, v in p._mons.items()},
                                    p._den, p._w, p._deg - k) for p in (num, den))
            if num == den:
                num, den = POLY_ONE, POLY_ONE
            else:
                if (len(num._mons) > GCD_TERM_THRESHOLD
                        or len(den._mons) > GCD_TERM_THRESHOLD):
                    num, den = _sympy_cancel(num, den)
                num, den = _integer_normal(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def constant(value) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(value))

    def __bool__(self):
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def variables(self) -> frozenset:
        return self.num.variables() | self.den.variables()

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        elif isinstance(other, Polynomial):
            other = RationalFunction(other)
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # constants hash like their value; general functions by structure
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num, self.den))

    def evaluate(self, valuation) -> Fraction:
        d = self.den.evaluate(valuation)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at %s" % (valuation,))
        return self.num.evaluate(valuation) / d

    def __str__(self):
        num = self.num
        den = self.den
        if den == POLY_ONE:
            return str(num)
        ns = str(num) if len(num._mons) <= 1 else "(%s)" % num
        ds = str(den) if len(den._mons) <= 1 else "(%s)" % den
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "RationalFunction(%s)" % self


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction.constant(x)
    return NotImplemented


RF_ZERO = RationalFunction.constant(0)
