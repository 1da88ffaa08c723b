"""Exact multivariate polynomials and rational functions over named parameters.

Polynomials use the packed-exponent layout of Monagan and Pearce (CASC 2007;
ISSAC 2009): a monomial is one int whose field i, w bits wide, holds the
exponent of parameter i (indexed per process in first-use order, _FIELD,
with each name's own monomial kept in _MONO) and whose field 0 holds the
total degree, so a monomial product is one int addition.
Each polynomial has its own w, 8 at first and doubled, operands repacked,
when a result's degree would not fit: no field carries into its neighbour.
Coefficients are ints over one positive denominator that shares no factor
with all of them. Readers see `terms`: name-sorted ((name, exponent), ...)
tuples mapped to Fractions. The packed store is read and built only inside
this module. __str__ prints straight from it, in graded lexicographic
order (the degree field, then _decode): each term's sign and reduced n/d
from one gcd of its int coefficient with the denominator, and each
monomial's `x*x*y` text made once per monomial and width (_factors_str).
A product with an int or Fraction scales the int coefficients, the store
of the product with that constant Polynomial without building it. _interval
evaluates the packed terms and their int coefficients over a box whose
bounds are ints over one common denominator, and a point is the box with
lo = hi. It serves evaluate, models.apply_instantiation (every entry of a
chain at one point) and the region bounds of analysis (many boxes).
_read_printed builds the store of a text in the form __str__ prints
(_PRINTED_RE) with int arithmetic, adding up the _MONO monomials of its
factors; formats.parse_poly reads every entry write_pmc writes that way.
variables_of names the parameters of many polynomials at once, for the
declaration check of models.PmcT.

A polynomial common factor is divided out in one way only, by cancel: the
int content, or, once an operand passes GCD_TERM_THRESHOLD terms, the
cofactors of the gcd of the integer coefficient polynomials in sympy's
sparse ring over ZZ (_sympy_cancel), with sympy imported on that path only.
The fraction-free elimination in analysis divides by it twice per
substitution: cancel on the pivot ratio, and divide_content, which divides
a row and its pivot in place (over ints with one math.gcd, with a
Polynomial among them by cancel). Its closed forms end with one
_sympy_cancel whatever their size; RationalFunction runs no gcd. The exact
path never touches binary floats.
"""

from __future__ import annotations

import functools
import math
import operator
import re
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

# parameter name <-> field index; no result depends on the index order.
# _MONO holds each name's packed monomial at width _WIDTH, the name itself
_FIELD: dict = {}
_NAMES: list = [None]
_MONO: dict = {}


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


def _monomial(name: str) -> int:
    """The packed monomial of name at width _WIDTH, made once per name."""
    m = _MONO.get(name)
    if m is None:
        m = _MONO[name] = (1 << (_WIDTH * _field(name))) + 1
    return m


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


@functools.lru_cache(maxsize=1 << 12)
def _factors_str(m: int, w: int) -> str:
    """The factors of a packed monomial as __str__ prints them, `x*x*y`;
    empty for the constant monomial."""
    return "*".join(name for name, e in _decode(m, w) for _ in range(e))


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable. `_mons` maps packed monomials to nonzero int coefficients
    over `_den`; `_w` is the field width and `_deg` a bound on the total
    degree that fits in it. Every constructor keeps `_deg` at or above the
    exact total degree (a sum whose top terms cancel keeps the larger
    bound), which _interval relies on. The form is unique per width, so
    equality is structural. `terms` is a read-only view of the store, in
    its order.
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
        return _packed({_monomial(name): 1}, 1, _WIDTH, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        w, d = self._w, self._den
        return MappingProxyType(
            {_decode(m, w): Fraction(c, d) for m, c in self._mons.items()})

    def is_zero(self) -> bool:
        return not self._mons

    def __bool__(self):
        return bool(self._mons)

    def as_integer_ratio(self):
        """(integer polynomial, positive int) with self as their quotient, as
        int and Fraction give theirs."""
        return _packed(self._mons, 1, self._w, self._deg), self._den

    def is_constant(self) -> bool:
        return not self._mons or (len(self._mons) == 1 and 0 in self._mons)

    def constant_value(self) -> Fraction:
        if self.is_constant():
            return Fraction(self._mons.get(0, 0), self._den)
        raise ValueError("polynomial %s is not constant" % self)

    def variables(self) -> frozenset:
        return variables_of((self,))

    def degree(self) -> int:
        return max((m & ((1 << self._w) - 1) for m in self._mons), default=0)

    def occurrences(self) -> int:
        """The number of (term, parameter) pairs: each term counts the
        parameters it mentions, its nonzero fields, so x*x counts 1."""
        w = self._w
        return sum(len(_decode(m, w)) for m in self._mons)

    def int_terms(self):
        """(terms, den): the terms in canonical (ascending graded-lex) order
        as (monomial, int c) pairs, each coefficient being c / den."""
        w = self._w
        mask = (1 << w) - 1
        keyed = sorted((m & mask, _decode(m, w), c) for m, c in self._mons.items())
        return [(mono, c) for _, mono, c in keyed], self._den

    def sorted_terms(self):
        """Terms in canonical (ascending graded-lex) order."""
        items, d = self.int_terms()
        return [(mono, Fraction(c, d)) for mono, c in items]

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
        if isinstance(other, (int, Fraction)):
            # a constant scales the int coefficients: the store of
            # self * Polynomial.constant(other), without building it
            n, d = other.numerator, other.denominator
            if not n or not self._mons:
                return _packed({}, 1, _WIDTH, 0)
            return _packed({m: c * n for m, c in self._mons.items()},
                           self._den * d, self._w, self._deg)
        if not isinstance(other, Polynomial):
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
        if self.is_constant():
            return Polynomial.constant(self.constant_value() ** n)
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
        read as they are, any other value is converted exactly first.
        Raises MissingParameterError for the first absent name in sorted
        order."""
        xs = {}
        for name in sorted(self.variables()):
            x = _value(valuation, name)
            xs[name] = x if isinstance(x, (int, Fraction)) else Fraction(x)
        D = math.lcm(*(x.denominator for x in xs.values()))
        point = {name: x.numerator * (D // x.denominator) for name, x in xs.items()}
        num, _, den = _interval(self, point, point, D)
        return Fraction(num, den)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self._mons:
            return "0"
        mons, den, w = self._mons, self._den, self._w
        mask = (1 << w) - 1
        pieces = []
        for m in sorted(mons, key=lambda m: (m & mask, _decode(m, w))):
            c = mons[m]
            n = abs(c)
            d = den
            if d != 1:
                g = math.gcd(n, d)
                n //= g
                d //= g
            factors = _factors_str(m, w)
            if factors and n == d == 1:
                body = factors
            else:
                try:
                    body = str(n) if d == 1 else "%d/%d" % (n, d)
                except ValueError:  # past the int/str digit limit
                    body = _int_str(n) if d == 1 else _int_str(n) + "/" + _int_str(d)
                if factors:
                    body += "*" + factors
            if pieces:
                pieces.append((" + " if c > 0 else " - ") + body)
            else:
                pieces.append(body if c > 0 else "-" + body)
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


def _interval(poly: Polynomial, lo, hi, D):
    """(bottom, top, den) with the range of poly over a box inside
    [bottom / den, top / den], by per-term interval arithmetic on poly's
    packed monomials and int coefficients: exact when no variable occurs in
    two terms. lo and hi map each parameter of poly to the numerators of its
    interval [lo / D, hi / D]; a term of total degree k is scaled by
    D ** (deg - k), so all of them sit over den = poly's denominator *
    D ** deg, deg the stored degree bound poly._deg. Where that exceeds the
    exact degree, every term and den carry the same extra power of D, so
    the values do not change. A point is the box whose hi is lo: each
    term's product is formed once, and bottom == top is poly's value there
    times den."""
    w = poly._w
    mask = (1 << w) - 1
    mons = poly._mons
    deg = poly._deg
    bottom = top = 0
    for m, c in mons.items():
        scale = D ** (deg - (m & mask))
        factors = _decode(m, w)
        at_lo = scale
        for name, e in factors:
            at_lo *= lo[name] ** e
        if hi is lo:
            bottom += c * at_lo
            continue
        at_hi = scale
        for name, e in factors:
            at_hi *= hi[name] ** e
        if c > 0:
            bottom += c * at_lo
            top += c * at_hi
        else:
            bottom += c * at_hi
            top += c * at_lo
    return bottom, bottom if hi is lo else top, poly._den * D ** deg


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


# The text Polynomial.__str__ prints: terms `c`, `n/d*x*y` or `x*y` joined
# by ' + ' and ' - ', the first one optionally negated. No token can run on
# into the next, so the match never backtracks: linear in the text.
_PRINTED_TERM = r"(?:\d+(?:/\d+)?|[A-Za-z_]\w*)(?:\*[A-Za-z_]\w*)*"
_PRINTED_RE = re.compile(r"-?{0}(?: [+-] {0})*".format(_PRINTED_TERM), re.ASCII)


def _read_printed(text: str):
    """The Polynomial of a text that _PRINTED_RE matches, built with int
    arithmetic to the store that the grammar of formats builds: terms summed
    left to right over the lcm of their denominators, a term that cancels
    dropped where it cancels. None for a term of 256 or more factors (past
    the 8-bit field) or a zero denominator, which the grammar handles."""
    terms = []
    den = 1
    deg = 0
    for term in text.replace(" - ", " + -").split(" + "):
        n = d = 1
        if term[0] == "-":
            n, term = -1, term[1:]
        factors = term.split("*")
        if term[0].isdigit():
            num, _, d = factors.pop(0).partition("/")
            n *= int(num)
            d = int(d) if d else 1
            if not d:
                return None
        if len(factors) > 255:
            return None
        try:
            m = sum(map(_MONO.__getitem__, factors))
        except KeyError:
            m = sum(map(_monomial, factors))
        # a zero term is the grammar's Polynomial(): no monomial, degree 0
        if n:
            terms.append((m, n, d))
            den = math.lcm(den, d)
            deg = max(deg, len(factors))
    acc = {}
    for m, n, d in terms:
        s = acc.get(m, 0) + n * (den // d)
        if s:
            acc[m] = s
        else:
            del acc[m]
    return _packed(acc, den, _WIDTH, deg)


def variables_of(polys) -> frozenset:
    """The parameter names of the Polynomials among polys, anything else
    skipped: one OR of all their packed monomials per field width. A field
    of the OR is nonzero iff some monomial's is."""
    acc = {}
    for p in polys:
        if isinstance(p, Polynomial):
            w = p._w
            acc[w] = functools.reduce(operator.or_, p._mons, acc.get(w, 0))
    return frozenset(_NAMES[sh // w] for w, a in acc.items() for sh, _ in _fields(a, w))


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


# past this many terms on some operand, cancel divides out the polynomial
# gcd through sympy; below it, only the int content
GCD_TERM_THRESHOLD = 64


@functools.lru_cache(maxsize=None)
def _ring(names: tuple):
    """sympy's sparse polynomial ring over ZZ in `names` (imports sympy)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    return ring(names, ZZ)[0]


def _sympy_cancel(*ps):
    """Divide the polynomials ps by the gcd of their integer coefficient
    polynomials, computed as pairwise cofactors in sympy's sparse
    polynomial ring over ZZ in their variables. Each keeps its denominator,
    so every quotient of two of them is unchanged. Returns the inputs when
    the gcd is a constant."""
    top = max(ps, key=lambda p: p._w)
    w = top._w
    mask = (1 << w) - 1
    names = tuple(sorted(set().union(*(p.variables() for p in ps))))
    shifts = [w * _FIELD[n] for n in names]
    R = _ring(names)
    fs = [R.from_dict({tuple((m >> sh) & mask for sh in shifts): c
                       for m, c in _common(p, top)[0]._mons.items()}) for p in ps]
    g, qs = fs[0], [R.one]
    for f in fs[1:]:
        g, a, b = g.cofactors(f)
        if g.is_ground:
            return ps
        qs = [q * a for q in qs]
        qs.append(b)
    return tuple(_packed({sum(exps) + sum(e << sh for e, sh in zip(exps, shifts)): int(c)
                          for exps, c in q.items()}, p._den, w, p._deg)
                 for q, p in zip(qs, ps))


def cancel(*ps):
    """The ints or integer Polynomials ps divided by a common factor, the
    one analysis._eliminate divides out of a pivot ratio (and, through
    divide_content, of a row): _sympy_cancel's cofactors once one of them
    has more than GCD_TERM_THRESHOLD terms and their gcd is not a constant,
    their int content otherwise. Returns the inputs when the content is 1
    (or all of them are 0); mixed with Polynomials, an int comes back as a
    constant Polynomial."""
    try:
        g = math.gcd(*ps)
    except TypeError:  # a Polynomial among them
        ps = tuple(map(_as_poly, ps))
        if any(len(p._mons) > GCD_TERM_THRESHOLD for p in ps):
            qs = _sympy_cancel(*ps)
            if qs[0] is not ps[0]:
                return qs
        g = math.gcd(*(c for p in ps for c in p._mons.values()))
        if g != 1 and g:
            ps = tuple(_packed({m: c // g for m, c in p._mons.items()}, p._den, p._w, p._deg)
                       for p in ps)
        return ps
    return ps if g == 1 or not g else tuple(p // g for p in ps)


def divide_content(d, row: dict):
    """d and the values of row divided by the common factor that
    cancel(d, *row.values()) divides out; row changes in place and the new
    d is returned. Over ints that is one math.gcd and an exact division per
    value. With a Polynomial among them it is cancel's quotients, written
    back only when cancel divided something, so a row of content 1 keeps
    its objects."""
    try:
        g = math.gcd(d, *row.values())
    except TypeError:  # a Polynomial among them
        q = cancel(d, *row.values())
        # cancel hands back its inputs when it divides nothing, and new
        # Polynomials when it divides or turns an int d into one
        if q[0] is not d:
            row.update(zip(list(row), q[1:]))
        return q[0]
    if g == 1 or not g:
        return d
    for t in row:
        row[t] //= g
    return d // g


class RationalFunction:
    """Quotient of two Polynomials, kept in a cheap canonical form.

    Normalization works on the packed store: it divides out the shared
    monomial content (per-field exponent minima), clears coefficient
    denominators, divides out the integer content with int gcds and fixes
    the denominator sign. It runs no polynomial gcd, so a common factor
    stays unless the caller cancelled it (the closed forms do, once, with
    _sympy_cancel). Equality is mathematical (cross multiplication), not
    representational.
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
        # equal functions hash alike, reduced or not: a constant form
        # (num = c*den) like its value c, any other by the degree difference,
        # which a/b = c/d (a*d = b*c) keeps
        if not self.num:
            return hash(0)
        a = self.num.sorted_terms()[-1][1]
        b = self.den.sorted_terms()[-1][1]
        if self.num * b == self.den * a:
            return hash(a / b)
        return hash(self.num.degree() - self.den.degree())

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

