"""Exact multivariate polynomials and rational functions over named parameters.

Coefficients are arbitrary-precision rationals (fractions.Fraction). Monomials
are stored sparsely as sorted ((name, exponent), ...) tuples; term order is
graded lexicographic (total degree first, then the monomial tuple), which
fixes a canonical serialization. A parallel float evaluation path exists for
search loops; the exact path never touches binary floats.

Rational functions past GCD_TERM_THRESHOLD terms are cancelled by their gcd
in sympy's sparse polynomial ring over QQ (one ring per parameter set).
sympy is imported lazily on that path only, so commands that never cancel a
large rational function never load it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Coeffable = Union[int, str, Fraction]

# a monomial is a tuple of (variable name, positive exponent) pairs, sorted
# by name; the empty tuple is the constant monomial
Monomial = tuple


class MissingParameterError(KeyError):
    def __init__(self, name):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return "no value assigned to parameter '%s'" % self.name


def _coeff(value) -> Fraction:
    # floats are rejected on purpose: exact coefficients only. Decimal
    # strings ("0.6") convert exactly via Fraction's string constructor.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("exact coefficient expected, got %r" % (value,))


def _monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict = {}
    for name, e in a:
        exps[name] = exps.get(name, 0) + e
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _grlex_key(m: Monomial):
    return (_monomial_degree(m), m)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Immutable. `terms` maps monomials to nonzero Fraction coefficients;
    zero-coefficient entries are dropped on construction so equality is
    structural.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Coeffable] | None = None):
        cleaned = {}
        if terms:
            for mono, c in terms.items():
                c = _coeff(c)
                if c != 0:
                    mono = tuple(sorted((n, e) for n, e in mono if e != 0))
                    if mono in cleaned:
                        c = cleaned[mono] + c
                        if c == 0:
                            del cleaned[mono]
                            continue
                    cleaned[mono] = c
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: Coeffable) -> "Polynomial":
        return Polynomial({(): _coeff(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial({((name, 1),): Fraction(1)})

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.constant(1)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return self.terms[()]
        raise ValueError("polynomial %s is not constant" % self)

    def variables(self) -> frozenset:
        out = set()
        for mono in self.terms:
            for name, _ in mono:
                out.add(name)
        return frozenset(out)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(_monomial_degree(m) for m in self.terms)

    def sorted_terms(self):
        """Terms in canonical (ascending graded-lex) order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def leading_coefficient(self) -> Fraction:
        """Coefficient of the graded-lex largest monomial (0 for the zero poly)."""
        if not self.terms:
            return Fraction(0)
        mono = max(self.terms, key=_grlex_key)
        return self.terms[mono]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

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
        if not self.terms or not other.terms:
            return Polynomial()
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _monomial_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer exponent expected")
        result = Polynomial.one()
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
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, valuation: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation. Raises MissingParameterError for absent names."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for name, e in mono:
                try:
                    x = valuation[name]
                except KeyError:
                    raise MissingParameterError(name) from None
                v *= Fraction(x) ** e
            total += v
        return total

    def evaluate_float(self, valuation: Mapping[str, float]) -> float:
        total = 0.0
        for mono, c in self.terms.items():
            v = float(c)
            for name, e in mono:
                try:
                    x = valuation[name]
                except KeyError:
                    raise MissingParameterError(name) from None
                v *= float(x) ** e
            total += v
        return total

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace some variables by polynomials (or exact constants)."""
        subst = {}
        for name, repl in mapping.items():
            subst[name] = repl if isinstance(repl, Polynomial) else Polynomial.constant(repl)
        out = Polynomial()
        for mono, c in self.terms.items():
            part = Polynomial.constant(c)
            for name, e in mono:
                if name in subst:
                    part = part * subst[name] ** e
                else:
                    part = part * Polynomial({((name, e),): Fraction(1)})
            out = out + part
        return out

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono, c in self.sorted_terms():
            factor_strs = []
            for name, e in mono:
                factor_strs.extend([name] * e)
            if not factor_strs:
                body = _coeff_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factor_strs)
            else:
                body = _coeff_str(abs(c)) + "*" + "*".join(factor_strs)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def _raw(terms: dict) -> Polynomial:
    p = Polynomial()
    object.__setattr__(p, "terms", terms)
    return p


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    return NotImplemented


POLY_ZERO = Polynomial.zero()
POLY_ONE = Polynomial.one()


# ---------------------------------------------------------------------------
# rational functions


def _integer_normal(num: Polynomial, den: Polynomial):
    """Scale so both polynomials have integer coefficients with content 1 and
    the denominator's leading coefficient positive."""
    coeffs = list(num.terms.values()) + list(den.terms.values())
    scale = Fraction(math.lcm(*[c.denominator for c in coeffs])) if coeffs else Fraction(1)
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs((c * scale).numerator))
    factor = scale / g if g else scale
    if den.leading_coefficient() < 0:
        factor = -factor
    if factor != 1:
        num = num * Polynomial.constant(factor)
        den = den * Polynomial.constant(factor)
    return num, den


def _monomial_content(p: Polynomial) -> Monomial:
    """Largest monomial dividing every term of p."""
    mins: dict | None = None
    for mono in p.terms:
        cur = dict(mono)
        if mins is None:
            mins = cur
        else:
            mins = {n: min(e, cur[n]) for n, e in mins.items() if n in cur}
        if not mins:
            return ()
    if not mins:
        return ()
    return tuple(sorted(mins.items()))


def _monomial_divide(p: Polynomial, mono: Monomial) -> Polynomial:
    if not mono:
        return p
    div = dict(mono)
    out = {}
    for m, c in p.terms.items():
        cur = dict(m)
        for n, e in div.items():
            cur[n] -= e
            if cur[n] == 0:
                del cur[n]
        out[tuple(sorted(cur.items()))] = c
    return _raw(out)


# gcd cancellation is expensive; only triggered past this term count
GCD_TERM_THRESHOLD = 64


@functools.lru_cache(maxsize=None)
def _ring(names: tuple):
    """sympy's sparse polynomial ring over QQ in `names` (imports sympy)."""
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    return ring(names, QQ)[0]


def _sympy_cancel(num: Polynomial, den: Polynomial):
    """Divide num and den by their gcd, computed in sympy's sparse
    polynomial ring over QQ. Returns the inputs when the gcd is a constant."""
    names = tuple(sorted(num.variables() | den.variables()))
    R = _ring(names)
    QQ = R.domain
    index = {n: i for i, n in enumerate(names)}
    zeros = [0] * len(names)

    def to_ring(p):
        out = {}
        for mono, c in p.terms.items():
            exps = list(zeros)
            for name, e in mono:
                exps[index[name]] = e
            out[tuple(exps)] = QQ(c.numerator, c.denominator)
        return R.from_dict(out)

    def from_ring(f):
        return _raw({
            tuple((names[i], e) for i, e in enumerate(exps) if e):
                Fraction(int(c.numerator), int(c.denominator))
            for exps, c in f.items()
        })

    g, qn, qd = to_ring(num).cofactors(to_ring(den))
    if g.is_ground:
        return num, den
    return from_ring(qn), from_ring(qd)


class RationalFunction:
    """Quotient of two Polynomials, kept in a cheap canonical form.

    Normalization always clears coefficient denominators, divides out integer
    and monomial content, and fixes the denominator sign; full gcd
    cancellation (the gcd of sympy's sparse ring over QQ, with sympy imported
    on first use) only runs when either side exceeds GCD_TERM_THRESHOLD
    terms, since gcd cost dominates otherwise. Equality is mathematical
    (cross multiplication), not representational.
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
            ncontent = dict(_monomial_content(num))
            if ncontent:
                dcontent = dict(_monomial_content(den))
                shared = tuple(sorted(
                    (n, min(e, dcontent[n]))
                    for n, e in ncontent.items() if n in dcontent
                ))
                if shared:
                    num = _monomial_divide(num, shared)
                    den = _monomial_divide(den, shared)
            if num.terms == den.terms:
                num, den = POLY_ONE, POLY_ONE
            else:
                if (len(num.terms) > GCD_TERM_THRESHOLD
                        or len(den.terms) > GCD_TERM_THRESHOLD):
                    num, den = _sympy_cancel(num, den)
                num, den = _integer_normal(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def constant(value) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(value))

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
        if self.den.terms == other.den.terms:
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

    def reciprocal(self) -> "RationalFunction":
        return RationalFunction(self.den, self.num)

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

    def evaluate_float(self, valuation) -> float:
        return self.num.evaluate_float(valuation) / self.den.evaluate_float(valuation)

    def __str__(self):
        num = self.num
        den = self.den
        if den == POLY_ONE:
            return str(num)
        ns = str(num) if len(num.terms) <= 1 else "(%s)" % num
        ds = str(den) if len(den.terms) <= 1 else "(%s)" % den
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
RF_ONE = RationalFunction.constant(1)
