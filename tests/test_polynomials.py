"""Exact polynomial and rational-function arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import genmodels as g
from fscsynth import formats, polynomials
from fscsynth.analysis import Region, reach_avoid_prob, region_bounds, state_eliminate
from fscsynth.formats import parse_poly
from fscsynth.models import ParameterTable, PmcT, apply_instantiation, parse_spec
from fscsynth.polynomials import (
    GCD_TERM_THRESHOLD,
    Polynomial,
    RationalFunction,
    _integer_normal,
    _interval,
    _sympy_cancel,
    cancel,
    divide_content,
)
from fscsynth.transforms import induced_pmc

F = Fraction
V = Polynomial.variable
C = Polynomial.constant

NAMES = ("x", "y", "z")


def _rand_poly(rng, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(
            (n, rng.randint(1, max_deg))
            for n in NAMES if rng.random() < 0.5
        )
        terms[mono] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(terms)


def _rand_point(rng):
    return {n: F(rng.randint(-9, 9), rng.randint(1, 9)) for n in NAMES}


coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=50)
monos = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(1, 4)),
    max_size=2, unique_by=lambda f: f[0],
).map(tuple)
polys = st.dictionaries(monos, coeffs, max_size=4).map(Polynomial)
points = st.fixed_dictionaries({n: coeffs for n in NAMES})


class TestPolynomial:
    def test_construction_cleans_terms(self):
        p = Polynomial({(("x", 1),): F(0), (("y", 2), ("x", 1)): F(3)})
        assert (("x", 1),) not in p.terms
        # monomial factors are stored name-sorted
        assert (("x", 1), ("y", 2)) in p.terms

    def test_duplicate_monomials_merge(self):
        p = Polynomial({(("x", 1), ("y", 1)): F(2), (("y", 1), ("x", 1)): F(-2)})
        assert p.is_zero()

    def test_immutable(self):
        p = V("x")
        with pytest.raises(AttributeError):
            p.terms = {}

    def test_ring_distributivity_exact(self):
        # 1000 randomized cases, exact equality throughout
        rng = random.Random(7)
        for _ in range(1000):
            f, g, h = (_rand_poly(rng) for _ in range(3))
            u = _rand_point(rng)
            left = ((f + g) * h).evaluate(u)
            right = (f * h + g * h).evaluate(u)
            assert left == right

    @settings(max_examples=200, derandomize=True)
    @given(polys, polys, polys)
    def test_add_and_mul_associative(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=200, derandomize=True)
    @given(polys, polys, points)
    def test_evaluation_is_a_homomorphism(self, f, g, u):
        assert (f + g).evaluate(u) == f.evaluate(u) + g.evaluate(u)
        assert (f * g).evaluate(u) == f.evaluate(u) * g.evaluate(u)

    def test_pow_and_sub(self):
        x = V("x")
        assert (x - x).is_zero()
        assert (x + C(1)) ** 2 == x * x + C(2) * x + C(1)

    def test_sorted_terms_graded_lexicographic(self):
        x, y = V("x"), V("y")
        p = x * x + y + x * y * y + C(5)
        degrees = [sum(e for _n, e in mono) for mono, _c in p.sorted_terms()]
        assert degrees == sorted(degrees)
        # ties broken by the monomial itself, so the order is total
        assert len(set(mono for mono, _ in p.sorted_terms())) == 4

    def test_variables(self):
        p = V("x") * V("y") + C(2)
        assert p.variables() == frozenset({"x", "y"})

    def test_a_degree_bound_above_the_exact_degree_changes_no_value(self):
        x, y = V("x"), V("y")
        loose = (x * y + x) - x * y
        assert loose == x and loose._deg == 2 > loose.degree() == 1
        u = {"x": F(2, 7)}
        assert loose.evaluate(u) == x.evaluate(u) == F(2, 7)
        # _interval scales the loose form by one more power of D
        assert _interval(x, {"x": 1}, {"x": 3}, 4) == (1, 3, 4)
        assert _interval(loose, {"x": 1}, {"x": 3}, 4) == (4, 12, 16)
        spec = parse_spec("P> 1/2 [F goal]")
        region = Region({"x": (F(1, 4), F(2, 3))})
        bounds = []
        for p in (loose, x):
            d = PmcT(3, 0, {0: {1: p, 2: 1 - p}, 1: {1: C(1)}, 2: {2: C(1)}},
                     params=ParameterTable(["x"]), goal={1})
            b = region_bounds(d, region, spec)
            bounds.append((b.lower, b.upper, b.tight, b.graph_preserving))
        assert bounds[0] == bounds[1] == (F(1, 4), F(2, 3), True, True)


class TestRationalFunction:
    def test_equality_is_mathematical(self):
        x = V("x")
        a = RationalFunction(C(2) * x, C(4))
        b = RationalFunction(x, C(2))
        assert a == b
        assert hash(RationalFunction.constant(F(1, 2))) == hash(F(1, 2))

    def test_equal_functions_hash_alike(self):
        # the forms stay unreduced: no gcd runs in the constructor
        x, y = V("x"), V("y")
        pairs = [
            (RationalFunction(x * x - C(1), x - C(1)), RationalFunction(x + C(1))),
            (RationalFunction(C(2) * x - C(2), x - C(1)), RationalFunction.constant(2)),
            (RationalFunction(C(-3) * x * y + C(3), C(2) * x * y - C(2)),
             RationalFunction.constant(F(-3, 2))),
            (RationalFunction((x + y) * (x - y), C(3) * (x + y) * y),
             RationalFunction(x - y, C(3) * y)),
        ]
        for f, g in pairs:
            assert f == g
            assert f.num != g.num
            assert hash(f) == hash(g)
            assert len({f, g}) == 1
        assert hash(RationalFunction.constant(0)) == hash(0)

    def test_cancels_matching_sides(self):
        x = V("x")
        f = RationalFunction(x * x, x)
        assert f == RationalFunction(x)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(C(1), C(0))

    def test_evaluate(self):
        x = V("x")
        f = RationalFunction(x + C(1), C(2) * x)
        assert f.evaluate({"x": F(1, 3)}) == F(2)
        with pytest.raises(ZeroDivisionError):
            f.evaluate({"x": F(0)})

    def test_uncancelled_pair_still_agrees_pointwise(self):
        # (x^2 - 1)/(x - 1) stays unreduced but must evaluate like x + 1
        # wherever it is defined
        x = V("x")
        f = RationalFunction(x * x - C(1), x - C(1))
        g = RationalFunction(x + C(1))
        assert f == g
        for k in range(2, 9):
            assert f.evaluate({"x": F(1, k)}) == g.evaluate({"x": F(1, k)})

    def test_no_gcd_past_threshold(self, monkeypatch):
        # the constructor leaves a polynomial common factor in place at any
        # size; the closed forms cancel theirs before they construct one
        calls = []
        monkeypatch.setattr(polynomials, "_sympy_cancel", lambda *ps: calls.append(ps) or ps)
        x = V("x")
        big = Polynomial({(("x", e),): F(1) for e in range(GCD_TERM_THRESHOLD + 2)})
        num, den = big * (x + C(1)), C(2) * big * (x + C(3))
        assert len(num.terms) > GCD_TERM_THRESHOLD
        f = RationalFunction(num, den)
        assert not calls
        assert (f.num, f.den) == _integer_normal(num, den)

    def test_arithmetic(self):
        x = V("x")
        f = RationalFunction(C(1), x)
        g = RationalFunction(x)
        assert f * g == RationalFunction(C(1))
        s = f + g
        assert s.evaluate({"x": F(2)}) == F(5, 2)


def _dense_poly(degree, coeff):
    """Every monomial in x, y, z up to `degree`, with coefficient coeff(i, j, k)."""
    return Polynomial({
        (("x", i), ("y", j), ("z", k)): coeff(i, j, k)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        for k in range(degree + 1 - i - j)
    })


class TestSympyCancel:
    # a (56 terms) and b are coprime; h is the common factor
    A = _dense_poly(5, lambda i, j, k: F(i + 2 * j + 1, k + 3))
    B = V("x") * V("y") * V("z") + C(F(7, 3))
    H = C(F(1, 2)) * V("x") - C(F(2, 3)) * V("y") + C(F(3, 5)) * V("z") + C(1)

    def test_common_factor_is_cancelled(self):
        num, den = self.A * self.H, self.B * self.H
        assert len(num.terms) > GCD_TERM_THRESHOLD
        qn, qd = _sympy_cancel(num, den)
        # the cofactors are a and b up to one constant factor
        assert qn * self.B == qd * self.A
        assert qn.degree() == self.A.degree() and qd.degree() == self.B.degree()
        # the constructor runs no gcd: the pair stays as it was given
        f = RationalFunction(num, den)
        assert (f.num, f.den) == _integer_normal(num, den)

    def test_coprime_pair_comes_back_unchanged(self):
        assert len(self.A.terms) <= GCD_TERM_THRESHOLD
        num = self.A * (V("x") + C(F(1, 4)))
        assert len(num.terms) > GCD_TERM_THRESHOLD
        qn, qd = _sympy_cancel(num, self.B)
        assert qn is num and qd is self.B
        f = RationalFunction(num, self.B)
        assert (f.num, f.den) == _integer_normal(num, self.B)

    def test_constant_denominator_with_shared_content(self):
        # the gcd of a polynomial and a constant is a constant: no
        # cancellation, and the integer content goes in _integer_normal
        big = Polynomial({(("x", e),): F(2 * e) for e in range(1, GCD_TERM_THRESHOLD + 2)})
        f = RationalFunction(big, C(4))
        half = Polynomial({(("x", e),): F(e) for e in range(1, GCD_TERM_THRESHOLD + 2)})
        assert f.num == half and f.den == C(2)
        assert f.evaluate({"x": F(1, 3)}) == big.evaluate({"x": F(1, 3)}) / 4


class TestEliminationRing:
    """What the elimination over integer polynomials asks of them."""

    def test_integer_ratio_and_truth(self):
        num, den = (C(F(1, 2)) * V("x") + C(F(1, 3))).as_integer_ratio()
        assert (num, den) == (C(3) * V("x") + C(2), 6)
        assert num and not Polynomial()

    def test_cancel_below_the_threshold_divides_by_the_int_content(self, monkeypatch):
        monkeypatch.setattr(polynomials, "_sympy_cancel",
                            lambda *ps: pytest.fail("sympy gcd below the threshold"))
        x, y = V("x"), V("y")
        # x + 1 is common too, but only the int content 2 goes
        assert cancel(C(6) * x + C(6), C(10) * x * x + C(10) * x, 8) == (
            C(3) * x + C(3), C(5) * x * x + C(5) * x, C(4))
        assert cancel(C(6) * x + C(4), 10) == (C(3) * x + C(2), C(5))
        assert cancel(12, 18, 30) == (2, 3, 5)
        # nothing to divide: the inputs come back as they are
        for ps in ((7, 4, 0), (0, 0), (C(3) * x + C(2), C(5) * y)):
            assert all(q is p for q, p in zip(cancel(*ps), ps))

    def test_cancel_past_the_threshold_gives_coprime_cofactors(self):
        h = TestSympyCancel.H.as_integer_ratio()[0]
        ps = [(f * TestSympyCancel.H).as_integer_ratio()[0]
              for f in (TestSympyCancel.A, TestSympyCancel.B, V("x") + C(1))]
        assert len(ps[0].terms) > GCD_TERM_THRESHOLD
        qs = cancel(*ps)
        # the common factor is h times a constant
        lead, c = (qs[0] * h).sorted_terms()[-1]
        common = h * C(ps[0].terms[lead] / c)
        assert all(q * common == p for p, q in zip(ps, qs))
        assert all(q.degree() < p.degree() for p, q in zip(ps, qs))
        assert _sympy_cancel(*qs) == tuple(qs)
        assert all(q.as_integer_ratio()[1] == 1 for q in qs)
        assert math.gcd(*(int(c) for q in qs for c in q.terms.values())) == 1

    def test_divide_content_divides_an_int_row_in_place(self):
        row = {0: 18, 1: -30, -1: 42}
        assert divide_content(12, row) == 2
        assert row == {0: 3, 1: -5, -1: 7}
        rng = random.Random(5)
        for _ in range(200):
            d = rng.randint(-3, 3) * rng.choice((1, 6, 35))
            row = {t: rng.randint(-3, 3) * rng.choice((1, 6, 35)) for t in range(3)}
            q = cancel(d, *row.values())
            assert (divide_content(d, row), *row.values()) == q

    def test_divide_content_of_polynomial_rows_past_the_threshold(self):
        ps = [(f * TestSympyCancel.H).as_integer_ratio()[0]
              for f in (TestSympyCancel.A, TestSympyCancel.B, V("x") + C(1))]
        assert len(ps[0].terms) > GCD_TERM_THRESHOLD
        row = {4: ps[1], -1: ps[2]}
        d = divide_content(ps[0], row)
        assert (d, row[4], row[-1]) == cancel(*ps)
        assert d.degree() < ps[0].degree() and list(row) == [4, -1]

    def test_divide_content_of_content_one_keeps_the_objects(self):
        x, y = V("x"), V("y")
        d, a, b = C(3) * x + C(2), C(5) * y, x * y
        row = {0: a, 1: b}
        assert divide_content(d, row) is d
        assert row[0] is a and row[1] is b
        big = 10 ** 30 + 1
        row = {0: big, 1: 7}
        assert divide_content(6, row) == 6 and row[0] is big

    def test_divide_content_with_a_zero_pivot(self):
        row = {0: 6, 1: -4}
        assert divide_content(0, row) == 0 and row == {0: 3, 1: -2}
        row = {0: 0}
        assert divide_content(0, row) == 0 and row == {0: 0}
        x = V("x")
        row = {0: C(6) * x, 1: C(4)}
        assert divide_content(Polynomial(), row).is_zero()
        assert row == {0: C(3) * x, 1: C(2)}
        # an int pivot among Polynomials comes back as cancel gives it
        row = {0: C(6) * x}
        assert divide_content(8, row) == C(4) and row == {0: C(3) * x}


CERT_NAMES = ("w", "x", "y", "z")


@st.composite
def int_polys(draw, count, min_size=0):
    """count integer polynomials over the first 1-4 of CERT_NAMES, with
    exponents up to 3 and coefficients in [-5, 5]."""
    names = CERT_NAMES[:draw(st.integers(1, 4))]
    exps = st.tuples(*(st.integers(0, 3) for _ in names))
    terms = st.dictionaries(exps, st.integers(-5, 5), min_size=min_size, max_size=6)
    return [Polynomial({tuple((n, e) for n, e in zip(names, k) if e): c
                        for k, c in draw(terms).items()}) for _ in range(count)]


def _sympy_gcd_is_ground(ps):
    names = tuple(sorted(polynomials.variables_of(ps)))
    if not names:
        return True
    R = polynomials._ring(names)
    g = R.zero
    for p in ps:
        g = g.gcd(R.from_dict({tuple(dict(mono).get(n, 0) for n in names): int(c)
                               for mono, c in p.terms.items()}))
    return g.is_ground


class TestCoprimeCertificate:
    """_coprime shows by images modulo a prime that a gcd is constant; what
    it cannot show goes to sympy, so _sympy_cancel's output is the same."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(int_polys(2, min_size=2))
    def test_coprime_only_when_sympy_finds_a_ground_gcd(self, ps):
        if polynomials._coprime(ps):
            assert _sympy_gcd_is_ground(ps)
            assert all(q is p for q, p in zip(_sympy_cancel(*ps), ps))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(int_polys(4, min_size=1))
    def test_a_planted_common_factor_is_never_called_coprime(self, ps):
        a, b, c, h = ps
        assume(a and b and c and not h.is_constant())
        for qs in ((a * h, b * h), (a * h, b * h, c * h), (h, a * h)):
            assert not polynomials._coprime(qs)

    def test_zero_and_constant_operands(self):
        x, y = V("x"), V("y")
        f = x * y + C(3)
        assert not polynomials._coprime((Polynomial(), f))
        assert not polynomials._coprime((f,))
        assert polynomials._coprime((C(6), f))
        assert polynomials._coprime((f, C(-1), x + C(1)))
        # a zero operand still goes to sympy: gcd(0, f) = f
        assert _sympy_cancel(Polynomial(), f) == (Polynomial(), C(1))

    def test_univariate_pairs(self):
        x = V("x")
        assert polynomials._coprime((x * x + C(1), x - C(1)))
        assert polynomials._coprime((x * x * x - C(2), C(3) * x + C(5)))
        assert not polynomials._coprime((x * x - C(1), x - C(1)))
        assert not polynomials._coprime((x * x, x * x * x + x))
        # parameters of disjoint operands cannot meet in a gcd
        assert polynomials._coprime((x * x - C(1), V("y") - C(1)))

    def test_points_depend_on_the_name_alone(self):
        assert (polynomials._point("x"), polynomials._point("p_0_0_a0")) == (
            215750348, 790786971)

    def test_a_leading_coefficient_vanishing_at_the_point_goes_to_sympy(self, monkeypatch):
        # f's x-degree drops at y = _point("y"), so its image proves nothing
        x, y = V("x"), V("y")
        f = (y - C(polynomials._point("y"))) * x * x + x + C(1)
        g = x + C(2)
        assert not polynomials._coprime((f, g))
        rings = []
        ring = polynomials._ring
        monkeypatch.setattr(polynomials, "_ring", lambda names: rings.append(names) or ring(names))
        qs = _sympy_cancel(f, g)
        assert rings == [("x", "y")]
        assert qs[0] is f and qs[1] is g
        # anywhere else the same shape is certified
        f = (y - C(polynomials._point("y") + 1)) * x * x + x + C(1)
        assert polynomials._coprime((f, g))


# ---------------------------------------------------------------------------
# differential test against the tuple-monomial / Fraction storage that the
# packed one replaced (sparse dicts; zero terms dropped as they appear, which
# fixes the term order)


def _ref_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, F(0)) + c
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            mono = tuple(sorted(exps.items()))
            s = out.get(mono, F(0)) + c1 * c2
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def _ref_pow(p, n):
    result, base = {(): F(1)}, p
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _ref_evaluate(p, u):
    total = F(0)
    for mono, c in p.items():
        for name, e in mono:
            c *= F(u[name]) ** e
        total += c
    return total


def _ref_normal(num, den):
    """RationalFunction's normal form below the gcd threshold."""
    if not num:
        return {}, {(): F(1)}
    shared = None
    for mono in list(num) + list(den):
        cur = dict(mono)
        shared = cur if shared is None else {
            n: min(e, cur[n]) for n, e in shared.items() if n in cur}
    num, den = ({tuple((n, e - shared.get(n, 0)) for n, e in mono
                       if e > shared.get(n, 0)): c for mono, c in p.items()}
                for p in (num, den))
    if num == den:
        return {(): F(1)}, {(): F(1)}
    coeffs = list(num.values()) + list(den.values())
    scale = math.lcm(*(c.denominator for c in coeffs))
    factor = F(scale, math.gcd(*((c * scale).numerator for c in coeffs)))
    lead = max(den, key=lambda mono: (sum(e for _, e in mono), mono))
    if den[lead] < 0:
        factor = -factor
    return ({m: c * factor for m, c in num.items()},
            {m: c * factor for m, c in den.items()})


# 240 names, so that field indices run past 200; exponents at and past the
# 8- and 16-bit field widths
WIDE_NAMES = ["w%03d" % i for i in range(240)]
WIDE_POINT = {n: (F(1, 2), F(-1), F(1), F(-1, 2), F(1, 4))[i % 5]
              for i, n in enumerate(WIDE_NAMES)}
wide_exps = st.sampled_from([1, 2, 3] * 4 + [127, 128, 255, 256, 65535, 65536])
wide_monos = st.lists(st.tuples(st.sampled_from(WIDE_NAMES), wide_exps),
                      max_size=3, unique_by=lambda f: f[0]).map(lambda m: tuple(sorted(m)))
wide_terms = st.dictionaries(wide_monos, coeffs, max_size=4).map(
    lambda t: {m: c for m, c in t.items() if c != 0})


class TestAgainstTupleStorage:
    """The packed polynomials against the storage they replaced."""

    @staticmethod
    def _same(poly, ref):
        # same terms in the same order: float evaluation sums in that order
        assert list(poly.terms.items()) == list(ref.items())

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(wide_terms, wide_terms, st.integers(0, 3))
    def test_arithmetic_agrees(self, p, q, n):
        a, b = Polynomial(p), Polynomial(q)
        self._same(a, p)
        self._same(a + b, _ref_add(p, q))
        self._same(a - b, _ref_add(p, {m: -c for m, c in q.items()}))
        self._same(a * b, _ref_mul(p, q))
        self._same(a ** n, _ref_pow(p, n))
        assert (a == b) == (p == q)
        # equality is structural, so results must come out in normal form
        assert a * b == Polynomial(_ref_mul(p, q))
        assert a + b == Polynomial(_ref_add(p, q))
        if (a * b).degree() > 600:
            return  # big powers of WIDE_POINT and long renderings take seconds
        assert str(a * b) == g.ref_str(_ref_mul(p, q))
        assert (a * b).evaluate(WIDE_POINT) == _ref_evaluate(_ref_mul(p, q), WIDE_POINT)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(wide_terms, st.sampled_from([
        (2, -1, 1, 0, 3),
        (F(1, 2), F(-1), F(1), F(-1, 2), F(1, 4)),
        (0.5, -1.0, 1.0, -0.5, 0.1),
        (2, F(-1, 2), 0.1, -1, F(1, 3)),
    ]))
    def test_exact_evaluation_of_int_fraction_and_float_values(self, p, values):
        # int and Fraction values enter as they are and any other value as
        # its exact Fraction; the result is a Fraction whatever came in
        a = Polynomial(p)
        if a.degree() > 600:
            return  # big powers of the float values take seconds
        point = {n: values[i % 5] for i, n in enumerate(WIDE_NAMES)}
        v = a.evaluate(point)
        assert type(v) is F
        assert v == _ref_evaluate(p, point)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(wide_terms)
    def test_a_degenerate_box_bounds_by_the_point_value(self, p):
        # the box whose lo and hi are one mapping is a point; equal but
        # distinct mappings take the interval path, which must agree
        a = Polynomial(p)
        if a.degree() > 600:
            return  # big powers of WIDE_POINT take seconds
        D = 4
        point = {n: int(x * D) for n, x in WIDE_POINT.items()}
        want = _ref_evaluate(p, WIDE_POINT)
        for hi in (point, dict(point)):
            lo, up, den = polynomials._interval(a, point, hi, D)
            assert lo == up and F(lo, den) == want

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(wide_terms, wide_terms, wide_terms)
    def test_rational_function_normal_form_agrees(self, p, q, r):
        num, den = _ref_mul(p, r), _ref_mul(q, r)
        if not den:
            return
        f = RationalFunction(Polynomial(p) * Polynomial(r), Polynomial(q) * Polynomial(r))
        ref_num, ref_den = _ref_normal(num, den)
        self._same(f.num, ref_num)
        self._same(f.den, ref_den)

    def test_exponents_past_the_field_width(self):
        x, y = V("x"), V("y")
        for e in (255, 256, 65535, 65536, 70000, 2 ** 33):
            p = x ** e * y + C(1)
            assert p.terms == {(("x", e), ("y", 1)): 1, (): 1}
            assert (p * x).terms == {(("x", e + 1), ("y", 1)): 1, (("x", 1),): 1}
            assert p.degree() == e + 1
        d = parse_poly("1 - p^70000")
        assert d.terms == {(): 1, (("p", 70000),): -1}
        assert (d * V("q")).variables() == frozenset({"p", "q"})


# coefficients past the 4300-digit limit of int/str conversion
BIG_COEFFS = [F(10 ** 4400 + 1), F(-(3 ** 9500)), F(7 ** 5200, 11 ** 4400), F(-1, 10 ** 4301)]
# exponents above 1 and degrees past 255, which widen the fields to 16 bits
print_monos = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from([1, 1, 2, 2, 3, 255, 256])),
    max_size=2, unique_by=lambda f: f[0],
).map(lambda m: tuple(sorted(m)))
print_polys = st.dictionaries(
    print_monos, st.one_of(coeffs, st.sampled_from(BIG_COEFFS)), max_size=5,
).map(Polynomial)
# zero, constants, a negative leading term, exponents above 1, a field
# width of 16 and coefficients past the digit limit
WIDE_POLY = V("x") ** 300 * V("y") - C(F(2, 3)) * V("y")
PRINT_CASES = [
    Polynomial(), C(0), C(7), C(F(-3, 4)), C(BIG_COEFFS[2]),
    -V("x") + V("y"), C(F(-2, 3)) * V("x") * V("x") + C(F(1, 6)),
    WIDE_POLY, V("x") ** 300 * V("y") - C(BIG_COEFFS[1]) * V("y"),
    C(BIG_COEFFS[3]) * V("z") ** 2 + C(F(5, 4)) * V("x"),
]
SCALARS = [0, 1, -1, 3, -12, 10 ** 30, F(0), F(3, 4), F(-5, 6), F(1, 10 ** 20)]


class TestPrinter:
    """str prints from the packed store what the Fraction printer printed
    from sorted_terms, and parse_poly reads it back."""

    @staticmethod
    def _check(p):
        text = str(p)
        assert text == g.ref_str(p.terms)
        assert parse_poly(text) == p

    @pytest.mark.parametrize("p", PRINT_CASES, ids=range(len(PRINT_CASES)))
    def test_cases(self, p):
        self._check(p)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(print_polys)
    def test_agrees_with_the_fraction_printer(self, p):
        self._check(p)
        # a rational function prints its parts with the same printer
        f = RationalFunction(p, C(3) * V("w") ** 2 - C(1))
        num = g.ref_str(f.num.terms)
        if len(f.num.terms) > 1:
            num = "(%s)" % num
        assert str(f) == ("%s/(%s)" % (num, g.ref_str(f.den.terms)) if f else "0")


class TestScaling:
    """A number operand scales the int coefficients to the store that the
    product with its constant Polynomial builds."""

    @staticmethod
    def _store(p):
        return list(p._mons.items()), p._den, p._w, p._deg

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(print_polys, st.sampled_from(SCALARS))
    @example(WIDE_POLY, -12)
    @example(WIDE_POLY, F(-5, 6))
    @example(WIDE_POLY, 0)
    def test_equals_the_product_with_a_constant(self, p, q):
        want = self._store(p * C(q))
        assert self._store(p * q) == want
        assert self._store(q * p) == want


class TestPrintedReader:
    """parse_poly reads the text str prints into the store the grammar
    builds from it: same monomial order, denominator, width and degree."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(wide_terms)
    def test_reader_builds_the_grammars_store(self, t):
        p = Polynomial(t)
        if p.degree() > 600:
            return  # the grammar multiplies once per printed factor
        text = str(p)
        rf = formats.parse_expression(text)
        read, ref = parse_poly(text), rf.num * Polynomial.constant(1 / rf.den.constant_value())
        assert list(read._mons.items()) == list(ref._mons.items())
        assert (read._den, read._w, read._deg) == (ref._den, ref._w, ref._deg)
        assert list(read.terms.items()) == list(ref.terms.items())
        assert read == p


# state elimination on g.random_pomdp(Random(39)) with k = 1 (5 states,
# parameter groups {p_0_0_a0, p_0_0_a1} and {p_1_0_a0}), recorded before
# the gcd moved to sympy's sparse ring
GOLDEN_39 = (
    "(462 - 33*p_0_0_a0 + 616*p_0_0_a1 - 126*p_1_0_a0 + 1166*p_0_0_a0*p_0_0_a1"
    " - 477*p_0_0_a0*p_1_0_a0 + 2244*p_0_0_a0*p_0_0_a0 - 392*p_0_0_a1*p_1_0_a0"
    " - 1078*p_0_0_a1*p_0_0_a1 - 1120*p_0_0_a0*p_0_0_a1*p_1_0_a0"
    " - 2070*p_0_0_a0*p_0_0_a0*p_1_0_a0 + 518*p_0_0_a1*p_0_0_a1*p_1_0_a0)"
    "/(462 + 3036*p_0_0_a0 + 1848*p_0_0_a1 - 126*p_1_0_a0"
    " - 2244*p_0_0_a0*p_0_0_a1 - 990*p_0_0_a0*p_1_0_a0 + 66*p_0_0_a0*p_0_0_a0"
    " - 616*p_0_0_a1*p_1_0_a0 - 2310*p_0_0_a1*p_0_0_a1"
    " + 742*p_0_0_a0*p_0_0_a1*p_1_0_a0 + 144*p_0_0_a0*p_0_0_a0*p_1_0_a0"
    " + 742*p_0_0_a1*p_0_0_a1*p_1_0_a0)"
)


def test_state_eliminate_golden_through_the_gcd(monkeypatch):
    calls = []

    def counting(num, den):
        calls.append(1)
        return _sympy_cancel(num, den)

    monkeypatch.setattr(polynomials, "_sympy_cancel", counting)
    d = induced_pmc(g.random_pomdp(random.Random(39), max_states=9,
                                   max_actions=3, max_obs=3), 1)
    rf = state_eliminate(d)
    assert calls
    assert str(rf) == GOLDEN_39
    for point in ({"p_0_0_a0": F(1, 3), "p_0_0_a1": F(1, 2), "p_1_0_a0": F(2, 7)},
                  {"p_0_0_a0": F(1, 10), "p_0_0_a1": F(3, 5), "p_1_0_a0": F(9, 10)},
                  {"p_0_0_a0": F(5, 11), "p_0_0_a1": F(1, 13), "p_1_0_a0": F(1, 2)}):
        res = apply_instantiation(d, point)
        assert res.well_defined
        assert rf.evaluate(point) == reach_avoid_prob(res.model)
