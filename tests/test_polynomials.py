"""Exact polynomial and rational-function arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import genmodels as g
from fscsynth import polynomials
from fscsynth.analysis import reach_avoid_prob, state_eliminate
from fscsynth.models import apply_instantiation
from fscsynth.polynomials import (
    GCD_TERM_THRESHOLD,
    Polynomial,
    RationalFunction,
    _integer_normal,
    _sympy_cancel,
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

    def test_evaluate_float_tracks_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            p = _rand_poly(rng)
            u = _rand_point(rng)
            exact = p.evaluate(u)
            approx = p.evaluate_float({n: float(v) for n, v in u.items()})
            assert abs(float(exact) - approx) < 1e-9

    def test_variables(self):
        p = V("x") * V("y") + C(2)
        assert p.variables() == frozenset({"x", "y"})


class TestRationalFunction:
    def test_equality_is_mathematical(self):
        x = V("x")
        a = RationalFunction(C(2) * x, C(4))
        b = RationalFunction(x, C(2))
        assert a == b
        assert hash(RationalFunction.constant(F(1, 2))) == hash(F(1, 2))

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
        # (x^2 - 1)/(x - 1) stays unreduced below the gcd threshold but
        # must evaluate like x + 1 wherever it is defined
        x = V("x")
        f = RationalFunction(x * x - C(1), x - C(1))
        g = RationalFunction(x + C(1))
        assert f == g
        for k in range(2, 9):
            assert f.evaluate({"x": F(1, k)}) == g.evaluate({"x": F(1, k)})

    def test_gcd_kicks_in_past_threshold(self):
        x = V("x")
        big = Polynomial({(("x", e),): F(1) for e in range(1, GCD_TERM_THRESHOLD + 2)})
        f = RationalFunction(big * x, big)
        assert f.num == x
        assert f.den == C(1)

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
        f = RationalFunction(num, den)
        assert (f.num, f.den) == _integer_normal(self.A, self.B)

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
