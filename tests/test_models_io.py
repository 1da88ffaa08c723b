"""Model types, validation, specifications, and the text formats."""

import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import genmodels as g
from fscsynth import formats
from fscsynth.formats import (
    FormatError,
    parse_fsc,
    parse_expression,
    parse_instantiation,
    parse_param_groups,
    parse_pmc,
    parse_pomdp,
    parse_poly,
    parse_rational_function,
    parse_region,
    write_fsc,
    write_instantiation,
    write_param_groups,
    write_pmc,
    write_pomdp,
    write_rational_function,
    write_region,
)
from fscsynth.models import (
    INFINITE,
    Instantiation,
    Mc,
    Mdp,
    ModelError,
    ParameterTable,
    PmcT,
    Pomdp,
    apply_instantiation,
    check_well_defined,
    format_number,
    is_infinite,
    parse_spec,
)
from fscsynth.analysis import Region, reach_avoid_prob, expected_reward, state_eliminate
from fscsynth.fsc import uniform_fsc
from fscsynth.polynomials import Polynomial, RationalFunction
from fscsynth.transforms import induced_pmc, substituted_pmc

F = Fraction
TINY = F(1, 10 ** 5000 + 1)


class TestRoundTrips:
    def test_pomdp(self):
        rng = random.Random(11)
        for m in [g.fork_pomdp(), g.loop_pomdp(), g.revisit_pomdp()] + [
                g.random_pomdp(rng) for _ in range(20)]:
            back = parse_pomdp(write_pomdp(m))
            assert back == m

    def test_pmc(self):
        rng = random.Random(12)
        models = [g.biased_choice_pmc(), induced_pmc(g.loop_pomdp(), 2)]
        models += [g.random_simple_pmc(rng, max_states=12) for _ in range(10)]
        for d in models:
            back = parse_pmc(write_pmc(d))
            assert back == d

    def test_parsed_pomdp_rows_sum_to_one(self):
        text = write_pomdp(g.fork_pomdp())
        m = parse_pomdp(text)
        for (_s, _a), row in m.trans.items():
            assert sum(row.values()) == 1

    def test_fsc(self):
        m = g.fork_pomdp()
        a = uniform_fsc(m, 2)
        back = parse_fsc(write_fsc(a))
        assert back.num_nodes == a.num_nodes
        assert back.initial_node == a.initial_node
        assert back.action_map == a.action_map
        assert back.memory_update == a.memory_update

    def test_instantiation(self):
        # TINY's 5001-digit denominator is past the interpreter's default
        # limit of 4300 digits for int/str conversions
        for u in (Instantiation({"p": F(1, 3), "q": F(2, 7)}),
                  Instantiation({"p": TINY, "q": 1 - TINY})):
            back = parse_instantiation(write_instantiation(u))
            assert dict(back.values) == dict(u.values)

    def test_region(self):
        for r in (Region({"p": (F(1, 100), F(99, 100)), "q": (F(1, 2), F(1, 2))}),
                  Region({"p": (TINY, 1 - TINY)})):
            assert parse_region(write_region(r)) == r

    def test_param_groups(self):
        groups = [["a", "b"], ["c"]]
        assert parse_param_groups(write_param_groups(groups)) == groups

    def test_rational_function(self):
        f = state_eliminate(g.biased_choice_pmc())
        assert parse_rational_function(write_rational_function(f)) == f

    def test_comment_lines_ignored(self):
        text = "# produced by hand\n" + write_pomdp(g.two_coin_pomdp())
        assert parse_pomdp(text) == g.two_coin_pomdp()


_TRANS_LINE = re.compile(r"trans (\d+) (\d+) (.*)$")


def _rational_function_route(expr):
    """An entry parsed as a rational function, its constant denominator
    folded into the coefficients."""
    rf = parse_expression(expr)
    c = rf.den.constant_value()
    return rf.num if c == 1 else rf.num * Polynomial.constant(1 / c)


class TestPolynomialEntries:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_parse_pmc_matches_the_rational_function_route(self, k):
        rng = random.Random(40 + k)
        for _ in range(8):
            m = g.random_pomdp(rng, max_states=5, with_rewards=True)
            for d in (induced_pmc(m, k), substituted_pmc(m, k)):
                text = write_pmc(d)
                back = parse_pmc(text)
                by_rf = {}
                for line in text.splitlines():
                    hit = _TRANS_LINE.match(line)
                    if hit:
                        s, t = int(hit.group(1)), int(hit.group(2))
                        poly = _rational_function_route(hit.group(3))
                        by_rf.setdefault(s, {})[t] = poly
                        # same terms in the same order: float evaluation
                        # sums them in that order
                        assert list(back.trans[s][t].terms.items()) == list(poly.terms.items())
                rf_model = PmcT(back.num_states, back.initial, by_rf, back.params,
                                back.rewards, back.goal, back.bad)
                assert write_pmc(back) == write_pmc(rf_model) == text

    @pytest.mark.parametrize("expr", [
        "(p + q)^3 - p^2*q/3",
        "-(1 - p)*(q + 2*p)^2/5 + 0.25",
        "q - p + p*(1/2)^2 + 3*p/4",
    ])
    def test_expressions_match_the_rational_function_route(self, expr):
        poly = parse_poly(expr)
        assert list(poly.terms.items()) == list(_rational_function_route(expr).terms.items())

    def _entry(self, expr):
        return parse_pmc("pmc\nstates 2\ninitial 0\nparams p q\n"
                         "trans 0 0 3/4\ntrans 0 1 %s\ntrans 1 1 1\n" % expr)

    def test_constant_divisions_fold_into_the_coefficients(self):
        assert self._entry("2*(1/2)^3").trans[0][1] == Polynomial.constant(F(1, 4))
        d = self._entry("(3*p - p*2)/8 + 1/(4*2) - p/8")
        assert d.trans[0][1].terms == {(): F(1, 8)}

    @pytest.mark.parametrize("expr, message, col", [
        ("p/0 + 1", "line 6, col 12: division by zero", 12),
        ("1/(p-p)", "line 6, col 12: division by zero", 12),
        ("p/(1-q)", "line 6, col 11: expression 'p/(1-q)' divides by a parametric "
                    "expression; a polynomial is required here", 11),
        ("p*q/p + 1/(2-2)", "line 6, col 20: division by zero", 20),
    ])
    def test_errors_keep_their_message_and_position(self, expr, message, col):
        with pytest.raises(FormatError) as err:
            self._entry(expr)
        assert str(err.value) == message
        assert (err.value.line, err.value.col) == (6, col)

    @pytest.mark.parametrize("expr", [
        "1-p-q", "20/23*r+1/2-p*q",   # the printed form without its spaces
        "2/4*p", "p + p", "p - p + q", "0/5*p", "1/2 - 2/3*p + p*q - 1/6",
        "1/2/3", "2/0*p", "1 - 2/3*p + 0/0", "1 - -p", "1e-2*p",
    ] + [pytest.param("*".join(["p"] * n), id="%d-factors" % n) for n in (255, 256, 300)])
    def test_respellings_give_the_grammars_result(self, expr, monkeypatch):
        def parse():
            try:
                p = parse_poly(expr, 6, 10)
            except FormatError as e:
                return str(e), e.line, e.col
            return list(p._mons.items()), p._den, p._w, p._deg

        read = parse()
        monkeypatch.setattr(formats, "_PRINTED_RE", re.compile(r"(?!)"))
        assert read == parse()

    @pytest.mark.parametrize("parse, text, cls, expected", [
        (parse_poly, "1 - p^70000", Polynomial, 1 - Polynomial.variable("p") ** 70000),
        (parse_expression, "(p/q)^70000", RationalFunction,
         RationalFunction(Polynomial.variable("p") ** 70000,
                          Polynomial.variable("q") ** 70000)),
    ])
    def test_powers_square_and_multiply(self, monkeypatch, parse, text, cls, expected):
        calls = []
        mul = cls.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
        got = parse(text)
        assert len(calls) <= 2 * (70000).bit_length()
        assert got == expected

    def test_coefficients_past_the_int_to_str_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        d = g.long_coefficient_pmc()
        text = write_pmc(d)
        back = parse_pmc(text)
        assert back == d
        assert write_pmc(back) == text
        # the grammar's route: c = 99...9/100...0
        assert parse_poly("(%s)*p/1%s" % ("9" * 5000, "0" * 5000)) == d.trans[0][1]
        assert sys.get_int_max_str_digits() == limit

    def test_parametric_divisor_that_cancels_is_a_polynomial(self):
        d = parse_pmc("pmc\nstates 2\ninitial 0\nparams p q\n"
                      "trans 0 0 1 - q\ntrans 0 1 p*q/p\ntrans 1 1 1\n")
        assert d.trans[0][1] == Polynomial.variable("q")


class TestValidation:
    def test_deadlock_rejected(self):
        with pytest.raises(ModelError, match="deadlock"):
            Mdp(2, 0, {(0, "a"): {1: F(1)}})

    def test_unused_observation_rejected(self):
        m = g.two_coin_pomdp()
        with pytest.raises(ModelError, match="never used"):
            Pomdp(m.mdp, 3, [0, 1, 1])

    def test_shared_observation_needs_equal_actions(self):
        trans = {
            (0, "a"): {1: F(1)},
            (1, "b"): {1: F(1)},
        }
        mdp = Mdp(2, 0, trans, goal={1})
        with pytest.raises(ModelError, match="share observation"):
            Pomdp(mdp, 1, [0, 0])

    def test_bad_distribution_rejected(self):
        with pytest.raises(ModelError, match="sums to"):
            Mdp(2, 0, {(0, "a"): {1: F(1, 2)}, (1, "a"): {1: F(1)}})

    def test_overlapping_labels_rejected(self):
        with pytest.raises(ModelError, match="overlap"):
            Mdp(2, 0, {(0, "a"): {1: F(1)}, (1, "a"): {1: F(1)}},
                goal={1}, bad={1})

    def test_parse_error_carries_line_number(self):
        text = write_pomdp(g.two_coin_pomdp()).replace("trans 0 a 1 0.2",
                                                       "trans 0 a 1 0.x")
        with pytest.raises(FormatError, match="line"):
            parse_pomdp(text)

    @pytest.mark.parametrize("body, line", [
        ("trans 0 0 1 - p + q\nreward 0 p\n", 5),
        ("trans 0 0 1\nreward 0 2*q\n", 6),
    ])
    def test_undeclared_parameter_errors_name_their_line(self, body, line):
        with pytest.raises(FormatError) as err:
            parse_pmc("pmc\nstates 1\ninitial 0\nparams p\n" + body)
        assert str(err.value) == "line %d: parameter 'q' is not declared" % line

    def test_undeclared_reward_parameter_rejected(self):
        trans = {0: {0: Polynomial.constant(1)}}
        with pytest.raises(ModelError, match="undeclared parameter 'q' in reward of state 0"):
            PmcT(1, 0, trans, params=ParameterTable(["p"]),
                 rewards={0: Polynomial.variable("q")})

    def test_goal_at_initial_is_accepted_and_trivial(self):
        mdp = Mdp(1, 0, {(0, "a"): {0: F(1)}}, goal={0})
        m = Pomdp(mdp, 1, [0])
        mc = apply_instantiation(induced_pmc(m, 1), Instantiation({})).model
        assert reach_avoid_prob(mc) == 1
        assert expected_reward(mc) == 0


class TestSpecifications:
    def test_reach_avoid_form(self):
        s = parse_spec("P>= 1/2 [!bad U goal]")
        assert s.kind == "reach_avoid"
        assert s.comparison == ">="
        assert s.threshold == F(1, 2)
        assert s.goal_label == "goal" and s.bad_label == "bad"
        assert parse_spec(str(s)) == s

    def test_plain_reach_form_has_no_avoid_label(self):
        s = parse_spec("P> 0.6 [F goal]")
        assert s.bad_label is None
        assert s.threshold == F(3, 5)
        assert parse_spec(str(s)) == s

    def test_reward_forms(self):
        s = parse_spec("Emin<= 4.01 [F goal]")
        assert s.kind == "expected_reward" and s.opt == "min"
        t = parse_spec("Emax> 2 [F goal]")
        assert t.opt == "max"
        assert parse_spec(str(s)) == s

    @pytest.mark.parametrize("text", [
        "P> 0.5 [F bad]", "P> 0.5 [!goal U bad]", "P> 0.5 [!bad U target]",
        "P> 0.5 [!trap U goal]", "Emin<= 3 [F done]"])
    def test_labels_other_than_goal_and_bad_are_rejected(self, text):
        # models carry only goal and bad: any other name used to be read
        # as them, so "P> 0.5 [F bad]" gave the value of [!bad U goal]
        with pytest.raises(ModelError, match="label"):
            parse_spec(text)

    def test_satisfied_by(self):
        s = parse_spec("P> 0.5 [!bad U goal]")
        assert s.satisfied_by(F(3, 4))
        assert not s.satisfied_by(F(1, 2))
        assert parse_spec("Emin<= 4 [F goal]").satisfied_by(F(4))
        assert not parse_spec("Emin< 4 [F goal]").satisfied_by(INFINITE)

    def test_rejects_garbage(self):
        for bad in ("P> goal", "P> 1.5 [F goal]", "Q> 0 [F goal]", ""):
            with pytest.raises(ModelError):
                parse_spec(bad)


class TestNumbersAndInstantiations:
    def test_format_number(self):
        assert format_number(F(1, 2)) == "0.5"
        assert format_number(F(797, 1000)) == "0.797"
        assert format_number(F(1, 3)) == "1/3"
        assert format_number(F(-3, 4)) == "-0.75"
        assert format_number(F(7)) == "7"
        with pytest.raises(TypeError):
            format_number(0.5)

    def test_format_number_past_the_int_to_str_digit_limit(self):
        big = 10 ** 5001 + 1   # 5002 digits; the default limit is 4300
        assert format_number(F(big)) == "1%s1" % ("0" * 5000)
        assert format_number(F(big, 3)) == "1%s1/3" % ("0" * 5000)
        assert format_number(F(big, 8)) == "125%s.125" % ("0" * 4998)

    def test_infinite_singleton_ordering(self):
        assert Infinite_roundtrip() is INFINITE
        assert INFINITE > F(10**9)
        assert not INFINITE < F(10**9)
        assert F(1) < INFINITE and F(1) <= INFINITE
        assert is_infinite(INFINITE) and is_infinite(float("inf"))
        assert not is_infinite(F(1))

    def test_apply_instantiation_commutes_with_evaluation(self):
        rng = random.Random(5)
        for _ in range(25):
            d = g.random_simple_pmc(rng, max_states=10)
            u = g.random_instantiation_for(d, rng)
            res = apply_instantiation(d, u)
            assert res.well_defined
            for s in d.states:
                for t, poly in d.row(s).items():
                    want = poly.evaluate(u.values)
                    if want == 0:
                        assert t not in res.model.row(s)
                    else:
                        assert res.model.row(s)[t] == want

    def test_apply_instantiation_flags_defects(self):
        d = g.biased_choice_pmc()
        res = apply_instantiation(d, Instantiation({"p": F(3, 2)}))
        assert not res.well_defined
        assert any("entry" in x for x in res.defects)

    def test_check_well_defined_levels(self):
        d = g.biased_choice_pmc()
        w = check_well_defined(d, Instantiation({"p": F(1, 2)}), eps=F(1, 10))
        assert w.well_defined and w.graph_preserving and w.eps_preserving
        w0 = check_well_defined(d, Instantiation({"p": F(0)}))
        assert w0.well_defined and not w0.graph_preserving
        weps = check_well_defined(d, Instantiation({"p": F(1, 100)}), eps=F(1, 10))
        assert weps.graph_preserving and not weps.eps_preserving

    @pytest.mark.parametrize("p, zero, one", [(F(0), "0", "1"), (0.0, "0", "1")])
    def test_boundary_defects_name_the_evaluated_values(self, p, zero, one):
        # zero entries are dropped from the instantiated chain; the defect
        # text still prints them, exact for a float point too
        w = check_well_defined(g.biased_choice_pmc(), Instantiation({"p": p}), eps=F(1, 10))
        assert (w.well_defined, w.graph_preserving, w.eps_preserving) == (True, False, False)
        assert w.defects == ["entry (0,1) evaluates to boundary value " + zero,
                             "entry (0,2) evaluates to boundary value " + one]

    @pytest.mark.parametrize("v", [0.1, np.float64(0.1)])
    def test_floats_read_as_their_decimal_repr(self, v):
        u = Instantiation({"p": v, "q": 1})
        assert u.values == {"p": F(1, 10), "q": F(1)}
        assert all(type(x) is F for x in u.values.values())

    def test_chains_reject_float_entries(self):
        Mc([0, 1], 0, {0: {1: F(1)}, 1: {1: F(1)}})
        with pytest.raises(ModelError, match="exact"):
            Mc([0, 1], 0, {0: {0: 0.5, 1: F(1, 2)}, 1: {1: F(1)}})
        with pytest.raises(ModelError, match="sums to"):
            Mc([0, 1], 0, {0: {0: F(1, 2), 1: F(1, 3)}, 1: {1: F(1)}})


def Infinite_roundtrip():
    # the divergence marker is a singleton, whoever constructs it
    return type(INFINITE)()
