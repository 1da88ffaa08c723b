"""Model types, validation, specifications, and the text formats."""

import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import genmodels as g
from childenv import child_env
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
from fscsynth.fsc import FscTopology, uniform_fsc
from fscsynth.polynomials import GCD_TERM_THRESHOLD, Polynomial, RationalFunction
from fscsynth.transforms import (
    action_restricted_pmc,
    induced_pmc,
    next_obs_pmc,
    substituted_pmc,
)

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

    def test_written_entries_take_the_printed_route(self, monkeypatch):
        # the grammar is for text written by hand: every entry and reward
        # write_pmc writes is read by _read_printed
        printed, parsed = [], []
        read_printed = formats._read_printed

        def counting(text):
            printed.append(text)
            return read_printed(text)

        def recording(text, *args):
            parsed.append(text)
            return parse_expression(text, *args)

        monkeypatch.setattr(formats, "_read_printed", counting)
        monkeypatch.setattr(formats, "parse_expression", recording)
        rng = random.Random(17)
        entries = rewards = 0
        for _ in range(6):
            m = g.random_pomdp(rng, with_rewards=True)
            for build in (induced_pmc, substituted_pmc, action_restricted_pmc,
                          next_obs_pmc):
                for k in (1, 2, 3):
                    for topology in (FscTopology.FULL, FscTopology.COUNTER):
                        d = build(m, k, topology)
                        assert parse_pmc(write_pmc(d)) == d
                        entries += sum(map(len, d.trans.values()))
                        rewards += len(d.rewards)
        assert parsed == []
        assert rewards and len(printed) == entries + rewards

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

    @pytest.mark.parametrize("terms", [2, GCD_TERM_THRESHOLD + 2])
    def test_a_cancelling_denominator_is_rejected_at_any_size(self, terms):
        # (big)*(1 - q)/(1 - q) is a polynomial, but the grammar cancels no
        # polynomial factor, so the text is refused however long big is
        big = " + ".join("p^%d" % e for e in range(terms))
        with pytest.raises(FormatError, match="divides by a parametric expression"):
            parse_poly("(%s)*(1 - q)/(1 - q)" % big)

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

    @pytest.mark.parametrize("body, line, name", [
        ("trans 0 0 1 - p + q\nreward 0 p\n", 5, "q"),
        ("trans 0 0 1\nreward 0 2*q\n", 6, "q"),
        # of two undeclared names, the first in sorted order
        ("trans 0 0 zb*qa\n", 5, "qa"),
    ])
    def test_undeclared_parameter_errors_name_their_line(self, body, line, name):
        with pytest.raises(FormatError) as err:
            parse_pmc("pmc\nstates 1\ninitial 0\nparams p\n" + body)
        assert str(err.value) == "line %d: parameter '%s' is not declared" % (line, name)

    def test_undeclared_and_missing_names_do_not_depend_on_the_hash_seed(self):
        # every message that names one of several parameters, taken in
        # interpreters whose string hashes differ
        script = "\n".join([
            "import json",
            "from fscsynth.formats import FormatError, parse_pmc",
            "from fscsynth.models import ModelError, ParameterTable, PmcT",
            "from fscsynth.polynomials import MissingParameterError, Polynomial",
            "qz = Polynomial.variable('zb') * Polynomial.variable('qa')",
            "one = {0: {0: Polynomial.constant(1)}}",
            "cases = [",
            "    lambda: parse_pmc('pmc\\nstates 1\\ninitial 0\\nparams p\\n'",
            "                      'trans 0 0 zb*qa\\n'),",
            "    lambda: PmcT(1, 0, {0: {0: qz}}, ParameterTable(['p'])),",
            "    lambda: PmcT(1, 0, one, ParameterTable(['p']), rewards={0: qz}),",
            "    lambda: qz.evaluate({}),",
            "]",
            "out = []",
            "for case in cases:",
            "    try:",
            "        case()",
            "    except (FormatError, ModelError, MissingParameterError) as err:",
            "        out.append(str(err))",
            "print(json.dumps(out))",
        ])
        seen = set()
        for seed in ("0", "1", "2"):
            env = dict(child_env(), PYTHONHASHSEED=seed)
            run = subprocess.run([sys.executable, "-c", script],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            seen.add(run.stdout)
        assert [json.loads(out) for out in seen] == [[
            "line 5: parameter 'qa' is not declared",
            "undeclared parameter 'qa' in row of state 0",
            "undeclared parameter 'qa' in reward of state 0",
            "no value assigned to parameter 'qa'",
        ]]

    @pytest.mark.parametrize("rows, message", [
        # an undeclared name at state 0 comes before a deadlock at state 2
        ({0: {1: "q", 2: "1 - q"}, 1: {1: "1"}},
         "undeclared parameter 'q' in row of state 0"),
        ({1: {1: "1"}, 2: {0: "q", 1: "1 - q"}},
         "state 0 has no outgoing transition (deadlock)"),
        # an explicit zero entry comes before an undeclared name of its row
        ({0: {0: "0", 1: "q", 2: "1 - q"}, 1: {1: "1"}, 2: {2: "1"}},
         "explicit zero entry at (0,0)"),
    ])
    def test_first_of_several_defects_is_reported(self, rows, message):
        trans = {s: {t: parse_poly(p) for t, p in row.items()} for s, row in rows.items()}
        with pytest.raises(ModelError) as err:
            PmcT(3, 0, trans, params=ParameterTable(["p"]))
        assert str(err.value) == message

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

    # ascending, so list position orders the values
    VALUES = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), INFINITE]
    # spec (threshold 1/2), above, maximizing, the VALUES that satisfy it
    VERDICTS = [
        ("P> 1/2 [!bad U goal]", True, True, [F(2, 3), F(1), INFINITE]),
        ("P>= 1/2 [F goal]", True, True, [F(1, 2), F(2, 3), F(1), INFINITE]),
        ("Emax> 1/2 [F goal]", True, True, [F(2, 3), F(1), INFINITE]),
        ("Emax>= 1/2 [F goal]", True, True, [F(1, 2), F(2, 3), F(1), INFINITE]),
        ("Emax< 1/2 [F goal]", False, True, [F(0), F(1, 3)]),
        ("Emax<= 1/2 [F goal]", False, True, [F(0), F(1, 3), F(1, 2)]),
        ("Emin> 1/2 [F goal]", True, False, [F(2, 3), F(1), INFINITE]),
        ("Emin>= 1/2 [F goal]", True, False, [F(1, 2), F(2, 3), F(1), INFINITE]),
        ("Emin< 1/2 [F goal]", False, False, [F(0), F(1, 3)]),
        ("Emin<= 1/2 [F goal]", False, False, [F(0), F(1, 3), F(1, 2)]),
    ]

    @pytest.mark.parametrize("text, above, maximizing, satisfying", VERDICTS)
    def test_verdicts_orderings_and_interval_ends(self, text, above, maximizing,
                                                  satisfying):
        s = parse_spec(text)
        vals = self.VALUES
        assert [v for v in vals if s.satisfied_by(v)] == satisfying
        assert (s.above, s.maximizing) == (above, maximizing)
        # better is strict, ties at INFINITE included
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                assert s.better(a, b) == (i > j if maximizing else i < j)
        # the end `above` picks decides a value interval [lo, hi]: every value
        # in it satisfies the spec iff the pessimistic end does, and none
        # does iff the optimistic end does not
        for i in range(len(vals)):
            for j in range(i, len(vals)):
                inside = [s.satisfied_by(v) for v in vals[i:j + 1]]
                lo, hi = vals[i], vals[j]
                assert all(inside) == s.satisfied_by(lo if above else hi)
                assert any(inside) == s.satisfied_by(hi if above else lo)

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

    def test_rewards_are_nonnegative(self):
        trans = {0: {1: F(1)}, 1: {1: F(1)}}
        Mc([0, 1], 0, trans, {0: F(0)})
        with pytest.raises(ModelError, match="^negative reward -1/2 at state 0$"):
            Mc([0, 1], 0, trans, {0: F(-1, 2)})
        p = Polynomial.variable("p")
        one = Polynomial.constant(1)
        ptrans = {0: {1: p, 2: one - p}, 1: {1: one}, 2: {2: one}}
        with pytest.raises(ModelError, match="^negative reward at state 1$"):
            PmcT(3, 0, ptrans, ParameterTable(["p"]), {1: Polynomial.constant(F(-1, 3))})
        # a parametric reward is a defect of the points where it is negative
        d = PmcT(3, 0, ptrans, ParameterTable(["p"]), {0: p - Polynomial.constant(F(1, 2))})
        w = apply_instantiation(d, Instantiation({"p": F(1, 8)}))
        assert not w.well_defined and not w.graph_preserving
        assert w.defects == ["reward of state 0 evaluates to -3/8"]
        assert w.model.rewards == {0: F(-3, 8)}
        assert apply_instantiation(d, Instantiation({"p": F(1, 2)})).graph_preserving


def _primes(rng, count):
    """count distinct random 20-bit primes."""
    out = []
    while len(out) < count:
        n = rng.randrange(1 << 19, 1 << 20) | 1
        if n not in out and all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            out.append(n)
    return out


class TestIntInstantiation:
    """apply_instantiation's int pass against the Fraction loop it replaced,
    genmodels.ref_apply_instantiation, field by field."""

    EPS = F(1, 10)
    KINDS = ("decimal", "float", "coprime", "vertex", "outside", "over", "eps", "below-eps")

    def _point(self, d, kind, rng):
        """A valuation of d's parameter groups: on the simplex with decimal,
        float or pairwise-coprime 20-bit denominators, at a vertex (values 0
        and 1), ill-defined (a value outside [0, 1], groups summing over
        1), every value at eps, or one just below it."""
        groups = d.ensure_param_groups()
        primes = _primes(rng, sum(map(len, groups)))
        vals = {}
        for group in groups:
            w = [rng.randint(1, 9) for _ in range(len(group) + 1)]
            tot = sum(w)
            top = rng.randrange(len(group) + 1)
            for i, name in enumerate(group):
                if kind == "decimal":
                    vals[name] = F(w[i] * 1000 // tot, 1000)
                elif kind == "float":
                    vals[name] = w[i] / tot
                elif kind == "coprime":
                    p = primes.pop()
                    vals[name] = F(w[i] * p // tot, p)
                elif kind == "vertex":
                    vals[name] = F(i == top)
                elif kind == "over":
                    vals[name] = F(3, 5)
                else:
                    vals[name] = self.EPS
        names = [n for group in groups for n in group]
        if kind == "outside":
            vals = {n: F(1, 2 * len(names)) for n in names}
            vals[rng.choice(names)] = rng.choice([F(-1, 4), F(5, 4)])
        elif kind == "below-eps":
            vals[rng.choice(names)] = self.EPS - F(1, 10 ** 6)
        return Instantiation(vals)

    def _chains(self):
        # rows that sum to p + q, not to 1, at most points
        p, q = Polynomial.variable("p"), Polynomial.variable("q")
        one = Polynomial.constant(1)
        yield PmcT(3, 0, {0: {1: p, 2: q}, 1: {1: one}, 2: {2: one}},
                   params=ParameterTable(["p", "q"]), goal={1})
        yield g.wide_group_pmc(reward=True)
        rng = random.Random(2024)
        for _ in range(6):
            yield g.random_simple_pmc(rng, max_states=12)
            m = g.random_pomdp(rng, max_states=5, max_actions=3, max_obs=2,
                               with_rewards=True)
            for k in (1, 2):
                d = induced_pmc(m, k)
                if d.params.names:
                    yield d

    def test_matches_the_fraction_loop(self):
        rng = random.Random(77)
        seen = set()
        for d in self._chains():
            for kind in self.KINDS:
                u = self._point(d, kind, rng)
                for eps in (None, self.EPS):
                    got = apply_instantiation(d, u, eps)
                    want = g.ref_apply_instantiation(d, u, eps)
                    assert ([(s, list(row.items())) for s, row in got.model.trans.items()]
                            == [(s, list(row.items())) for s, row in want.model.trans.items()])
                    assert list(got.model.rewards.items()) == list(want.model.rewards.items())
                    assert got.model == want.model and got.model.meta == want.model.meta
                    assert all(type(v) is F for row in got.model.trans.values()
                               for v in row.values())
                    assert all(type(v) is F for v in got.model.rewards.values())
                    flags = (got.well_defined, got.graph_preserving, got.eps_preserving)
                    assert flags == (want.well_defined, want.graph_preserving,
                                     want.eps_preserving), (kind, u)
                    assert got.defects == want.defects
                    seen.add(flags)
        # every verdict the pass can give came up
        assert seen >= {(True, True, None), (True, True, True), (True, True, False),
                        (True, False, None), (True, False, False),
                        (False, False, None), (False, False, False)}


def Infinite_roundtrip():
    # the divergence marker is a singleton, whoever constructs it
    return type(INFINITE)()
