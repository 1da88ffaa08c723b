"""Model checking, closed forms, region bounds, and the evaluators."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

import genmodels as g
from fscsynth import analysis, polynomials, transforms
from fscsynth.analysis import (
    ExactPmcEvaluator,
    FloatPmcEvaluator,
    Region,
    check_mc,
    expected_reward,
    mdp_optimal,
    prove_absence,
    qualitative_precompute,
    reach_avoid_prob,
    region_bounds,
    solve_exact,
    state_eliminate,
    state_eliminate_reward,
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
    is_infinite,
    parse_spec,
)
from fscsynth.polynomials import Polynomial, RationalFunction, _sympy_cancel
from fscsynth.transforms import induced_pmc

F = Fraction
V = Polynomial.variable
C = Polynomial.constant

SPEC = parse_spec("P>= 1/2 [!bad U goal]")


def _floats(d, u):
    """The point u as the float vector FloatPmcEvaluator.evaluate_vector takes."""
    return np.array([float(u[name]) for name in d.params.names])


def _mc(trans, goal=(), bad=(), rewards=None, initial=0):
    states = sorted({s for s in trans} | {t for row in trans.values() for t in row})
    return Mc(states, initial, trans, rewards, goal, bad)


class TestSolvers:
    def test_solve_exact_golden(self):
        # x0 = 1/2 x1 + 1/4, x1 = 1/3 x0 + 1/2
        rows = [{1: F(1, 2)}, {0: F(1, 3)}]
        c = [F(1, 4), F(1, 2)]
        x = solve_exact(rows, c)
        assert x[0] == F(3, 5) and x[1] == F(7, 10)

    def test_solve_exact_reads_a_float_at_its_binary_value(self):
        # as Fraction(v) reads it: a float reward reaches c unconverted
        assert solve_exact([{1: 0.5}, {}], [0.1, 1]) == [F(0.5) + F(0.1), F(1)]

    def test_reach_avoid_golden(self):
        mc = _mc({0: {1: F(1, 2), 2: F(1, 2)}, 1: {1: F(1)}, 2: {1: F(1)}},
                 goal={1}, bad={2})
        assert reach_avoid_prob(mc) == F(1, 2)

    def test_trivial_cases(self):
        mc = _mc({0: {0: F(1)}}, goal={0})
        assert reach_avoid_prob(mc) == 1
        mc2 = _mc({0: {0: F(1)}}, bad={0}, goal=())
        assert reach_avoid_prob(mc2) == 0

    def test_expected_reward(self):
        mc = _mc({0: {1: F(1)}, 1: {2: F(1)}, 2: {2: F(1)}},
                 goal={2}, rewards={0: F(4), 1: F(6)})
        assert expected_reward(mc) == F(10)

    def test_expected_reward_diverges_without_certain_reach(self):
        mc = _mc({0: {1: F(1, 2), 2: F(1, 2)}, 1: {1: F(1)}, 2: {2: F(1)}},
                 goal={1}, rewards={0: F(1)})
        assert expected_reward(mc) is INFINITE

    def test_check_mc_plain_reach_ignores_bad_label(self):
        mc = _mc({0: {1: F(1, 2), 2: F(1, 2)}, 1: {1: F(1)}, 2: {1: F(1)}},
                 goal={1}, bad={2})
        assert check_mc(mc, parse_spec("P> 0.1 [!bad U goal]")) == F(1, 2)
        assert check_mc(mc, parse_spec("P> 0.1 [F goal]")) == F(1)

    def test_qualitative_sets(self):
        d = induced_pmc(g.sticky_start_pomdp(), 1)
        from fscsynth.analysis import _pmc_graph
        q = qualitative_precompute(_pmc_graph(d), d.goal, d.bad)
        assert 1 in q.s_one
        assert 0 in q.s_one  # under graph-preserving semantics the loop escapes


def _substochastic_system(rng, n, width, loops, constant):
    """Rows over width(n) random successors (self-loops kept or dropped),
    each row keeping back a positive weight, so every row sums to less than
    one and I - A is nonsingular."""
    rows = []
    c = []
    for i in range(n):
        succ = rng.sample(range(n), min(n, width(n)))
        if not loops and i in succ:
            succ.remove(i)
        weights = [rng.randint(0, 9) for _ in succ]
        total = sum(weights) + rng.randint(1, 9)
        rows.append({j: F(w, total) for j, w in zip(succ, weights) if w})
        has_c = constant == "all" or (constant == "some" and rng.random() < 0.5)
        c.append(F(rng.randint(0, 5), rng.randint(1, 7)) if has_c else F(0))
    return rows, c


class TestSolveExact:
    SIZES = list(range(1, 13)) + [20, 40, 80, 120]
    WIDTHS = {
        "sparse": lambda n: 3,
        "near-dense": lambda n: max(1, n - 2),
    }

    @pytest.mark.parametrize("shape", ["sparse", "near-dense"])
    @pytest.mark.parametrize("loops", [True, False])
    @pytest.mark.parametrize("constant", ["all", "some", "none"])
    def test_solution_satisfies_the_system_exactly(self, shape, loops, constant):
        rng = random.Random("%s/%s/%s" % (shape, loops, constant))
        # dense fill costs O(n^3) big-integer operations whose operands grow
        # with every pivot: near-dense systems stop at n = 80, a few tenths
        # of a second
        sizes = [n for n in self.SIZES if shape == "sparse" or n <= 80]
        for n in sizes:
            rows, c = _substochastic_system(rng, n, self.WIDTHS[shape], loops, constant)
            x = solve_exact(rows, c)
            assert len(x) == n
            assert all(type(v) is F for v in x)
            for i in range(n):
                assert x[i] == sum(a * x[j] for j, a in rows[i].items()) + c[i]
            if constant == "none":
                assert x == [0] * n

    @pytest.mark.parametrize("shape", ["sparse", "near-dense"])
    def test_float_repr_entries(self, shape):
        # entries with the ~57-bit denominators of a float's shortest repr,
        # like the points certify reads: every row's lcm is a large integer,
        # and many updated rows have a content above 1 to divide out
        rng = random.Random("repr/%s" % shape)
        for n in (3, 12, 40):
            rows = []
            c = []
            for i in range(n):
                succ = rng.sample(range(n), min(n, self.WIDTHS[shape](n)))
                cuts = sorted(rng.random() for _ in range(len(succ) + 1))
                weights = [F(repr(b - a)) for a, b in zip([0.0] + cuts, cuts)]
                rows.append(dict(zip(succ, weights)))
                c.append(F(repr(rng.random())) * (1 - sum(weights)))
            x = solve_exact(rows, c)
            assert max(a.denominator for row in rows for a in row.values()).bit_length() > 50
            for i in range(n):
                assert x[i] == sum(a * x[j] for j, a in rows[i].items()) + c[i]

    @pytest.mark.parametrize("rows, c", [
        # states 1 and 2 form a closed class inside the unknowns
        ([{1: F(1, 2)}, {2: F(1)}, {1: F(1)}], [F(1, 2), F(0), F(0)]),
        ([{0: F(1)}], [F(0)]),
        ([{1: F(1, 3), 2: F(1, 3)}, {1: F(1, 2), 2: F(1, 2)}, {1: F(1)}],
         [F(1, 3), F(0), F(0)]),
        # a closed cycle without self-loops: the zero pivot appears only
        # once two eliminations have folded the loop
        ([{1: 1}, {2: 1}, {0: 1}], [0, 0, 0]),
    ])
    def test_singular_system_raises(self, rows, c):
        with pytest.raises(ModelError, match="^singular linear system$"):
            solve_exact(rows, c)

    def test_pivot_order_is_the_least_degree_at_each_step(self, monkeypatch):
        # the heap gives the order of a min over every remaining state
        def min_order(w, preds, candidates):
            remaining = set(candidates)
            while remaining:
                best = min(remaining, key=lambda s: (len(preds[s]) * len(w[s]), s))
                remaining.discard(best)
                yield best

        heap_order = analysis._pick_elimination_order
        rng = random.Random("pivots")
        # narrow rows, with and without self-loops, leave predecessors
        # whose keys only a pivot's update refreshes
        for n in (5, 12, 30, 60):
            for width, loops in itertools.product((1, 2, 3, n - 2), (True, False)):
                rows, c = _substochastic_system(rng, n, lambda _n: width, loops, "some")
                orders = []
                for order in (heap_order, min_order):
                    monkeypatch.setattr(analysis, "_pick_elimination_order", order)
                    system = analysis._integer_system(
                        range(n), (), lambda i: analysis._integer_row(rows[i], c[i]))
                    _d, _w, eliminated = analysis._eliminate(*system, keep={n // 2})
                    orders.append([s for s, _ds, _out in eliminated])
                assert orders[0] == orders[1]
                assert sorted(orders[0]) == [i for i in range(n) if i != n // 2]


class TestIntegerSystem:
    def test_hand_written_system(self):
        # U = [5, 3], `one` = {7}; state 9 is neither, so its entries drop
        rows = {
            5: (6, {5: 2, 3: 1, 7: 2, 9: 1}, 0),   # self-loop 2, mass 2 into one
            3: (4, {5: 0, 7: 1, 9: 3}, 2),         # a zero entry, r = 2 plus 1
        }
        d, w = analysis._integer_system([5, 3], {7}, rows.__getitem__)
        assert d == [4, 4]
        assert w == {0: {1: 1, analysis._GOOD: 2}, 1: {analysis._GOOD: 3}}
        # 4 x_3 = 3 and 4 x_5 = x_3 + 2
        num, den = analysis._solve_integer(d, w)
        assert [F(v, den) for v in num] == [F(11, 16), F(3, 4)]

    def test_polynomial_rows(self):
        # integer polynomials fold the same way: the self-loop p makes the
        # pivot 1 - p, and the mass 1 - p into `one` joins r
        p = V("p")
        d, w = analysis._integer_system([0], {1}, lambda s: (1, {0: p, 1: 1 - p}, 0))
        assert d == [1 - p]
        assert w == {0: {analysis._GOOD: 1 - p}}


class TestMdpOptimal:
    def test_probability_golden(self):
        m = g.fork_pomdp()
        res = mdp_optimal(m.mdp, SPEC)
        assert res.value == F(7, 10)
        assert res.strategy[0] == "a2"

    def test_min_reward_golden(self):
        m = g.chain_reward_pomdp()
        res = mdp_optimal(m.mdp, parse_spec("Emin<= 5 [F goal]"))
        assert res.value == F(4)
        res2 = mdp_optimal(m.mdp, parse_spec("Emax> 5 [F goal]"))
        assert res2.value == F(7)

    def test_dominates_random_controllers(self):
        rng = random.Random(42)
        from fscsynth.fsc import FscTopology, fsc_from_instantiation, induced_mc
        for _ in range(10):
            m = g.random_pomdp(rng, max_states=6)
            d = induced_pmc(m, 2)
            u = g.random_instantiation_for(d, rng)
            v = check_mc(induced_mc(m, fsc_from_instantiation(
                m, 2, FscTopology.FULL, u)), SPEC)
            assert v <= mdp_optimal(m.mdp, SPEC).value


def _md_strategies(mdp):
    """Every memoryless deterministic strategy of a small MDP."""
    return [dict(zip(mdp.states, pick))
            for pick in itertools.product(*(mdp.actions(s) for s in mdp.states))]


def _strategy_chain(mdp, strategy):
    return Mc(mdp.states, mdp.initial,
              {s: mdp.trans[(s, a)] for s, a in strategy.items()},
              {s: mdp.rewards.get((s, a), F(0)) for s, a in strategy.items()},
              mdp.goal, mdp.bad)


class TestMdpOptimalIsExact:
    """mdp_optimal against brute force over every memoryless deterministic
    strategy, which attains the optimum of each of these objectives."""

    @pytest.mark.parametrize("text, pick", [
        ("P>= 1/2 [!bad U goal]", max),
        ("P>= 1/2 [F goal]", max),
        ("Emin<= 5 [F goal]", min),
        ("Emax>= 5 [F goal]", max),
    ])
    def test_value_and_strategy_are_optimal(self, text, pick):
        spec = parse_spec(text)
        rng = random.Random("mdp-optimal/" + text)
        # random_mdp's trap makes reach values fractional; random_pomdp's
        # chains make expected rewards finite more often
        mdps = [g.random_mdp(rng, max_states=5, max_actions=3) for _ in range(40)]
        mdps += [g.random_pomdp(rng, max_states=5, max_actions=3,
                                with_rewards=True).mdp for _ in range(40)]
        for mdp in mdps:
            values = [check_mc(_strategy_chain(mdp, st), spec)
                      for st in _md_strategies(mdp)]
            res = mdp_optimal(mdp, spec)
            assert res.value == pick(values)
            if not is_infinite(res.value):
                # the returned strategy attains the value; states it leaves
                # open are never visited or do not matter
                st = {s: mdp.actions(s)[0] for s in mdp.states}
                st.update(res.strategy)
                assert check_mc(_strategy_chain(mdp, st), spec) == res.value


class TestClosedForm:
    def test_golden_linear_form(self):
        rf = state_eliminate(g.biased_choice_pmc())
        p = V("p")
        assert rf == RationalFunction(C(F(1, 2)) + C(F(3, 10)) * p)

    def test_forms_are_reduced(self, monkeypatch):
        # the full gcd of numerator and denominator is a constant, whatever
        # the pivot order left behind; the reward form counts steps (unit
        # state rewards), since these models carry no rewards of their own
        rng = random.Random(43)
        models = [g.random_simple_pmc(rng, max_states=10) for _ in range(10)]
        models += [induced_pmc(g.random_pomdp(random.Random(seed), max_states=9,
                                              max_actions=3, max_obs=3), 1)
                   for seed in (44, 48)]
        # some step forms pass GCD_TERM_THRESHOLD during elimination, where
        # rows share a polynomial factor, not just an int: cancel then
        # lowers the degree of what it divides
        lowered = []
        cancel = polynomials.cancel

        def recording(*ps):
            qs = cancel(*ps)
            lowered.append(any(isinstance(p, Polynomial) and q.degree() < p.degree()
                               for p, q in zip(ps, qs)))
            return qs

        monkeypatch.setattr(polynomials, "cancel", recording)
        checked = 0
        for d in models:
            steps = PmcT(d.num_states, d.initial, d.trans, params=d.params,
                         rewards={s: C(1) for s in d.states}, goal=d.goal,
                         bad=d.bad, param_groups=d.param_groups)
            u = g.random_instantiation_for(d, rng)
            mc = apply_instantiation(steps, u).model
            for form, value in ((state_eliminate, reach_avoid_prob),
                                (state_eliminate_reward, expected_reward)):
                try:
                    rf = form(steps)
                except ModelError:
                    continue  # the expected reward diverges
                qn, qd = _sympy_cancel(rf.num, rf.den)
                assert qn is rf.num and qd is rf.den, str(rf)
                assert rf.evaluate(u.values) == value(mc)
                checked += 1
        assert checked > 20
        assert any(lowered)

    def test_matches_evaluator_at_random_points(self):
        rng = random.Random(44)
        for _ in range(6):
            d = g.random_simple_pmc(rng, max_states=10)
            rf = state_eliminate(d)
            ev = ExactPmcEvaluator(d, SPEC)
            for _ in range(25):
                u = g.random_instantiation_for(d, rng)
                assert rf.evaluate(u.values) == ev.evaluate(u)

    def test_reward_closed_form(self):
        p = V("p")
        d = PmcT(3, 0,
                 {0: {2: p, 1: C(1) - p}, 1: {2: C(1)}, 2: {2: C(1)}},
                 params=ParameterTable(["p"]), goal={2},
                 rewards={0: C(4), 1: C(6)}, param_groups=[["p"]])
        rf = state_eliminate_reward(d)
        assert rf == RationalFunction(C(10) - C(6) * p)

    def test_reward_form_without_rewards_is_zero_at_once(self, monkeypatch):
        rng = random.Random(1)
        for _ in range(31):
            d = g.random_simple_pmc(rng)
        assert d.num_states == 23 and not d.rewards

        def refuse(*_args):
            raise AssertionError("eliminated a system whose value is 0")

        monkeypatch.setattr(analysis, "_eliminate", refuse)
        assert state_eliminate_reward(d) == 0


class TestBoundaryBehavior:
    def test_recompute_triggers_only_at_boundary(self):
        d = induced_pmc(g.sticky_start_pomdp(), 1)
        spec = parse_spec("P> 0.5 [F goal]")
        ev = ExactPmcEvaluator(d, spec)
        name = d.params.names[0]
        for v in (F(1, 10 ** 6), F(1, 1000), F(1, 2)):
            assert ev.evaluate(Instantiation({name: v})) == 1
        assert ev.recompute_count == 0
        assert ev.evaluate(Instantiation({name: F(0)})) == 0
        assert ev.recompute_count == 1

    def test_interior_projection_keeps_satisfaction(self):
        # a boundary point with value above a threshold can be nudged
        # strictly inside (0,1) without falling below that threshold
        rng = random.Random(45)
        spec = SPEC
        found = 0
        attempts = 0
        while found < 20:
            attempts += 1
            assert attempts < 400, "generator starved"
            d = g.random_simple_pmc(rng, max_states=10)
            u = dict(g.random_instantiation_for(d, rng).values)
            name = rng.choice(list(d.params.names))
            u[name] = F(rng.choice([0, 1]))
            ev = ExactPmcEvaluator(d, spec)
            v = ev.evaluate(Instantiation(u))
            if v == 0:
                continue
            lam = v / 2
            ok = False
            for i in range(2, 60):
                eps = F(1, 2 ** i)
                clamped = {n: min(max(x, eps), 1 - eps) for n, x in u.items()}
                if ev.evaluate(Instantiation(clamped)) > lam:
                    ok = True
                    break
            assert ok, (d.num_states, name, v)
            found += 1


class TestRegions:
    def test_region_api(self):
        r = Region({"p": (F(1, 4), F(3, 4)), "q": (F(1, 2), F(1, 2))})
        assert r.contains_point({"p": F(1, 2), "q": F(1, 2)})
        assert not r.contains_point({"p": F(9, 10), "q": F(1, 2)})
        left, right = r.split()
        assert left.intervals["p"] == (F(1, 4), F(1, 2))
        assert right.intervals["p"] == (F(1, 2), F(3, 4))
        rng = random.Random(1)
        for _ in range(20):
            assert r.contains_point(g.sample(r, rng))
        with pytest.raises(ModelError):
            Region({"p": (F(0), F(1, 2))})
        for point in (Region({}), Region({"p": (F(1, 2), F(1, 2))})):
            with pytest.raises(ModelError, match="cannot split a point region"):
                point.split()

    @pytest.mark.parametrize("v", [0.1, np.float64(0.1)])
    def test_float_bounds_read_as_their_decimal_repr(self, v):
        # as an Instantiation reads them, so the box holds its own corners
        r = Region({"p": (v, 0.9)})
        assert r.intervals["p"] == (F(1, 10), F(9, 10))
        assert r.contains_point(Instantiation({"p": v}))
        assert r.contains_point(Instantiation({"p": 0.9}))

    def test_bounds_golden(self):
        d = g.biased_choice_pmc()
        reg = Region({"p": (F(1, 100), F(99, 100))})
        b = region_bounds(d, reg, parse_spec("P> 0.8 [!bad U goal]"))
        assert b.lower == F(503, 1000)
        assert b.upper == F(797, 1000)
        assert b.tight

    def test_names_the_chain_does_not_declare_are_rejected(self):
        # an undeclared name would otherwise be a splitting axis that
        # changes no edge
        d = g.biased_choice_pmc()
        spec = parse_spec("P> 0.8 [!bad U goal]")
        reg = Region({"p": (F(1, 100), F(99, 100)), "zz": (F(1, 4), F(3, 4))})
        with pytest.raises(ModelError, match="'zz', which the chain does not declare"):
            region_bounds(d, reg, spec)
        with pytest.raises(ModelError, match="'zz', which the chain does not declare"):
            prove_absence(d, spec, reg, max_depth=3)

    def test_bounds_contain_sampled_values(self):
        rng = random.Random(46)
        for _ in range(8):
            d = g.random_simple_pmc(rng, max_states=10)
            reg = g.random_region_for(d, rng)
            b = region_bounds(d, reg, SPEC)
            ev = ExactPmcEvaluator(d, SPEC)
            for _ in range(10):
                v = ev.evaluate(Instantiation(g.sample(reg, rng)))
                assert b.lower <= v <= b.upper

    @pytest.mark.parametrize("k", [1, 2])
    def test_bounds_of_induced_chains_contain_sampled_values(self, k):
        # some edges of induced chains (residuals 1 - p - q) have interval
        # lower ends clamped to 0, so an allocation can trap mass inside
        # the uncertain states; the bounds must still come out and hold
        rng = random.Random(6)
        specs = [SPEC, parse_spec("Emin<= 5 [F goal]")]
        checked = 0
        for _ in range(12):
            d = induced_pmc(g.random_pomdp(rng, max_states=6, with_rewards=True), k)
            reg = g.random_region_for(d, rng)
            for spec in specs:
                b = region_bounds(d, reg, spec)
                ev = ExactPmcEvaluator(d, spec)
                for _ in range(6):
                    u = Instantiation(g.sample(reg, rng))
                    # box samples may break the parameter-group
                    # constraint, where the evaluator raises: skip those
                    if not apply_instantiation(d, u).well_defined:
                        continue
                    assert b.lower <= ev.evaluate(u) <= b.upper
                    checked += 1
        assert checked >= 50

    def test_reward_upper_bound_is_infinite_when_mass_can_be_trapped(self):
        # the exit 1 - p - q may be zero inside the box while p + q carries
        # the whole row, so states 0 and 2 can keep away from the goal
        p, q = V("p"), V("q")
        d = PmcT(3, 0, {0: {0: p, 1: C(1) - p - q, 2: q}, 1: {1: C(1)}, 2: {0: C(1)}},
                 params=ParameterTable(["p", "q"]), goal={1}, rewards={0: C(1)},
                 param_groups=[["p", "q"]])
        reg = Region({"p": (F(1, 4), F(3, 4)), "q": (F(1, 4), F(1, 2))})
        b = region_bounds(d, reg, parse_spec("Emax>= 5 [F goal]"))
        assert b.upper is INFINITE
        assert b.lower == 2   # 1 / (1 - p - q) at the least p + q

    def test_reward_upper_bound_is_finite_when_no_allocation_traps(self):
        # every exit of state 0 may be zero by interval arithmetic, but the
        # self-loop a*m carries at most 81/100 of the row
        a, m = V("a"), V("m")
        one = C(1)
        d = PmcT(4, 0, {0: {0: a * m, 1: a - a * m, 2: m - a * m,
                            3: one - a - m + a * m},
                        1: {1: one}, 2: {2: one}, 3: {3: one}},
                 params=ParameterTable(["a", "m"]), goal={1, 2, 3},
                 rewards={0: one}, param_groups=[["a"], ["m"]])
        reg = Region({"a": (F(1, 2), F(9, 10)), "m": (F(1, 2), F(9, 10))})
        b = region_bounds(d, reg, parse_spec("Emax>= 5 [F goal]"))
        assert (b.lower, b.upper) == (F(4, 3), F(100, 19))

    def test_shrinking_never_loosens(self):
        rng = random.Random(47)
        for _ in range(8):
            d = g.random_simple_pmc(rng, max_states=10)
            outer = g.random_region_for(d, rng)
            inner_iv = {}
            for name, (lo, hi) in outer.intervals.items():
                w = hi - lo
                inner_iv[name] = (lo + w / 4, hi - w / 4)
            inner = Region(inner_iv)
            bo = region_bounds(d, outer, SPEC)
            bi = region_bounds(d, inner, SPEC)
            assert bi.lower >= bo.lower
            assert bi.upper <= bo.upper


class TestAbsence:
    def test_refutes_at_the_root(self):
        d = g.biased_choice_pmc()
        res = prove_absence(d, parse_spec("P> 0.8 [!bad U goal]"),
                            Region({"p": (F(1, 100), F(99, 100))}))
        assert res.no_fsc
        assert res.bound == F(797, 1000)
        assert res.regions_checked == 1

    def test_inconclusive_when_satisfiable(self):
        d = g.biased_choice_pmc()
        res = prove_absence(d, parse_spec("P> 0.6 [!bad U goal]"),
                            Region({"p": (F(1, 100), F(99, 100))}), max_depth=6)
        assert not res.no_fsc

    def test_splitting_tightens_the_relaxation(self):
        # cross-row parameter dependencies make the one-shot bound loose;
        # recursive splitting still proves the cap
        dk = induced_pmc(g.revisit_pomdp(), 1)
        spec = parse_spec("P> 0.35 [!bad U goal]")
        reg = Region({dk.params.names[0]: (F(1, 100), F(99, 100))})
        root = prove_absence(dk, spec, reg, max_depth=0)
        assert not root.no_fsc
        deep = prove_absence(dk, spec, reg, max_depth=4)
        assert deep.no_fsc
        assert deep.regions_checked > 1
        # the true optimum is 121/400; the certified cap sits above it
        assert deep.bound >= F(121, 400)

    @pytest.mark.parametrize("spec", ["P> 0.37 [!bad U goal]", "Emax>= 5 [F goal]",
                                      "Emin> 5 [F goal]", "Emin<= 5 [F goal]",
                                      "Emax< 5 [F goal]"])
    def test_one_robust_value_per_box(self, spec, monkeypatch):
        # the verdict reads the upper bound for > and >=, the lower one for
        # < and <=: only that one is computed, and the fully observable
        # optimum folds into it where it bounds that side
        if spec.startswith("P"):
            d = induced_pmc(g.revisit_pomdp(), 1)
            reg = Region({d.params.names[0]: (F(1, 100), F(99, 100))})
        else:
            d, reg = _seeded_chain(7, 1)
        spec = parse_spec(spec)
        upper = spec.comparison in (">", ">=")
        both = region_bounds(d, reg, spec)
        want = both.upper if upper else both.lower
        dom = mdp_optimal(d.meta["pomdp"].mdp, spec).value
        if upper == (spec.kind == "reach_avoid" or spec.opt == "max"):
            want = min(want, dom) if upper else max(want, dom)
        sides = []
        robust = analysis._robust_value
        monkeypatch.setattr(analysis, "_robust_value",
                            lambda *args: sides.append(args[3]) or robust(*args))
        root = prove_absence(d, spec, reg, max_depth=0)
        assert sides == [upper] and root.regions_checked == 1
        assert root.bound == want
        sides.clear()
        res = prove_absence(d, spec, reg, max_depth=3)
        assert res.regions_checked > 1
        assert sides == [upper] * res.regions_checked

    def test_a_bounded_chain_is_freed_without_the_cycle_collector(self):
        # prove keeps a relaxation in the chain's meta; nothing of the proof
        # may refer back to the chain
        d = induced_pmc(g.revisit_pomdp(), 1)
        reg = Region({d.params.names[0]: (F(1, 100), F(99, 100))})
        chain = weakref.ref(d)
        gc.disable()
        try:
            assert prove_absence(d, SPEC, reg, max_depth=2).regions_checked > 1
            assert "_relaxation" in d.meta
            del d
            assert chain() is None
        finally:
            gc.enable()

    def test_chain_remembers_its_source_model(self):
        dk = induced_pmc(g.revisit_pomdp(), 1)
        assert dk.meta.get("pomdp") is not None


def _seeded_chain(seed, k):
    rng = random.Random(seed)
    d = induced_pmc(g.random_pomdp(rng, max_states=5, with_rewards=True), k)
    return d, g.random_region_for(d, rng)


REACH = "P>= 1/2 [!bad U goal]"
REWARD_SPECS = ("Emin<= 5 [F goal]", "Emax>= 5 [F goal]")

# (lower, upper, tight, graph_preserving) of region_bounds over the root box
# of _seeded_chain and the two halves of its split, for the reach spec and
# for both reward specs, which share their bounds; captured from the
# Fraction implementation of the interval relaxation
BOUNDS_GOLDEN = {
    (7, 1): ([("167/249", "1", False, False),
              ("167/249", "1", False, False),
              ("238/249", "1", False, False)],
             [("789/271", "10325654/799245", False, False),
              ("888/271", "531282/41447", False, False),
              ("789/271", "17100235/2046969", False, False)]),
    (7, 2): ([("3961/30000", "1", False, False)] * 3,
             [("6809/4965", "1688763265832156863/9531308380373910", False, False),
              ("6809/4965", "1688763265832156863/9531308380373910", False, False),
              ("6809/4965", "211020940064074493/3478136641621200", False, False)]),
    (9, 1): ([("35650/68349", "1720/2673", False, False),
              ("70700/128339", "1720/2673", False, False),
              ("35650/68349", "18967/32978", False, False)],
             [("infinity", "infinity", False, False)] * 3),
    (9, 2): ([("983/5260", "8127747687575/8140199353886", False, False),
              ("983/5260", "15257334889296476/15288863519024801", False, False),
              ("983/5260", "4996238723175076/5045421980192239", False, False)],
             [("infinity", "infinity", False, False)] * 3),
    (11, 1): ([("29405/146881", "48705/173036", False, True),
               ("2305/10011", "48705/173036", False, True),
               ("29405/146881", "186945/773819", False, True)],
              [("104438040/66388823", "525470148/20900377", False, True),
               ("104438040/66388823", "34468938/1692437", False, True),
               ("492974160/245478617", "525470148/20900377", False, True)]),
}


class TestRegionGolden:
    @pytest.mark.parametrize("seed, k", sorted(BOUNDS_GOLDEN))
    def test_bounds_over_a_box_and_its_halves(self, seed, k):
        reach, reward = BOUNDS_GOLDEN[seed, k]
        # the chain memoizes edge intervals across boxes: visit the halves
        # after the root box, and before it on a fresh chain
        for order in ((0, 1, 2), (2, 1, 0)):
            d, root = _seeded_chain(seed, k)
            boxes = (root, *root.split())
            for spec, want in ((REACH, reach), *((r, reward) for r in REWARD_SPECS)):
                for i in order:
                    b = region_bounds(d, boxes[i], parse_spec(spec))
                    got = (str(b.lower), str(b.upper), b.tight, b.graph_preserving)
                    assert got == want[i], (spec, i)

    @pytest.mark.parametrize("chain, spec, want", [
        ((7, 1), "P> 3/4 [!bad U goal]", (False, F(537, 542), 4)),
        ((9, 1), "P> 3/5 [!bad U goal]", (False, F(156620, 250217), 4)),
        ((9, 2), "P> 9/10 [!bad U goal]",
         (False, F(284030027446664068, 285140174540539543), 4)),
        ("revisit", "P> 0.36 [!bad U goal]", (False, F(585399, 1600000), 6)),
        ("revisit", "P> 0.37 [!bad U goal]", (True, F(585399, 1600000), 11)),
    ])
    def test_prove_at_depth_three(self, chain, spec, want):
        if chain == "revisit":
            d = induced_pmc(g.revisit_pomdp(), 1)
            root = Region({d.params.names[0]: (F(1, 100), F(99, 100))})
        else:
            d, root = _seeded_chain(*chain)
        res = prove_absence(d, parse_spec(spec), root, max_depth=3)
        assert (res.no_fsc, res.bound, res.regions_checked) == want

    def test_tight_counts_the_parameters_of_each_term(self):
        # occurrences counts the parameters a term mentions, not its degree,
        # as the count over `terms` that `tight` was read from
        x, y = V("x"), V("y")
        for p in (x * x, x * x + x * y + C(1), C(1) - x ** 300 + x * y, C(0), C(3)):
            assert p.occurrences() == sum(map(len, p.terms))
        assert (x * x * x * y).occurrences() == 2
        chains = [_seeded_chain(seed, k)[0] for seed, k in sorted(BOUNDS_GOLDEN)]
        chains += [g.random_simple_pmc(random.Random(seed), max_states=8) for seed in range(6)]
        chains.append(PmcT(2, 0, {0: {0: x * x, 1: C(1) - x * x}, 1: {1: C(1)}},
                           params=ParameterTable(["x"]), goal={1}))
        seen = set()
        for d in chains:
            rows_of = {}
            exact = True
            for s in d.states:
                for p in d.row(s).values():
                    exact = exact and sum(map(len, p.terms)) == len(p.variables())
                    for name in p.variables():
                        rows_of.setdefault(name, set()).add(s)
            want = (exact and all(len(rs) == 1 for rs in rows_of.values())
                    and d.rows_in_simple_form())
            assert analysis._Relaxation(d).tight == want
            seen.add(want)
        assert seen == {True, False}

    def test_poly_interval_on_packed_terms(self):
        # degree 300 repacks the fields to 16 bits; the signs mix
        p, q = V("p"), V("q")
        poly = C(1) - p ** 300 + p * q
        assert poly._w == 16
        intervals = {"p": (F(1, 3), F(3, 4)), "q": (F(1, 5), F(1, 2))}
        D = 60
        los = {n: lo * D for n, (lo, _hi) in intervals.items()}
        his = {n: hi * D for n, (_lo, hi) in intervals.items()}
        lo, hi, den = polynomials._interval(poly, los, his, D)
        want_lo = want_hi = F(0)
        for mono, c in poly.terms.items():
            at_lo = at_hi = F(1)
            for name, e in mono:
                at_lo *= intervals[name][0] ** e
                at_hi *= intervals[name][1] ** e
            want_lo += c * (at_lo if c > 0 else at_hi)
            want_hi += c * (at_hi if c > 0 else at_lo)
        assert (F(lo, den), F(hi, den)) == (want_lo, want_hi)


class TestEvaluators:
    def test_float_matches_exact(self):
        rng = random.Random(48)
        for _ in range(10):
            m = g.random_pomdp(rng, max_states=6)
            d = induced_pmc(m, 2)
            ex = ExactPmcEvaluator(d, SPEC)
            fl = FloatPmcEvaluator(d, SPEC)
            for _ in range(5):
                u = g.random_instantiation_for(d, rng)
                assert abs(float(ex.evaluate(u)) - fl.evaluate_vector(_floats(d, u))) < 1e-8

    def test_evaluate_vector_matches_evaluate(self):
        import numpy as np
        d = induced_pmc(g.revisit_pomdp(), 1)
        fl = FloatPmcEvaluator(d, SPEC)
        exact = ExactPmcEvaluator(d, SPEC).evaluate({d.params.names[0]: F(9, 20)})
        assert abs(fl.evaluate_vector(np.array([0.45])) - float(exact)) < 1e-12

    def test_reward_divergence_is_float_inf(self):
        p = V("p")
        d = PmcT(3, 0,
                 {0: {1: p, 2: C(1) - p}, 1: {1: C(1)}, 2: {2: C(1)}},
                 params=ParameterTable(["p"]), goal={1},
                 rewards={0: C(1)}, param_groups=[["p"]])
        spec = parse_spec("Emin<= 10 [F goal]")
        assert is_infinite(FloatPmcEvaluator(d, spec).evaluate_vector(np.array([0.5])))
        assert ExactPmcEvaluator(d, spec).evaluate({"p": F(1, 2)}) is INFINITE

    def test_exact_evaluator_rejects_bad_points(self):
        d = g.biased_choice_pmc()
        ev = ExactPmcEvaluator(d, SPEC)
        with pytest.raises(ModelError, match="not well-defined"):
            ev.evaluate({"p": F(2)})

    def test_exact_evaluator_instantiates_once_where_an_edge_vanishes(self, monkeypatch):
        # p = 0 kills the edge to state 1: one instantiation, whose chain is
        # then analyzed from scratch, counted as one recompute
        d = g.biased_choice_pmc()
        ev = ExactPmcEvaluator(d, SPEC)
        passes = []
        apply = analysis.apply_instantiation
        monkeypatch.setattr(analysis, "apply_instantiation",
                            lambda *args: passes.append(args) or apply(*args))
        assert ev.evaluate({"p": F(0)}) == F(1, 2)
        assert len(passes) == 1
        assert ev.recompute_count == 1
        assert ev.evaluate({"p": F(1, 2)}) == F(13, 20)
        assert len(passes) == 2
        assert ev.recompute_count == 1

    @pytest.mark.parametrize("p_c", [F(1, 2), F(1)])
    def test_exact_evaluator_checks_groups_with_or_without_a_vanishing_edge(self, p_c):
        # a and b lead to the same successors, so the entries out of state 0
        # are constant and hide p_0_0_a's negative residual; p_2_0_c = 1
        # kills the edge to state 2, p_2_0_c = 1/2 kills none
        trans = {(0, "a"): {1: F(1, 2), 3: F(1, 2)}, (0, "b"): {1: F(1, 2), 3: F(1, 2)},
                 (1, "t"): {1: F(1)}, (2, "t"): {2: F(1)},
                 (3, "c"): {1: F(1)}, (3, "d"): {2: F(1)}}
        m = Pomdp(Mdp(4, 0, trans, goal={1}), 3, [0, 1, 1, 2])
        ev = ExactPmcEvaluator(induced_pmc(m, 1), parse_spec("P>= 1/2 [F goal]"))
        with pytest.raises(ModelError, match=r"^instantiation is not well-defined: "
                           r"parameter p_0_0_a = 6/5 outside \[0, 1\]; "):
            ev.evaluate({"p_0_0_a": F(6, 5), "p_2_0_c": p_c})


class TestBatchedEvaluation:
    """evaluate_vector on a matrix: the interior rows share stacked dense
    solves, a boundary row takes the counted from-scratch analysis."""

    @pytest.mark.parametrize("reward", [False, True])
    @pytest.mark.parametrize("block_bytes", [None, 3000])
    def test_rows_match_lone_dense_solves(self, reward, block_bytes, monkeypatch):
        if block_bytes is not None:   # several blocks of a few rows each
            monkeypatch.setattr(analysis, "SOLVE_BLOCK_BYTES", block_bytes)
        d = g.wide_group_pmc(reward)
        spec = parse_spec("Emin<= 3 [F goal]" if reward else "P>= 1/2 [!bad U goal]")
        ev = FloatPmcEvaluator(d, spec)
        names = list(d.params.names)
        rng = np.random.default_rng(7)
        X = np.empty((33, len(names)))
        for group in d.ensure_param_groups():
            cols = [names.index(nm) for nm in group]
            X[:, cols] = rng.dirichlet(np.ones(len(group) + 1), size=len(X))[:, :-1]
        boundary = 11
        X[boundary, names.index("a1")] = 0.0
        got = ev.evaluate_vector(X)
        assert ev.recompute_count == 1
        n = len(ev.U)
        for i, x in enumerate(X):
            if i == boundary:
                u = Instantiation({nm: float(v) for nm, v in zip(names, x)})
                want = float(check_mc(apply_instantiation(d, u).model, spec))
            else:
                vals = ev.table.evaluate(x)
                A = np.zeros((n, n))
                A[ev.a_rows, ev.a_cols] = vals[ev.a_terms]
                c = np.zeros(n)
                np.add.at(c, ev.c_rows, vals[ev.c_terms])
                want = np.linalg.solve(np.eye(n) - A, c)[ev.idx[d.initial]]
            assert got[i] == want, i
        one = ev.evaluate_vector(X[0])
        assert isinstance(one, float) and one == got[0]
        assert ev.recompute_count == 1


def _interior_points(d, n, seed):
    """n points strictly inside every parameter simplex of d, one per row."""
    names = list(d.params.names)
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(names)))
    for group in d.ensure_param_groups():
        cols = [names.index(nm) for nm in group]
        X[:, cols] = rng.dirichlet(np.ones(len(group) + 1), size=n)[:, :-1]
    return X


def _unreduced_solve(d, spec, X):
    """Initial-state values of the dense system over every uncertain state,
    entry by entry from d's edges: the identity minus the edges inside U,
    and c the edges into the value-1 states in row order (or the rewards),
    solved stacked."""
    from fscsynth._kernels import TermTable
    q = analysis._spec_query(d, spec)
    idx = {s: i for i, s in enumerate(q.U)}
    pidx = {nm: i for i, nm in enumerate(d.params.names)}
    edges = [(s, t, p) for s in q.U for t, p in d.row(s).items()]
    vals = TermTable([p for _s, _t, p in edges], pidx).evaluate(X)
    n = len(q.U)
    M = np.zeros((len(X), n, n))
    M[:, range(n), range(n)] = 1.0
    c = np.zeros((len(X), n))
    for e, (s, t, _p) in enumerate(edges):
        if t in idx:
            M[:, idx[s], idx[t]] -= vals[:, e]
        elif t in q.one:
            c[:, idx[s]] += vals[:, e]
    if spec.kind == "expected_reward":
        c = TermTable([d.rewards.get(s, Polynomial()) for s in q.U], pidx).evaluate(X)
    return np.linalg.solve(M, c[..., np.newaxis])[:, idx[d.initial], 0]


class TestConstantRowElimination:
    """The float evaluator eliminates the uncertain states whose row (and
    reward) is constant once, exactly, and solves the rest densely."""

    REWARD = parse_spec("Emin<= 5 [F goal]")

    @staticmethod
    def _chains(kind):
        """Chains of one kind whose evaluator eliminates some state."""
        rng = random.Random("constant-rows/" + kind)
        spec = TestConstantRowElimination.REWARD if kind == "reward" else SPEC
        found = []
        while len(found) < 5:
            m = g.random_pomdp(rng, max_states=8, with_rewards=kind == "reward")
            if kind == "simple":
                m = transforms.make_simple(transforms.make_binary(m))
            d = induced_pmc(m, 1)
            ev = FloatPmcEvaluator(d, spec)
            if d.params.names and ev.query.value is None and ev.eliminated:
                found.append((d, spec, ev))
        return found

    @pytest.mark.parametrize("kind", ["simple", "standard", "reward"])
    def test_reduced_matches_unreduced_dense_solves(self, kind):
        kept = eliminated = 0
        for i, (d, spec, ev) in enumerate(self._chains(kind)):
            assert len(ev.U) + len(ev.eliminated) == len(analysis._spec_query(d, spec).U)
            assert d.initial in ev.idx
            kept += len(ev.U)
            eliminated += len(ev.eliminated)
            X = _interior_points(d, 250, i)
            got = ev.evaluate_vector(X)
            want = _unreduced_solve(d, spec, X)
            assert ev.recompute_count == 0
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        assert eliminated >= 5

    def test_a_parametric_reward_keeps_its_state(self):
        # state 1 has a constant row but earns 1 + p; state 2 is constant
        p = V("p")
        d = PmcT(4, 0, {0: {1: p, 3: C(1) - p}, 1: {2: C(F(1, 2)), 3: C(F(1, 2))},
                        2: {0: C(1)}, 3: {3: C(1)}},
                 params=ParameterTable(["p"]), goal={3},
                 rewards={0: C(1), 1: C(1) + p, 2: C(2)}, param_groups=[["p"]])
        ev = FloatPmcEvaluator(d, self.REWARD)
        assert (ev.U, ev.eliminated) == ([0, 1], [2])
        X = _interior_points(d, 50, 0)
        want = _unreduced_solve(d, self.REWARD, X)
        assert np.all(np.abs(ev.evaluate_vector(X) - want) <= 1e-12 * want)

    def test_without_constant_rows_the_values_are_bit_identical(self):
        # wide_group_pmc(reward=True) eliminates state 12 (a constant row
        # back to the start, reward 0); a reward there keeps it, and c is then
        # the reward polynomials alone
        base = g.wide_group_pmc(reward=True)
        rewarded = PmcT(base.num_states, base.initial, base.trans, params=base.params,
                        goal=base.goal, rewards={**base.rewards, 12: V("c0")},
                        param_groups=base.param_groups)
        chains = [(g.wide_group_pmc(), SPEC), (rewarded, self.REWARD),
                  (rewarded, parse_spec("Emax>= 5 [F goal]"))]
        rng = random.Random(44)
        while len(chains) < 6:
            d = induced_pmc(g.random_pomdp(rng, max_states=6), 2)
            if d.params.names and not FloatPmcEvaluator(d, SPEC).eliminated:
                chains.append((d, SPEC))
        for i, (d, spec) in enumerate(chains):
            ev = FloatPmcEvaluator(d, spec)
            assert ev.eliminated == [] and ev.U == analysis._spec_query(d, spec).U
            if ev.query.value is not None:
                continue
            X = _interior_points(d, 40, i)
            assert ev.evaluate_vector(X).tobytes() == _unreduced_solve(d, spec, X).tobytes()

    @pytest.mark.parametrize("kind", ["simple", "standard", "reward"])
    def test_the_table_holds_what_is_read_once(self, kind, monkeypatch):
        # every column is an entry of A, a term of c, a non-constant edge
        # or a non-constant reward of the chain, and no polynomial object
        # has two columns
        from fscsynth._kernels import TermTable

        class Recorded(TermTable):
            def __init__(self, polys, param_index):
                self.polys = list(polys)
                super().__init__(polys, param_index)

        monkeypatch.setattr(analysis, "TermTable", Recorded)
        for d, _spec, ev in self._chains(kind):
            polys = ev.table.polys
            read = {*ev.a_terms.tolist(), *ev.c_terms.tolist(), *ev.boundary_cols.tolist(),
                    *ev.reward_cols.tolist()}
            assert read == set(range(len(polys)))
            rewards = d.rewards.values() if kind == "reward" else ()
            assert {id(polys[k]) for k in ev.reward_cols} == {
                id(r) for r in rewards if not r.is_constant()}
            assert len({id(p) for p in polys}) == len(polys)
            assert {id(polys[k]) for k in ev.boundary_cols} == {
                id(p) for s in d.states for p in d.row(s).values() if not p.is_constant()}

    def test_a_zero_edge_takes_the_counted_fresh_path(self, monkeypatch):
        d, spec, ev = self._chains("simple")[0]
        names = list(d.params.names)
        X = _interior_points(d, 3, 0)
        X[1, 0] = 0.0
        fresh = []
        monkeypatch.setattr(analysis, "check_mc",
                            lambda *args: fresh.append(args) or check_mc(*args))
        got = ev.evaluate_vector(X)
        assert ev.recompute_count == 1 and len(fresh) == 1
        u = Instantiation({nm: float(v) for nm, v in zip(names, X[1])})
        assert got[1] == float(check_mc(apply_instantiation(d, u).model, spec))
        inner = _unreduced_solve(d, spec, X[[0, 2]])
        assert np.all(np.abs(got[[0, 2]] - inner) <= 1e-12)


class TestOneFrame:
    """Every way of computing a chain value poses the same query: at a
    rational interior point the concrete check, both evaluators, the closed
    form and the bounds over the point region agree, from initial states
    whose value the graph settles (1, 0, a goal, a diverging reward) as well
    as from uncertain ones."""

    SPECS = [parse_spec("P>= 1/2 [!bad U goal]"), parse_spec("Emin<= 3 [F goal]")]

    @staticmethod
    def _kind(d, spec, value):
        if spec.kind == "expected_reward":
            if d.initial in d.goal:
                return "goal"
            return "diverges" if is_infinite(value) else "uncertain"
        q = qualitative_precompute(analysis._pmc_graph(d), d.goal, d.bad)
        if d.initial in q.s_one:
            return "one"
        return "zero" if d.initial in q.s_zero else "uncertain"

    def test_every_value_agrees_at_interior_points(self):
        rng = random.Random(46)
        kinds = set()
        for i in range(16):
            if i % 2:
                base = g.random_simple_pmc(rng, max_states=8)
            else:
                base = induced_pmc(g.random_pomdp(rng, max_states=5, max_actions=2,
                                                  max_obs=3, with_rewards=True), 1)
            u = g.random_instantiation_for(base, rng)
            point = Region({name: (v, v) for name, v in u.items()})
            for initial in base.states:
                d = PmcT(base.num_states, initial, base.trans, params=base.params,
                         rewards=base.rewards, goal=base.goal, bad=base.bad,
                         param_groups=base.param_groups)
                for spec in self.SPECS:
                    value = check_mc(apply_instantiation(d, u).model, spec)
                    kinds.add((spec.kind, self._kind(d, spec, value)))
                    assert ExactPmcEvaluator(d, spec).evaluate(u) == value
                    b = region_bounds(d, point, spec)
                    assert b.lower == b.upper == value
                    fl = FloatPmcEvaluator(d, spec).evaluate_vector(_floats(d, u))
                    if is_infinite(value):
                        assert is_infinite(fl)
                        with pytest.raises(ModelError, match="diverges"):
                            state_eliminate_reward(d)
                        continue
                    assert abs(fl - float(value)) <= 1e-9
                    rf = (state_eliminate(d) if spec.kind == "reach_avoid"
                          else state_eliminate_reward(d))
                    assert rf.evaluate(u.values) == value
        assert kinds == {("reach_avoid", k) for k in ("one", "zero", "uncertain")} | {
            ("expected_reward", k) for k in ("goal", "diverges", "uncertain")}
