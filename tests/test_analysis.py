"""Model checking, closed forms, region bounds, and the evaluators."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import genmodels as g
from fscsynth import analysis
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
from fscsynth.polynomials import Polynomial, RationalFunction
from fscsynth.transforms import induced_pmc

F = Fraction
V = Polynomial.variable
C = Polynomial.constant

SPEC = parse_spec("P>= 1/2 [!bad U goal]")


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
        # dense fill costs O(n^3) Fraction operations: keep dense systems small
        sizes = [n for n in self.SIZES if shape == "sparse" or n <= 40]
        for n in sizes:
            rows, c = _substochastic_system(rng, n, self.WIDTHS[shape], loops, constant)
            x = solve_exact(rows, c)
            assert len(x) == n
            assert all(type(v) is F for v in x)
            for i in range(n):
                assert x[i] == sum(a * x[j] for j, a in rows[i].items()) + c[i]
            if constant == "none":
                assert x == [0] * n

    @pytest.mark.parametrize("rows, c", [
        # states 1 and 2 form a closed class inside the unknowns
        ([{1: F(1, 2)}, {2: F(1)}, {1: F(1)}], [F(1, 2), F(0), F(0)]),
        ([{0: F(1)}], [F(0)]),
        ([{1: F(1, 3), 2: F(1, 3)}, {1: F(1, 2), 2: F(1, 2)}, {1: F(1)}],
         [F(1, 3), F(0), F(0)]),
    ])
    def test_singular_system_raises(self, rows, c):
        with pytest.raises(ModelError, match="^singular linear system$"):
            solve_exact(rows, c)


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

    def test_elimination_orders_agree(self):
        rng = random.Random(43)
        for _ in range(10):
            d = g.random_simple_pmc(rng, max_states=10)
            a = state_eliminate(d, order="degree")
            b = state_eliminate(d, order="sequential")
            assert a == b

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
            assert r.contains_point(r.sample(rng))
        with pytest.raises(ModelError):
            Region({"p": (F(0), F(1, 2))})
        for point in (Region({}), Region({"p": (F(1, 2), F(1, 2))})):
            with pytest.raises(ModelError, match="cannot split a point region"):
                point.split()

    def test_bounds_golden(self):
        d = g.biased_choice_pmc()
        reg = Region({"p": (F(1, 100), F(99, 100))})
        b = region_bounds(d, reg, parse_spec("P> 0.8 [!bad U goal]"))
        assert b.lower == F(503, 1000)
        assert b.upper == F(797, 1000)
        assert b.tight

    def test_bounds_contain_sampled_values(self):
        rng = random.Random(46)
        for _ in range(8):
            d = g.random_simple_pmc(rng, max_states=10)
            reg = g.random_region_for(d, rng)
            b = region_bounds(d, reg, SPEC)
            ev = ExactPmcEvaluator(d, SPEC)
            for _ in range(10):
                v = ev.evaluate(Instantiation(reg.sample(rng)))
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
                    u = Instantiation(reg.sample(rng))
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

    def test_chain_remembers_its_source_model(self):
        dk = induced_pmc(g.revisit_pomdp(), 1)
        assert dk.meta.get("pomdp") is not None


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
                assert abs(float(ex.evaluate(u)) - fl.evaluate(u)) < 1e-8

    def test_evaluate_vector_matches_evaluate(self):
        import numpy as np
        d = induced_pmc(g.revisit_pomdp(), 1)
        fl = FloatPmcEvaluator(d, SPEC)
        x = np.array([0.45])
        assert abs(fl.evaluate_vector(x) - fl.evaluate({d.params.names[0]: F(9, 20)})) < 1e-12

    def test_reward_divergence_is_float_inf(self):
        p = V("p")
        d = PmcT(3, 0,
                 {0: {1: p, 2: C(1) - p}, 1: {1: C(1)}, 2: {2: C(1)}},
                 params=ParameterTable(["p"]), goal={1},
                 rewards={0: C(1)}, param_groups=[["p"]])
        spec = parse_spec("Emin<= 10 [F goal]")
        assert is_infinite(FloatPmcEvaluator(d, spec).evaluate({"p": F(1, 2)}))
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
                A[ev.a_rows, ev.a_cols] = vals[ev.a_edges]
                if reward:
                    c = ev.reward_table.evaluate(x)
                else:
                    c = np.zeros(n)
                    np.add.at(c, ev.c_rows, vals[ev.c_edges])
                want = np.linalg.solve(np.eye(n) - A, c)[ev.idx[d.initial]]
            assert got[i] == want, i
        one = ev.evaluate_vector(X[0])
        assert isinstance(one, float) and one == got[0]
        assert ev.recompute_count == 1


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
                    fl = FloatPmcEvaluator(d, spec).evaluate(u)
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
