"""Acceptance gate: one test per shipping criterion.

Every test prints a single summary line; `pytest -v` therefore shows one
pass/fail line per criterion. Tolerances are part of each criterion and are
asserted, not approximated.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

import genmodels as g
from fscsynth import synthesis as sy
from fscsynth.analysis import (
    ExactPmcEvaluator,
    FloatPmcEvaluator,
    Region,
    check_mc,
    mdp_optimal,
    prove_absence,
    state_eliminate,
)
from fscsynth.fsc import (
    Fsc,
    FscTopology,
    fsc_from_instantiation,
    induced_mc,
)
from fscsynth.models import (
    INFINITE,
    Instantiation,
    is_infinite,
    parse_spec,
)
from fscsynth.polynomials import Polynomial, RationalFunction
from fscsynth.transforms import (
    induced_pmc,
    make_binary,
    make_simple,
    map_unfolding_instantiation,
    pmc_to_pomdp,
    substituted_pmc,
    unfold,
)

F = Fraction
V = Polynomial.variable
C = Polynomial.constant

SPEC = parse_spec("P>= 1/2 [!bad U goal]")


def _rename_poly(p, mapping):
    return Polynomial({
        tuple((mapping.get(n, n), e) for n, e in mono): c
        for mono, c in p.terms.items()})


def test_criterion_01_induced_chain_matches_product():
    # >= 100 random POMDPs (<= 8 states, <= 3 actions, <= 4 observations),
    # memory bound in {1,2,3}: chain value == product value, exact, <= 60 s
    rng = random.Random(1001)
    started = time.perf_counter()
    cases = 0
    for k in (1, 2, 3):
        for _ in range(34):
            m = g.random_pomdp(rng)
            d = induced_pmc(m, k)
            u = g.random_instantiation_for(d, rng)
            v_chain = ExactPmcEvaluator(d, SPEC).evaluate(u)
            a = fsc_from_instantiation(m, k, FscTopology.FULL, u)
            v_product = check_mc(induced_mc(m, a), SPEC)
            assert v_chain == v_product, (k, cases, v_chain, v_product)
            cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 100
    assert elapsed <= 60.0, elapsed
    print("criterion 1: %d exact chain/product matches in %.1fs" % (cases, elapsed))


def test_criterion_02_golden_fixtures():
    # (a) the known product edge probability 0.15
    m = g.fork_pomdp()
    action_map = {}
    memory_update = {}
    for z in range(m.num_obs):
        acts = m.obs_actions(z)
        for n in range(2):
            action_map[(n, z)] = {a: F(1, len(acts)) for a in acts}
            for a in acts:
                memory_update[(n, z, a)] = {0: F(1, 2), 1: F(1, 2)}
    product = induced_mc(m, Fsc(2, 0, action_map, memory_update))
    assert product.row(0)[2] == F(3, 20) == F(15, 100)

    # (b) the seven chain polynomials of the loop model, symbolically
    d = induced_pmc(g.loop_pomdp(), 1)
    p1, p2, q = V("p_0_0_a1"), V("p_0_0_a2"), V("p_1_0_a")
    half = C(F(1, 2))
    assert d.row(0)[1] == p1
    assert d.row(0)[2] == half * p2
    assert d.row(0)[3] == half * p2 + (C(1) - p1 - p2)
    assert d.row(1)[0] == half * q
    assert d.row(1)[2] == C(1) - half * q
    assert d.row(3)[3] == q
    assert d.row(3)[2] == C(1) - q

    # (c) the substituted table column for the fork fragment
    ds = substituted_pmc(m, 2)
    x1, x2, x3 = V("r_0_0_0_a1"), V("r_0_0_1_a1"), V("r_0_0_0_a2")
    rest = C(1) - x1 - x2 - x3
    row = ds.row(0)
    assert len(row) == 8
    assert row[2] == C(F(3, 5)) * x1 and row[3] == C(F(3, 5)) * x2
    assert row[4] == C(F(2, 5)) * x1 and row[5] == C(F(2, 5)) * x2
    assert row[6] == C(F(7, 10)) * x3 and row[7] == C(F(7, 10)) * rest
    assert row[8] == C(F(3, 10)) * x3 and row[9] == C(F(3, 10)) * rest

    # (d) two-branch chain -> simple POMDP -> simple chain, structurally
    simple = make_simple(make_binary(g.two_coin_pomdp()))
    dd = induced_pmc(simple, 1)
    assert dd.num_states == 5
    assert len(dd.params.names) == 1
    pv = V(dd.params.names[0])
    first = dd.row(dd.initial)
    assert sorted(first.values(), key=str) == sorted([pv, C(1) - pv], key=str)
    (t_yes,) = [t for t, e in first.items() if e == pv]
    (t_no,) = [t for t, e in first.items() if e == C(1) - pv]
    (goal,) = dd.goal
    (bad,) = dd.bad
    assert dd.row(t_yes) == {goal: C(F(4, 5)), bad: C(F(1, 5))}
    assert dd.row(t_no) == {goal: C(F(1, 2)), bad: C(F(1, 2))}
    print("criterion 2: product edge, chain polynomials, substituted "
          "column, simple-chain structure all exact")


def test_criterion_03_unfolding_equivalence():
    rng = random.Random(1003)
    for i in range(50):
        k = 2 + (i % 2)
        m = g.random_pomdp(rng, max_states=6)
        d = induced_pmc(m, k)
        u = g.random_instantiation_for(d, rng)
        v_direct = ExactPmcEvaluator(d, SPEC).evaluate(u)
        d1 = induced_pmc(unfold(m, k), 1)
        u1 = map_unfolding_instantiation(m, k, u)
        v_unfolded = ExactPmcEvaluator(d1, SPEC).evaluate(u1)
        assert v_direct == v_unfolded, (i, k, v_direct, v_unfolded)
    print("criterion 3: 50 exact unfolding equivalences")


def test_criterion_04_substitution_equivalence():
    rng = random.Random(1004)
    for i in range(50):
        k = 1 + (i % 3)
        m = g.random_pomdp(rng, max_states=6)
        d = induced_pmc(m, k)
        u = g.random_instantiation_for(d, rng)
        a = fsc_from_instantiation(m, k, FscTopology.FULL, u)
        ds = substituted_pmc(m, k)
        vals = {}
        for name in ds.params.names:
            _r, z, n, t, act = name.split("_", 4)
            z, n, t = int(z), int(n), int(t)
            vals[name] = (a.action_map[(n, z)][act]
                          * a.memory_update[(n, z, act)][t])
        v_std = ExactPmcEvaluator(d, SPEC).evaluate(u)
        v_sub = ExactPmcEvaluator(ds, SPEC).evaluate(Instantiation(vals))
        assert v_std == v_sub, (i, k, v_std, v_sub)
    print("criterion 4: 50 exact substitution equivalences (pair products)")


def test_criterion_05_round_trip_isomorphism():
    rng = random.Random(1005)
    for i in range(100):
        d = g.random_simple_pmc(rng)
        m = pmc_to_pomdp(d)
        back = induced_pmc(m, 1)
        rename = {old: "p_%d_0_a" % z for z, old in m.meta["obs_param"].items()}
        assert back.num_states == d.num_states
        assert back.initial == d.initial
        assert back.goal == d.goal and back.bad == d.bad
        for s in d.states:
            assert back.row(s) == {
                t: _rename_poly(p, rename) for t, p in d.row(s).items()}, (i, s)
    print("criterion 5: 100 identity round trips (chain -> POMDP -> chain)")


def test_criterion_06_closed_form_fidelity():
    rng = random.Random(1006)
    models = [
        g.biased_choice_pmc(),
        induced_pmc(g.two_coin_pomdp(), 1),
        induced_pmc(g.revisit_pomdp(), 1),
        g.random_simple_pmc(rng, max_states=12),
        g.random_simple_pmc(rng, max_states=12),
    ]
    for d in models:
        rf = state_eliminate(d)
        ev = ExactPmcEvaluator(d, SPEC)
        for _ in range(50):
            u = g.random_instantiation_for(d, rng)
            assert rf.evaluate(u.values) == ev.evaluate(u)
    golden = state_eliminate(g.biased_choice_pmc())
    assert golden == RationalFunction(C(F(5)) + C(F(3)) * V("p"),
                                      C(F(10)))
    print("criterion 6: closed forms exact at 50 points on each of %d models; "
          "golden form (5+3p)/10" % len(models))


def test_criterion_07_parameter_count_formula():
    rng = random.Random(1007)
    checked = 0
    for ns, nz, k in itertools.product(range(2, 7), range(1, 4), range(1, 4)):
        if nz > ns:
            continue
        for _ in range(2):
            m = g.fixed_size_pomdp(rng, ns, nz)
            expected = sum(
                k * (len(m.obs_actions(z)) - 1)
                + k * (k - 1) * len(m.obs_actions(z))
                for z in range(m.num_obs))
            d = induced_pmc(m, k)
            assert len(d.params.names) == expected, (ns, nz, k)
            checked += 1
    print("criterion 7: parameter table size matches the formula on "
          "%d grid instances" % checked)


def test_criterion_08_boundary_discontinuity():
    d = induced_pmc(g.sticky_start_pomdp(), 1)
    spec = parse_spec("P> 0.5 [F goal]")
    ev = ExactPmcEvaluator(d, spec)
    (name,) = d.params.names
    for v in (F(1, 10 ** 6), F(1, 1000), F(1, 2)):
        assert ev.evaluate(Instantiation({name: v})) == 1
    assert ev.recompute_count == 0  # interior points reuse the cached sets
    assert ev.evaluate(Instantiation({name: F(0)})) == 0
    assert ev.recompute_count == 1  # exactly the boundary point recomputes
    print("criterion 8: value 1 on (0,1], value 0 at 0, one boundary recompute")


def test_criterion_09_absence_soundness():
    rng = random.Random(1009)
    sampled = 10 ** 4
    verdicts = 0
    for i in range(20):
        d = g.random_simple_pmc(rng, max_states=20)
        region = g.random_region_for(d, rng)
        # ints, so that only the points checked exactly become Fractions;
        # n / den is the correctly rounded float, as float(Fraction) is
        points = [g.sample_ratios(region, rng) for _ in range(sampled)]
        fl = FloatPmcEvaluator(d, SPEC)
        order = fl.param_order
        values = fl.evaluate_vector(np.array(
            [[n / den for n, den in map(pt.__getitem__, order)] for pt in points]))
        exact = None
        for theta in (F(rng.randint(1, 99), 100),
                      F(min(999, int(values.max() * 1000) + 2), 1000)):
            if not 0 < theta < 1:
                continue
            spec = parse_spec("P> %d/%d [!bad U goal]"
                              % (theta.numerator, theta.denominator))
            res = prove_absence(d, spec, region, max_depth=2)
            if not res.no_fsc:
                continue
            verdicts += 1
            for j in np.nonzero(values > float(theta) - 1e-9)[0]:
                if exact is None:
                    exact = ExactPmcEvaluator(d, spec)
                point = {nm: F(*q) for nm, q in points[int(j)].items()}
                v = exact.evaluate(Instantiation(point))
                assert not spec.satisfied_by(v), (i, theta, point, v)
    assert verdicts > 0

    d = g.biased_choice_pmc()
    res = prove_absence(d, parse_spec("P> 0.8 [!bad U goal]"),
                        Region({"p": (F(1, 100), F(99, 100))}))
    assert res.no_fsc
    assert res.bound == F(797, 1000)
    print("criterion 9: %d no-controller verdicts, none contradicted by "
          "10^4-point sampling; golden bound 797/1000 exact" % verdicts)


def test_criterion_10_randomization_beats_determinism():
    m = g.revisit_pomdp()
    spec = parse_spec("P>= 0.29 [!bad U goal]")
    oracle = sy.brute_force_oracle(m, 1, spec)
    assert oracle.value == F(1, 10)

    # exact randomized optimum by maximizing the closed form on a grid
    # that contains the true maximizer
    d = induced_pmc(m, 1)
    rf = state_eliminate(d)
    (name,) = d.params.names
    best = max(rf.evaluate({name: F(i, 400)}) for i in range(1, 400))
    assert best == F(121, 400)
    assert oracle.value < best  # memoryless randomization strictly wins

    hits = 0
    times = []
    for seed in range(10):
        t0 = time.perf_counter()
        res = sy.pso_search(d, spec, sy.SearchConfig(seed=seed,
                                                     max_iterations=300))
        times.append(time.perf_counter() - t0)
        assert times[-1] <= 30.0, (seed, times[-1])
        if res.value >= best - F(1, 100):
            hits += 1
    assert hits >= 8, hits
    print("criterion 10: oracle 1/10 < optimum 121/400; swarm within 0.01 "
          "on %d/10 seeds (max %.1fs per run)" % (hits, max(times)))


def test_criterion_11_underlying_mdp_dominates():
    rng = random.Random(1011)

    checked = 0
    for _ in range(30):  # probability: controller value never above the MDP
        m = g.random_pomdp(rng, max_states=6)
        bound = mdp_optimal(m.mdp, SPEC).value
        for k in (1, 2):
            d = induced_pmc(m, k)
            u = g.random_instantiation_for(d, rng)
            a = fsc_from_instantiation(m, k, FscTopology.FULL, u)
            assert check_mc(induced_mc(m, a), SPEC) <= bound
            checked += 1

    for _ in range(5):  # including controllers the search itself emits
        m = g.random_pomdp(rng, max_states=5)
        bound = mdp_optimal(m.mdp, SPEC).value
        d = induced_pmc(m, 2)
        res = sy.pso_search(d, SPEC, sy.SearchConfig(seed=0, max_iterations=15))
        a = fsc_from_instantiation(m, 2, FscTopology.FULL, res.instantiation)
        assert check_mc(induced_mc(m, a), SPEC) <= bound
        checked += 1

    rspec = parse_spec("Emin<= 100 [F goal]")
    for _ in range(15):  # min-cost: controller cost never below the MDP
        m = g.random_pomdp(rng, max_states=6, with_rewards=True)
        bound = mdp_optimal(m.mdp, rspec).value
        d = induced_pmc(m, 2)
        u = g.random_instantiation_for(d, rng)
        a = fsc_from_instantiation(m, 2, FscTopology.FULL, u)
        v = check_mc(induced_mc(m, a), rspec)
        if is_infinite(bound):
            assert is_infinite(v)
        else:
            assert is_infinite(v) or v >= bound
        checked += 1
    print("criterion 11: exact dominance on %d controller/model pairs "
          "(both optimization directions)" % checked)
