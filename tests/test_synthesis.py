"""Swarm search, the deterministic oracle, and permissive regions."""

import random
from fractions import Fraction

import numpy as np
import pytest

import genmodels as g
from fscsynth import synthesis as sy
from fscsynth.analysis import ExactPmcEvaluator, mdp_optimal, state_eliminate
from fscsynth.fsc import FscTopology, fsc_from_instantiation, induced_mc, lift_fsc
from fscsynth.analysis import check_mc
from fscsynth.models import (
    Instantiation,
    ModelError,
    ParameterTable,
    PmcT,
    parse_spec,
)
from fscsynth.polynomials import Polynomial
from fscsynth.transforms import induced_pmc

F = Fraction
V = Polynomial.variable
C = Polynomial.constant

SPEC76 = parse_spec("P> 0.76 [!bad U goal]")


class TestSearchConfig:
    def test_rejects_degenerate_settings(self):
        with pytest.raises(ModelError, match="two particles"):
            sy.SearchConfig(swarm_size=1)
        with pytest.raises(ModelError, match="floor"):
            sy.SearchConfig(min_prob=0.5)


class TestCertify:
    def test_exact_verdicts(self):
        d = g.biased_choice_pmc()
        u, v, sat, well = sy.certify(d, SPEC76, {"p": F(9, 10)})
        assert v == F(77, 100) and sat and well.well_defined
        _, v2, sat2, _ = sy.certify(d, SPEC76, {"p": F(1, 10)})
        assert v2 == F(53, 100) and not sat2

    def test_float_points_are_rationalized(self):
        d = g.biased_choice_pmc()
        u, v, _sat, _ = sy.certify(d, SPEC76, Instantiation({"p": 0.5}))
        assert u["p"] == F(1, 2)
        assert v == F(13, 20)

    def test_one_instantiation_evaluates_each_polynomial_once(self, monkeypatch):
        # the value and every verdict read one pass over the chain, which
        # evaluates each entry and each reward polynomial once
        d = induced_pmc(g.random_pomdp(random.Random(8), with_rewards=True), 2)
        u = g.random_instantiation_for(d, random.Random(9))
        polys = [p for s in d.states for p in d.row(s).values()] + list(d.rewards.values())
        assert d.params.names and d.rewards
        evaluated, passes = [], []
        evaluate, apply = Polynomial.evaluate, sy.apply_instantiation
        monkeypatch.setattr(Polynomial, "evaluate",
                            lambda p, point: evaluated.append(p) or evaluate(p, point))
        monkeypatch.setattr(sy, "apply_instantiation",
                            lambda *args: passes.append(args) or apply(*args))
        for spec in (SPEC76, parse_spec("Emin<= 5 [F goal]")):
            evaluated.clear()
            passes.clear()
            _u, value, _sat, well = sy.certify(d, spec, u, F(1, 100))
            assert well.graph_preserving and well.eps_preserving
            assert value == check_mc(well.model, spec)
            assert len(passes) == 1
            assert len(evaluated) == len(polys)
            assert {id(p) for p in evaluated} == {id(p) for p in polys}

    def test_ill_defined_points_raise_with_the_pass_defects(self):
        with pytest.raises(ModelError) as err:
            sy.certify(g.biased_choice_pmc(), SPEC76, {"p": F(3, 2)})
        assert str(err.value) == (
            "instantiation is not well-defined: parameter p = 3/2 outside [0, 1]; "
            "group {p} sums to 3/2; residual branch weight -1/2 is negative; "
            "entry (0,1) evaluates to 3/2; entry (0,2) evaluates to -1/2")


class TestPsoSearch:
    def test_finds_satisfying_point_quickly(self):
        d = g.biased_choice_pmc()
        res = sy.pso_search(d, SPEC76, sy.SearchConfig(seed=0, max_iterations=50))
        assert res.satisfied
        assert res.value > F(76, 100)
        assert res.first_satisfied_eval is not None
        assert res.first_satisfied_eval <= 100

    def test_every_emission_is_clean(self):
        # contract: whatever comes out is usable as a strategy as-is
        rng = random.Random(50)
        for _ in range(6):
            m = g.random_pomdp(rng, max_states=5)
            d = induced_pmc(m, 2)
            res = sy.pso_search(d, parse_spec("P>= 0.99 [!bad U goal]"),
                                sy.SearchConfig(seed=1, max_iterations=8))
            assert res.well is not None
            assert res.well.well_defined
            assert res.well.graph_preserving
            assert res.well.eps_preserving

    def test_zero_parameter_chain_short_circuits(self):
        d = PmcT(2, 0, {0: {1: C(F(3, 4)), 0: C(F(1, 4))}, 1: {1: C(1)}},
                 goal={1})
        res = sy.pso_search(d, parse_spec("P> 0.5 [!bad U goal]"))
        assert res.evaluations == 1
        assert res.value == 1 and res.satisfied

    def test_min_cost_search(self):
        p = V("p")
        d = PmcT(3, 0, {0: {2: p, 1: C(1) - p}, 1: {2: C(1)}, 2: {2: C(1)}},
                 params=ParameterTable(["p"]), goal={2},
                 rewards={0: C(4), 1: C(6)}, param_groups=[["p"]])
        res = sy.pso_search(d, parse_spec("Emin<= 4.01 [F goal]"),
                            sy.SearchConfig(seed=0, max_iterations=60))
        assert res.satisfied
        assert float(res.value) < 4.01

    def test_same_seed_same_run(self):
        d = g.biased_choice_pmc()
        a = sy.pso_search(d, SPEC76, sy.SearchConfig(seed=7, max_iterations=20))
        b = sy.pso_search(d, SPEC76, sy.SearchConfig(seed=7, max_iterations=20))
        assert a.instantiation == b.instantiation
        assert a.trace == b.trace

    def test_time_budget_reports_exhaustion(self):
        d = g.biased_choice_pmc()
        res = sy.pso_search(d, parse_spec("P> 0.999 [!bad U goal]"),
                            sy.SearchConfig(seed=0, time_budget=0.05))
        assert res.budget_exhausted
        assert not res.satisfied

    def test_unreachable_threshold_reports_gap(self):
        m = g.two_coin_pomdp()
        d = induced_pmc(m, 1)
        spec = parse_spec("P>= 0.9 [!bad U goal]")
        assert mdp_optimal(m.mdp, spec).value == F(4, 5)
        res = sy.pso_search(d, spec, sy.SearchConfig(seed=0, max_iterations=30))
        assert not res.satisfied
        assert res.value <= F(4, 5)


class TestOracle:
    def test_crafted_instance_golden(self):
        m = g.revisit_pomdp()
        spec = parse_spec("P>= 0.29 [!bad U goal]")
        res = sy.brute_force_oracle(m, 1, spec)
        assert res.value == F(1, 10)
        assert res.candidates == 2
        assert check_mc(induced_mc(m, res.fsc), spec) == res.value

    def test_enumeration_guard(self):
        m = g.revisit_pomdp()
        with pytest.raises(ModelError, match="limit"):
            sy.brute_force_oracle(m, 1, parse_spec("P>= 0.29 [!bad U goal]"),
                                  limit=1)

    def test_min_cost_direction(self):
        m = g.chain_reward_pomdp()
        res = sy.brute_force_oracle(m, 1, parse_spec("Emin<= 5 [F goal]"))
        assert res.value == F(4)

    def test_search_dominates_deterministic_optimum(self):
        # randomized controllers can only improve on deterministic ones;
        # the swarm should recover at least the oracle value almost always
        rng = random.Random(51)
        spec = parse_spec("P>= 0.99 [!bad U goal]")
        passes = 0
        for _ in range(20):
            while True:
                m = g.random_pomdp(rng, max_states=4, max_actions=2, max_obs=2)
                d = induced_pmc(m, 1)
                if d.params.names:
                    break
            oracle = sy.brute_force_oracle(m, 1, spec)
            res = sy.pso_search(d, spec,
                                sy.SearchConfig(seed=0, max_iterations=40,
                                                swarm_size=30))
            assert res.evaluations >= 10 * oracle.candidates
            if res.value >= oracle.value - F(1, 10 ** 6):
                passes += 1
        assert passes >= 18, passes

    def test_witness_survives_memory_lift(self):
        m = g.two_coin_pomdp()
        d = induced_pmc(m, 1)
        spec = parse_spec("P>= 0.7 [!bad U goal]")
        res = sy.pso_search(d, spec, sy.SearchConfig(seed=0, max_iterations=40))
        assert res.satisfied
        a = fsc_from_instantiation(m, 1, FscTopology.FULL, res.instantiation)
        v1 = check_mc(induced_mc(m, a), spec)
        assert v1 == res.value
        v2 = check_mc(induced_mc(m, lift_fsc(a, 1)), spec)
        assert v2 == v1


class TestPermissive:
    def test_box_from_witnesses_golden(self):
        d = g.biased_choice_pmc()
        spec = parse_spec("P> 0.6 [!bad U goal]")
        wits = [Instantiation({"p": F(1, 2)}), Instantiation({"p": F(7, 10)}),
                Instantiation({"p": F(4, 5)})]
        cand = sy.permissive_from_witnesses(d, spec, wits, eps=F(1, 10 ** 4))
        assert cand.region.intervals["p"] == (F(1, 2), F(4, 5))
        assert cand.verified
        assert cand.lower == F(13, 20)
        assert cand.upper == F(37, 50)

    def test_needs_witnesses(self):
        d = g.biased_choice_pmc()
        with pytest.raises(ModelError, match="witness"):
            sy.permissive_from_witnesses(d, parse_spec("P> 0.6 [!bad U goal]"), [])

    def test_find_permissive_end_to_end(self):
        d = g.biased_choice_pmc()
        spec = parse_spec("P> 0.6 [!bad U goal]")
        cand = sy.find_permissive(d, spec, sy.SearchConfig(seed=3,
                                                           max_iterations=30))
        assert cand.verified
        assert len(cand.witnesses) >= 3
        for w in cand.witnesses:
            assert cand.region.contains_point(w.values)

    def test_verified_region_has_no_violating_point(self):
        d = g.biased_choice_pmc()
        spec = parse_spec("P> 0.6 [!bad U goal]")
        cand = sy.find_permissive(d, spec, sy.SearchConfig(seed=3,
                                                           max_iterations=30))
        assert cand.verified
        rf = state_eliminate(d)
        rng = random.Random(52)
        for _ in range(1000):
            pt = cand.region.sample(rng)
            assert spec.satisfied_by(rf.evaluate(pt))

    def test_box_containing_violators_is_not_certified(self):
        d = g.biased_choice_pmc()
        spec = parse_spec("P> 0.7 [!bad U goal]")
        # p = 1/2 sits below the threshold, so the box spans a violator
        wits = [Instantiation({"p": F(1, 2)}), Instantiation({"p": F(4, 5)})]
        cand = sy.permissive_from_witnesses(d, spec, wits)
        assert not cand.verified
        assert cand.lower == F(13, 20)

    def test_region_where_an_edge_may_vanish_is_not_verified(self):
        # the box spans p = 3/4, q = 1/4, where 1 - p - q vanishes and the
        # goal is never reached; the region bounds read the graph of all
        # edges and give [1, 1]
        p, q = V("p"), V("q")
        trans = {0: {0: p, 1: C(1) - p - q, 2: q}, 1: {1: C(1)}, 2: {0: C(1)}}
        d = PmcT(3, 0, trans, params=ParameterTable(["p", "q"]), goal={1})
        spec = parse_spec("P> 1/2 [F goal]")
        wits = [Instantiation({"p": F(1, 4), "q": F(1, 4)}),
                Instantiation({"p": F(3, 4), "q": F(1, 5)}),
                Instantiation({"p": F(1, 4), "q": F(1, 2)})]
        for w in wits:
            _u, value, sat, well = sy.certify(d, spec, w)
            assert value == 1 and sat and well.well_defined
        cand = sy.permissive_from_witnesses(d, spec, wits)
        assert (cand.lower, cand.upper) == (1, 1)
        assert not cand.verified
        vanishing = Instantiation({"p": F(3, 4), "q": F(1, 4)})
        assert cand.region.contains_point(vanishing.values)
        _u, value, sat, well = sy.certify(d, spec, vanishing)
        assert well.well_defined and not well.graph_preserving
        assert value == 0 and not sat


class TestBatchedSwarm:
    """The swarm is decoded and evaluated as one matrix; every particle must
    come out as the per-particle algorithm gives it, bit for bit."""

    @staticmethod
    def _decode_row(codec, d, logits):
        # the per-particle algorithm: per-segment softmax with seg.sum()
        order = {name: i for i, name in enumerate(d.params.names)}
        x = np.empty(len(d.params.names))
        pos = 0
        for group in d.ensure_param_groups():
            m = len(group) + 1
            seg = logits[pos:pos + m]
            seg = seg - seg.max()
            e = np.exp(seg)
            v = codec.eps + (1.0 - m * codec.eps) * (e / e.sum())
            x[[order[nm] for nm in group]] = v[:-1]
            pos += m
        return x

    def test_decode_matches_per_row_reference(self):
        d = g.wide_group_pmc()
        assert max(len(grp) + 1 for grp in d.ensure_param_groups()) >= 8
        codec = sy._SimplexCodec(d, 1e-4)
        logits = np.random.default_rng(5).standard_normal((64, codec.dims)) * 3
        got = codec.decode(logits)
        want = np.array([self._decode_row(codec, d, row) for row in logits])
        assert got.tobytes() == want.tobytes()

    def test_golden_run(self):
        # recorded from the per-particle implementation
        res = sy.pso_search(g.wide_group_pmc(), parse_spec("P>= 0.95 [!bad U goal]"),
                            sy.SearchConfig(seed=0, swarm_size=10, max_iterations=8))
        assert [float(t) for t in res.trace] == [
            0.47196121816987613, 0.5873034684467101, 0.8264489609720026,
            0.9430181152964894, 0.9826144445035788, 0.9969204962883599,
            0.9991609202294456, 0.9996341088773619, 0.9997538115300004]
        assert res.evaluations == 90
        assert res.first_satisfied_eval == 41
        assert res.satisfied
        assert {k: str(v) for k, v in res.instantiation.values.items()} == {
            "a0": "10000062469681713/100000000000000000000",
            "a1": "156462826061929/1562500000000000000",
            "a2": "1000535040288499/10000000000000000000",
            "a3": "10022273481247963/100000000000000000000",
            "a4": "1226562621222861/5000000000000000000",
            "a5": "253438910330539/2500000000000000000",
            "a6": "2497375620532527/2500000000000000",
            "a7": "1254169668056501/12500000000000000000",
            "a8": "5050648143353407/50000000000000000000",
            "b0": "399603684710817/400000000000000",
            "b1": "5021831702048163/50000000000000000000",
            "c0": "1778722222035121/2500000000000000",
        }

    def test_search_stats_count_across_runs(self):
        runs = [sy.SearchResult(None, None, 0.0, False, evaluations=50,
                                recomputes=1),
                sy.SearchResult(None, None, 0.0, True, evaluations=30,
                                first_satisfied_eval=7, budget_exhausted=True)]
        assert sy.search_stats(runs) == {
            "evaluations": 80, "first_satisfied_eval": 57, "recomputes": 1,
            "budget_exhausted": True}
