"""Controllers and the POMDP x controller product."""

import hashlib
import random
from fractions import Fraction

import pytest

import genmodels as g
from fscsynth.analysis import ExactPmcEvaluator, check_mc
from fscsynth.formats import write_fsc
from fscsynth.fsc import (
    Fsc,
    FscTopology,
    action_param,
    fsc_from_instantiation,
    induced_mc,
    lift_fsc,
    memory_param,
    memory_targets,
    substituted_param,
    uniform_fsc,
)
from fscsynth.models import Instantiation, ModelError, parse_spec
from fscsynth.transforms import fsc_from_substituted, induced_pmc, substituted_pmc

F = Fraction

SPEC = parse_spec("P>= 1/2 [!bad U goal]")


def test_memory_targets():
    assert memory_targets(0, 3, FscTopology.FULL) == ([0, 1, 2], 2)
    assert memory_targets(2, 3, FscTopology.FULL) == ([0, 1, 2], 2)
    assert memory_targets(0, 3, FscTopology.COUNTER) == ([0, 1], 1)
    assert memory_targets(1, 3, FscTopology.COUNTER) == ([1, 2], 2)
    assert memory_targets(2, 3, FscTopology.COUNTER) == ([2], 2)
    assert memory_targets(0, 1, FscTopology.FULL) == ([0], 0)


def test_uniform_fsc_rows():
    a = uniform_fsc(g.two_coin_pomdp(), 2)
    assert a.action_map[(0, 0)] == {"a": F(1, 2), "b": F(1, 2)}
    assert a.memory_update[(1, 0, "b")] == {0: F(1, 2), 1: F(1, 2)}


def test_fsc_from_instantiation_fills_residuals():
    m = g.two_coin_pomdp()
    u = Instantiation({
        "p_0_0_a": F(1, 3), "p_0_1_a": F(1, 4),
        "p_1_0_t": F(0), "p_1_1_t": F(0),  # unused: single-action class
        "q_0_0_0_a": F(1, 5), "q_0_0_0_b": F(2, 5),
        "q_0_1_0_a": F(3, 5), "q_0_1_0_b": F(4, 5),
        "q_1_0_0_t": F(1, 7), "q_1_1_0_t": F(2, 7),
    })
    a = fsc_from_instantiation(m, 2, FscTopology.FULL, u)
    assert a.action_map[(0, 0)] == {"a": F(1, 3), "b": F(2, 3)}
    assert a.memory_update[(0, 0, "a")] == {0: F(1, 5), 1: F(4, 5)}
    assert a.memory_update[(1, 0, "b")] == {0: F(4, 5), 1: F(1, 5)}
    # single action: the whole mass is the residual
    assert a.action_map[(0, 1)] == {"t": F(1)}


def test_fsc_from_instantiation_rejects_overweight():
    m = g.two_coin_pomdp()
    d = induced_pmc(m, 1)
    u = {name: F(2) for name in d.params.names}
    with pytest.raises(ModelError, match="not well-defined"):
        fsc_from_instantiation(m, 1, FscTopology.FULL, u)


def test_actions_of_weight_zero_get_no_update_row():
    m = g.two_coin_pomdp()
    u = Instantiation({
        "p_0_0_a": F(0), "p_0_1_a": F(1, 2),
        "q_0_0_0_a": F(1, 5), "q_0_0_0_b": F(2, 5),
        "q_0_1_0_a": F(3, 5), "q_0_1_0_b": F(4, 5),
        "q_1_0_0_t": F(1, 7), "q_1_1_0_t": F(2, 7),
    })
    a = fsc_from_instantiation(m, 2, FscTopology.FULL, u)
    assert a.action_map[(0, 0)] == {"b": F(1)}
    assert (0, 0, "a") not in a.memory_update
    assert a.memory_update[(0, 0, "b")] == {0: F(2, 5), 1: F(3, 5)}
    assert a.memory_update[(1, 0, "a")] == {0: F(3, 5), 1: F(2, 5)}
    text = write_fsc(a)
    assert "upd 0 0 a " not in text and "upd 0 0 b " in text


# family -> (chain builder, decoder, sha256 of the write_fsc text over
# _GOLDEN_SEEDS x k = 1..3 at random_instantiation_for points) per topology
_GOLDEN_SEEDS = range(20)
GOLDEN_CONTROLLERS = {
    "standard": (induced_pmc, fsc_from_instantiation, {
        "full": "23d07b84b031e9c4073641324a9d7342d786f25ae793001a080215b7e8ba981c",
        "counter": "f5588981a44d1cbf60ef44c9cee1e69f68ad834658a447fcec9ad8d9765ceb48"}),
    "substituted": (substituted_pmc, fsc_from_substituted, {
        "full": "c0e4be9995c15df286218e8000a581c8a7058c2a7fd49fc635fe5dd94a69a923",
        "counter": "cd3c6e5225effca5a82feec172b4f00b32ba34fbdcff2e8e3369494a9790f3eb"}),
}


def _decoded(family, topology):
    """(m, k, u, controller) over the golden set, u drawn per seed."""
    build, decode, _digests = GOLDEN_CONTROLLERS[family]
    for seed in _GOLDEN_SEEDS:
        m = g.random_pomdp(random.Random(seed), max_states=7, max_actions=3,
                           max_obs=3, with_rewards=True)
        rng = random.Random(seed)
        for k in (1, 2, 3):
            u = g.random_instantiation_for(build(m, k, topology), rng)
            yield m, k, u, decode(m, k, topology, u)


@pytest.mark.parametrize("topology", FscTopology.ALL)
@pytest.mark.parametrize("family", sorted(GOLDEN_CONTROLLERS))
def test_decoders_golden(family, topology):
    digest = hashlib.sha256()
    for _m, _k, _u, a in _decoded(family, topology):
        digest.update(write_fsc(a).encode())
    assert digest.hexdigest() == GOLDEN_CONTROLLERS[family][2][topology]


@pytest.mark.parametrize("topology", FscTopology.ALL)
@pytest.mark.parametrize("family", sorted(GOLDEN_CONTROLLERS))
def test_decoded_controller_encodes_back_to_its_valuation(family, topology):
    # every free coordinate of the layout, residuals left out
    for m, k, u, a in _decoded(family, topology):
        back = {}
        for z in range(m.num_obs):
            acts = m.obs_actions(z)
            for n in range(k):
                gamma = a.gamma(n, z)
                targets, residual = memory_targets(n, k, topology)
                if family == "substituted":
                    pairs = [(act, t) for act in acts for t in targets][:-1]
                    for act, t in pairs:
                        back[substituted_param(z, n, t, act)] = \
                            gamma[act] * a.delta(n, z, act).get(t, 0)
                    continue
                for act in acts[:-1]:
                    back[action_param(z, n, act)] = gamma[act]
                for act in acts:
                    for t in targets:
                        if t != residual:
                            back[memory_param(z, n, act, t)] = a.delta(n, z, act)[t]
        assert Instantiation(back) == u


def test_validation_errors():
    with pytest.raises(ModelError, match="memory update"):
        Fsc(1, 0, {(0, 0): {"a": F(1)}}, {})
    with pytest.raises(ModelError, match="sums to"):
        Fsc(1, 0, {(0, 0): {"a": F(1, 2)}}, {(0, 0, "a"): {0: F(1)}})
    with pytest.raises(ModelError, match="initial node"):
        Fsc(1, 3, {}, {})


@pytest.mark.parametrize("action_row, update_row", [
    ({"a": 1.0}, {0: F(1)}), ({"a": F(1)}, {0: 0.5, 1: F(1, 2)})])
def test_float_entries_rejected(action_row, update_row):
    # rows sum to exactly 1, so a controller holds no floats
    with pytest.raises(ModelError, match="exact"):
        Fsc(2, 0, {(0, 0): action_row}, {(0, 0, "a"): update_row})


class TestProduct:
    def test_rows_sum_to_one_and_ids_are_row_major(self):
        rng = random.Random(21)
        for _ in range(20):
            m = g.random_pomdp(rng, max_states=6)
            k = rng.choice([1, 2, 3])
            a = uniform_fsc(m, k)
            mc = induced_mc(m, a)
            assert all(0 <= sid < m.num_states * k for sid in mc.states)
            for s in mc.states:
                assert sum(mc.row(s).values()) == 1
            assert mc.initial == m.initial * k + a.initial_node
            assert len(list(mc.states)) <= m.num_states * k

    def test_keeps_only_the_reachable_fragment(self):
        m = g.fork_pomdp()
        a = fsc_from_instantiation(
            m, 1, FscTopology.FULL, {"p_0_0_a1": F(1)})
        mc = induced_mc(m, a)
        # a2 never fires, so its two successors stay out of the product
        assert set(mc.states) == {0, 1, 2}

    def test_counter_updates_stay_within_successor_window(self):
        rng = random.Random(22)
        for _ in range(10):
            m = g.random_pomdp(rng, max_states=6)
            k = 3
            d = induced_pmc(m, k, FscTopology.COUNTER)
            u = g.random_instantiation_for(d, rng)
            mc = induced_mc(m, fsc_from_instantiation(m, k, FscTopology.COUNTER, u))
            for s in mc.states:
                n = s % k
                allowed = set(memory_targets(n, k, FscTopology.COUNTER)[0])
                for t in mc.row(s):
                    assert t % k in allowed

    def test_product_value_matches_chain_value(self):
        # one random sweep over both topologies; the acceptance suite
        # runs the larger version
        rng = random.Random(23)
        for i in range(25):
            m = g.random_pomdp(rng, max_states=6)
            k = [1, 2, 3][i % 3]
            top = FscTopology.FULL if i % 2 == 0 else FscTopology.COUNTER
            d = induced_pmc(m, k, top)
            u = g.random_instantiation_for(d, rng)
            direct = check_mc(induced_mc(m, fsc_from_instantiation(m, k, top, u)), SPEC)
            via_chain = ExactPmcEvaluator(d, SPEC).evaluate(u)
            assert direct == via_chain

    def test_lift_preserves_value(self):
        rng = random.Random(24)
        for _ in range(10):
            m = g.random_pomdp(rng, max_states=6)
            d = induced_pmc(m, 2)
            u = g.random_instantiation_for(d, rng)
            a = fsc_from_instantiation(m, 2, FscTopology.FULL, u)
            v = check_mc(induced_mc(m, a), SPEC)
            for extra in (1, 2):
                lifted = lift_fsc(a, extra)
                assert lifted.num_nodes == a.num_nodes + extra
                assert check_mc(induced_mc(m, lifted), SPEC) == v
