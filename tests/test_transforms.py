"""POMDP-to-chain constructions and the normalization pipeline."""

import hashlib
import random
from fractions import Fraction

import pytest

import genmodels as g
from fscsynth import transforms
from fscsynth.formats import write_param_groups, write_pmc
from fscsynth.analysis import ExactPmcEvaluator, check_mc, mdp_optimal
from fscsynth.fsc import FscTopology, fsc_from_instantiation, induced_mc
from fscsynth.models import Instantiation, ModelError, apply_instantiation, parse_spec
from fscsynth.polynomials import Polynomial
from fscsynth.transforms import (
    action_restricted_pmc,
    fsc_from_substituted,
    induced_pmc,
    insert_intermediate_states,
    make_binary,
    make_simple,
    map_unfolding_instantiation,
    next_obs_pmc,
    pmc_to_pomdp,
    substituted_pmc,
    unfold,
)

F = Fraction
V = Polynomial.variable
C = Polynomial.constant

SPEC = parse_spec("P>= 1/2 [!bad U goal]")

CONSTRUCTIONS = (
    lambda m, k: induced_pmc(m, k),
    lambda m, k: induced_pmc(m, k, FscTopology.COUNTER),
    substituted_pmc,
    action_restricted_pmc,
    next_obs_pmc,
)


def test_rows_sum_to_one_symbolically():
    rng = random.Random(31)
    one = C(1)
    for i in range(12):
        m = g.random_pomdp(rng, max_states=6)
        k = [1, 2, 3][i % 3]
        for build in CONSTRUCTIONS:
            d = build(m, k)
            for s in d.states:
                total = Polynomial()
                for p in d.row(s).values():
                    total = total + p
                assert total == one, (build, s)


# (builder, topology) -> sha256 of the write_pmc + write_param_groups text, and
# sha256 of the rows and rewards in insertion order (None where that order is
# free), over _GOLDEN_SEEDS x k = 1..3
_GOLDEN_SEEDS = range(20)
GOLDEN_CHAINS = {
    ("induced_pmc", "full"): (
        "9bf785753e142f681452fe1f7fcceeb035412a8fe1e79b8ddec6e0889f7c0a97",
        "eb0a7088fabe7f87e9c41ba0fb33972cb4bfb03fea6efa82fa1916c5aabade10"),
    ("induced_pmc", "counter"): (
        "7f80095cc559b7a787a942c5b15548c8a886c5a32fe064200ab888fc998d652f",
        "e59ace68c96c90cfe06d17544a0b082d5bf6ec74c001139bea01aaa4b26dcd9f"),
    ("substituted_pmc", "full"): (
        "8c3feea1575801a2e415b44220dbd8edeff165619a90aeae4b0d7d196cee272a",
        "2929d19ac1f0386c6b0c58ce5ac28f7cb73d7e006cb30866ac446c883e1f3df6"),
    ("substituted_pmc", "counter"): (
        "110490e2d2e71357d1efd1cf539c08002a81e2b8ed1d7296f91f47120ebb6779",
        "5117350af34fbd1bfb3a15c46525111cf4614f72dc2a57021beb096a9cbddcaa"),
    ("action_restricted_pmc", "full"): (
        "8da802c4050271ce5943dfdd508678a0fc7f6a1c089f4baa5d758e11d99f7ab9",
        "ba86d81b7a066af03b165ba0c6967183058926de0b54aaa830c13b991cac7376"),
    ("action_restricted_pmc", "counter"): (
        "1391798e09ed80c77a6fe038472102f108134ff7215f7e6ef6b84bc8a9fc6dc4",
        "8437b7b7fd25f30e3e2fbf7435766ce4b668910ff5f015a652e0c15b4f29fc7f"),
    ("next_obs_pmc", "full"): (
        "ca83d8daacdef78777ee2d2ccab9fda44bd306cedff96dbb3accb9c7bab2d9bd",
        None),
    ("next_obs_pmc", "counter"): (
        "20acad032183efc8c4715ddfec6541dc7b52b3d276f989b9e5d0288bbd9465db",
        None),
}


def _chain_digests(build, topology):
    text = hashlib.sha256()
    order = hashlib.sha256()
    for seed in _GOLDEN_SEEDS:
        m = g.random_pomdp(random.Random(seed), max_states=7, max_actions=3,
                           max_obs=3, with_rewards=True)
        for k in (1, 2, 3):
            d = build(m, k, topology)
            text.update(write_pmc(d).encode())
            text.update(write_param_groups(d.ensure_param_groups()).encode())
            rows = [(s, [(t, str(p)) for t, p in row.items()])
                    for s, row in d.trans.items()]
            rewards = [(s, str(r)) for s, r in d.rewards.items()]
            order.update(repr((rows, rewards)).encode())
    return text.hexdigest(), order.hexdigest()


@pytest.mark.parametrize("name,topology", sorted(GOLDEN_CHAINS))
def test_chain_constructions_golden(name, topology):
    # pins every construction's parameters, groups, entries and rewards, and
    # for all but next-obs the row order the float evaluator sums in
    text, order = _chain_digests(getattr(transforms, name), topology)
    want_text, want_order = GOLDEN_CHAINS[(name, topology)]
    assert text == want_text
    if want_order is not None:
        assert order == want_order


def test_product_matches_chain_edge_for_edge():
    # the instantiated chain and the explicit product agree on every
    # reachable transition, not only on the value
    rng = random.Random(32)
    for i in range(20):
        m = g.random_pomdp(rng, max_states=6)
        k = [1, 2, 3][i % 3]
        d = induced_pmc(m, k)
        u = g.random_instantiation_for(d, rng)
        chain = apply_instantiation(d, u)
        assert chain.well_defined
        mc = induced_mc(m, fsc_from_instantiation(m, k, FscTopology.FULL, u))
        for s in mc.states:
            assert mc.row(s) == chain.model.row(s)


def test_substituted_row_golden():
    d = substituted_pmc(g.fork_pomdp(), 2)
    x1 = V("r_0_0_0_a1")
    x2 = V("r_0_0_1_a1")
    x3 = V("r_0_0_0_a2")
    rest = C(1) - x1 - x2 - x3
    assert d.trans[0] == {
        2: C(F(3, 5)) * x1,
        3: C(F(3, 5)) * x2,
        4: C(F(2, 5)) * x1,
        5: C(F(2, 5)) * x2,
        6: C(F(7, 10)) * x3,
        7: C(F(7, 10)) * rest,
        8: C(F(3, 10)) * x3,
        9: C(F(3, 10)) * rest,
    }


def test_substitution_preserves_value():
    # r = (action weight) * (update weight) maps one valuation onto the other
    rng = random.Random(33)
    for i in range(8):
        m = g.random_pomdp(rng, max_states=6)
        k = 2 + i % 2
        d = induced_pmc(m, k)
        u = g.random_instantiation_for(d, rng)
        a = fsc_from_instantiation(m, k, FscTopology.FULL, u)
        ds = substituted_pmc(m, k)
        vals = {}
        for name in ds.params.names:
            z, n, t, act = _split_sub_name(name)
            vals[name] = a.action_map[(n, z)][act] * a.memory_update[(n, z, act)][t]
        v_std = ExactPmcEvaluator(d, SPEC).evaluate(u)
        v_sub = ExactPmcEvaluator(ds, SPEC).evaluate(Instantiation(vals))
        assert v_std == v_sub


def _split_sub_name(name):
    _r, z, n, t, act = name.split("_", 4)
    return int(z), int(n), int(t), act


def test_action_restricted_shares_update_parameters():
    d = action_restricted_pmc(g.fork_pomdp(), 2)
    # one update parameter per (observation, node, target), action-independent
    assert "q_0_0_0" in d.params
    p1 = V("p_0_0_a1")
    q = V("q_0_0_0")
    assert d.trans[0][2] == C(F(3, 5)) * p1 * q
    assert d.trans[0][6] == C(F(7, 10)) * (C(1) - p1) * q


def test_next_obs_updates_key_on_successor_observation():
    d = next_obs_pmc(g.fork_pomdp(), 2)
    p1 = V("p_0_0_a1")
    # same action, different successor class, different update parameter
    assert d.trans[0][2] == C(F(3, 5)) * p1 * V("qn_1_0_0_a1")
    assert d.trans[0][4] == C(F(2, 5)) * p1 * V("qn_0_0_0_a1")


def test_next_obs_matches_standard_on_intermediate_insertion():
    # routing every edge through a reading-point state makes the upcoming
    # observation part of the current one, which is what the successor-keyed
    # update construction expresses directly
    m = g.two_coin_pomdp()
    mi = insert_intermediate_states(m)
    assert mi.num_states == m.num_states + sum(
        len({m.obs[t] for t in row}) for row in m.trans.values())
    assert mdp_optimal(mi.mdp, SPEC).value == mdp_optimal(m.mdp, SPEC).value


def test_param_table_size():
    rng = random.Random(34)
    for _ in range(15):
        m = g.random_pomdp(rng, max_states=6, max_obs=3)
        for k in (1, 2, 3):
            d = induced_pmc(m, k)
            expected = sum(
                k * (len(m.obs_actions(z)) - 1) + k * (k - 1) * len(m.obs_actions(z))
                for z in range(m.num_obs))
            assert len(list(d.params.names)) == expected


class TestUnfolding:
    def test_shape(self):
        m = g.fork_pomdp()
        mu = unfold(m, 3)
        assert mu.num_states == 3 * m.num_states
        assert mu.num_obs == 3 * m.num_obs

    def test_memoryless_on_unfolding_equals_k_memory(self):
        rng = random.Random(35)
        for i in range(6):
            m = g.random_pomdp(rng, max_states=5)
            k = 2 + i % 2
            d = induced_pmc(m, k)
            u = g.random_instantiation_for(d, rng)
            mu = unfold(m, k)
            du = induced_pmc(mu, 1)
            uu = map_unfolding_instantiation(m, k, u)
            assert ExactPmcEvaluator(d, SPEC).evaluate(u) == \
                ExactPmcEvaluator(du, SPEC).evaluate(uu)


class TestNormalization:
    def test_make_binary_caps_action_sets(self):
        trans = {}
        for i, a in enumerate(["a1", "a2", "a3", "a4"]):
            trans[(0, a)] = {1: F(1, 2), 2: F(1, 2)} if i % 2 else {i % 3: F(1)}
        trans[(1, "t")] = {1: F(1)}
        trans[(2, "t")] = {2: F(1)}
        from fscsynth.models import Mdp, Pomdp
        m = Pomdp(Mdp(3, 0, trans, goal={2}), 2, [0, 1, 1])
        b = make_binary(m)
        for z in range(b.num_obs):
            assert len(b.obs_actions(z)) <= 2
        # two peel levels for four actions
        assert b.num_states == m.num_states + 2
        assert mdp_optimal(b.mdp, SPEC).value == mdp_optimal(m.mdp, SPEC).value

    def test_make_binary_noop_when_narrow(self):
        m = g.two_coin_pomdp()
        assert make_binary(m) is m

    def test_make_simple_output_shape(self):
        rng = random.Random(36)
        for _ in range(10):
            m = g.random_pomdp(rng, max_states=5, max_actions=2)
            s = make_simple(m)
            for st in s.states:
                acts = s.mdp.actions(st)
                if len(acts) == 1:
                    continue
                for a in acts:
                    assert len(s.mdp.row(st, a)) == 1
            assert mdp_optimal(s.mdp, SPEC).value == mdp_optimal(m.mdp, SPEC).value

    def test_make_simple_requires_binary(self):
        from fscsynth.models import Mdp, Pomdp
        trans = {(0, a): {0: F(1)} for a in ("x", "y", "z")}
        m = Pomdp(Mdp(1, 0, trans, goal=()), 1, [0])
        with pytest.raises(ModelError, match="binarize"):
            make_simple(m)

    def test_make_simple_idempotent(self):
        s = make_simple(g.two_coin_pomdp())
        assert make_simple(s) is s

    def test_fresh_observations_documented(self):
        s = make_simple(g.two_coin_pomdp())
        assert s.meta["transform"] == "simple"
        assert set(s.meta["split_obs"].values()) == {2, 3}
        b = make_binary(_four_action_model())
        assert "level_obs" in b.meta and "defer_action" in b.meta


def _four_action_model():
    from fscsynth.models import Mdp, Pomdp
    trans = {(0, "a%d" % i): {1: F(1)} for i in range(4)}
    trans[(1, "t")] = {1: F(1)}
    return Pomdp(Mdp(2, 0, trans, goal={1}), 2, [0, 1])


class TestChainToPomdp:
    def test_round_trip_is_the_identity_on_structure(self):
        d = induced_pmc(make_simple(g.two_coin_pomdp()), 1)
        m = pmc_to_pomdp(d)
        back = induced_pmc(m, 1)
        rename = {}
        for z, old in m.meta["obs_param"].items():
            rename[old] = "p_%d_0_a" % z
        assert back.num_states == d.num_states
        assert back.goal == d.goal and back.bad == d.bad
        for s in d.states:
            assert back.row(s) == {
                t: _rename_poly(p, rename) for t, p in d.row(s).items()}

    def test_rejects_non_simple_chain(self):
        ds = substituted_pmc(g.fork_pomdp(), 2)
        with pytest.raises(ModelError, match="simple"):
            pmc_to_pomdp(ds)

    def test_rejects_parametric_reward(self):
        d = g.biased_choice_pmc()
        trans = {s: dict(d.row(s)) for s in d.states}
        from fscsynth.models import ParameterTable, PmcT
        d2 = PmcT(d.num_states, 0, trans, params=ParameterTable(["p"]),
                  rewards={0: V("p")}, goal=d.goal, bad=d.bad)
        with pytest.raises(ModelError, match="parametric reward"):
            pmc_to_pomdp(d2)


def _rename_poly(p, mapping):
    return Polynomial({
        tuple((mapping.get(n, n), e) for n, e in mono): c
        for mono, c in p.terms.items()})


def test_fsc_from_substituted_agrees_with_standard_route():
    rng = random.Random(37)
    m = g.fork_pomdp()
    ds = substituted_pmc(m, 2)
    u = g.random_instantiation_for(ds, rng)
    a = fsc_from_substituted(m, 2, FscTopology.FULL, u)
    v_product = check_mc(induced_mc(m, a), SPEC)
    v_chain = ExactPmcEvaluator(ds, SPEC).evaluate(u)
    assert v_product == v_chain
