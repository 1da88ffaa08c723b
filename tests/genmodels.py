"""Hand-built fixture models and random generators shared by the tests.

Fixtures pin tiny models whose values are easy to check by hand. The
generators produce structurally valid random instances for the property
suites; all randomness flows through explicit random.Random objects so a
failing case reproduces from its seed.
"""

from fractions import Fraction

from fscsynth.models import (
    Instantiation,
    Mdp,
    ParameterTable,
    PmcT,
    Pomdp,
)
from fscsynth.polynomials import Polynomial

F = Fraction
V = Polynomial.variable
C = Polynomial.constant


# ---------------------------------------------------------------------------
# fixtures


def fork_pomdp() -> Pomdp:
    """Five states, one decision up front.

    Action a1 splits 0.6/0.4 into states 1 and 2, action a2 splits 0.7/0.3
    into states 3 and 4. State 2 is indistinguishable from the start state;
    the other three share a terminal signal.
    """
    trans = {
        (0, "a1"): {1: F(3, 5), 2: F(2, 5)},
        (0, "a2"): {3: F(7, 10), 4: F(3, 10)},
        (2, "a1"): {2: F(1)},
        (2, "a2"): {2: F(1)},
        (1, "fin"): {1: F(1)},
        (3, "fin"): {3: F(1)},
        (4, "fin"): {4: F(1)},
    }
    mdp = Mdp(5, 0, trans, goal={3}, bad={4})
    return Pomdp(mdp, 2, [0, 1, 0, 1, 1])


def loop_pomdp() -> Pomdp:
    """Four states over three observations.

    States 1 and 3 share an observation but call for different behavior:
    from 1 the 'a' move loops back to the start half the time, from 3 it
    stays put. 'b' always moves on to the absorbing state 2.
    """
    trans = {
        (0, "a1"): {1: F(1)},
        (0, "a2"): {2: F(1, 2), 3: F(1, 2)},
        (0, "a3"): {3: F(1)},
        (1, "a"): {0: F(1, 2), 2: F(1, 2)},
        (1, "b"): {2: F(1)},
        (3, "a"): {3: F(1)},
        (3, "b"): {2: F(1)},
        (2, "stay"): {2: F(1)},
    }
    mdp = Mdp(4, 0, trans, goal={2})
    return Pomdp(mdp, 3, [0, 1, 2, 1])


def two_coin_pomdp() -> Pomdp:
    """Pick one of two coins, flip it once, stop.

    The first coin wins with 0.8, the second with 0.5; the two outcomes
    are observable but the choice state is not revisited.
    """
    trans = {
        (0, "a"): {1: F(1, 5), 2: F(4, 5)},
        (0, "b"): {1: F(1, 2), 2: F(1, 2)},
        (1, "t"): {1: F(1)},
        (2, "t"): {2: F(1)},
    }
    mdp = Mdp(3, 0, trans, goal={2}, bad={1})
    return Pomdp(mdp, 2, [0, 1, 1])


def biased_choice_pmc() -> PmcT:
    """One parameter mixes a 4/5 branch with a 1/2 branch.

    The reach probability is (5 + 3p)/10, increasing in p.
    """
    p = V("p")
    one = C(1)
    trans = {
        0: {1: p, 2: one - p},
        1: {3: C(F(4, 5)), 4: C(F(1, 5))},
        2: {3: C(F(1, 2)), 4: C(F(1, 2))},
        3: {3: one},
        4: {4: one},
    }
    return PmcT(5, 0, trans, params=ParameterTable(["p"]),
                goal={3}, bad={4}, param_groups=[["p"]])


def wide_group_pmc(reward=False) -> PmcT:
    """A ten-way choice (nine parameters plus residual) feeding two kinds
    of follow-up states, one of them through a product b0*c0.

    Parameter groups have 10, 3 and 2 coordinates, and the residual entry
    1 - (a0 + ... + a8) has ten terms. With reward=True the bad state
    returns to the start instead of absorbing, every step costs 1 and the
    start costs 2 - a0, so the goal is reached almost surely.
    """
    a = ["a%d" % i for i in range(9)]
    one = C(1)
    rest = one
    for name in a:
        rest = rest - V(name)
    b0, b1, c0 = V("b0"), V("b1"), V("c0")
    trans = {0: {1 + i: V(name) for i, name in enumerate(a)}}
    trans[0][10] = rest
    for j in range(1, 11):
        if j % 2:
            trans[j] = {11: b0, 12: b1, 0: one - b0 - b1}
        else:
            trans[j] = {11: b0 * c0, 12: one - b0 * c0}
    trans[11] = {11: one}
    trans[12] = {0: one} if reward else {12: one}
    params = ParameterTable(a + ["b0", "b1", "c0"])
    groups = [a, ["b0", "b1"], ["c0"]]
    if reward:
        rewards = {s: one for s in range(11)}
        rewards[0] = C(2) - V("a0")
        return PmcT(13, 0, trans, params=params, goal={11}, rewards=rewards,
                    param_groups=groups)
    return PmcT(13, 0, trans, params=params, goal={11}, bad={12},
                param_groups=groups)


def sticky_start_pomdp() -> Pomdp:
    """Move on or stay put, indistinguishably.

    Any positive probability of moving reaches the goal almost surely;
    exactly zero never does, so the value jumps at the boundary.
    """
    trans = {
        (0, "go"): {1: F(1)},
        (0, "stay"): {0: F(1)},
        (1, "go"): {1: F(1)},
        (1, "stay"): {1: F(1)},
    }
    mdp = Mdp(2, 0, trans, goal={1})
    return Pomdp(mdp, 1, [0, 0])


def revisit_pomdp() -> Pomdp:
    """The middle observation is seen twice and the right move differs
    between the visits; bailing out immediately pays 1/10.

    Memoryless deterministic controllers get at most 1/10. Randomizing
    the shared choice gives p(1-p) + (1-p)/10, maximal at p = 9/20 with
    value 121/400, so randomization strictly helps here.
    """
    trans = {
        (0, "go"): {1: F(1)},
        (1, "l"): {2: F(1)},
        (1, "r"): {3: F(1, 10), 4: F(9, 10)},
        (2, "l"): {4: F(1)},
        (2, "r"): {3: F(1)},
        (3, "go"): {3: F(1)},
        (4, "go"): {4: F(1)},
    }
    mdp = Mdp(5, 0, trans, goal={3}, bad={4})
    return Pomdp(mdp, 2, [0, 1, 1, 0, 0])


def chain_reward_pomdp() -> Pomdp:
    """Two-step chain with action costs, for expected-reward checks.

    Paying 4 moves on directly; paying 1 takes a detour that costs
    another 6, so the cheap-looking move is the expensive one.
    """
    trans = {
        (0, "direct"): {2: F(1)},
        (0, "detour"): {1: F(1)},
        (1, "direct"): {2: F(1)},
        (1, "detour"): {2: F(1)},
        (2, "direct"): {2: F(1)},
        (2, "detour"): {2: F(1)},
    }
    rewards = {
        (0, "direct"): F(4),
        (0, "detour"): F(1),
        (1, "direct"): F(6),
        (1, "detour"): F(6),
    }
    mdp = Mdp(3, 0, trans, rewards, goal={2})
    return Pomdp(mdp, 3, [0, 1, 2])


# ---------------------------------------------------------------------------
# random generators


def random_pomdp(rng, max_states=8, max_actions=3, max_obs=4,
                 with_rewards=False) -> Pomdp:
    """Random POMDP with surjective observations and per-observation
    action sets, exact transition probabilities, goal on the last state."""
    n = rng.randint(2, max_states)
    num_obs = rng.randint(1, min(max_obs, n))
    obs = list(range(num_obs)) + [rng.randrange(num_obs)
                                  for _ in range(n - num_obs)]
    rng.shuffle(obs)
    n_acts = {z: rng.randint(1, max_actions) for z in range(num_obs)}
    trans = {}
    rewards = {}
    for s in range(n):
        for i in range(n_acts[obs[s]]):
            a = "a%d" % i
            size = rng.randint(1, min(3, n))
            support = rng.sample(range(n), size)
            weights = [rng.randint(1, 5) for _ in support]
            tot = sum(weights)
            trans[(s, a)] = {t: F(w, tot) for t, w in zip(support, weights)}
            if with_rewards:
                rewards[(s, a)] = F(rng.randint(0, 4))
    goal = {n - 1}
    bad = set()
    if n > 2 and rng.random() < 0.5:
        bad = {s for s in range(1, n - 1) if rng.random() < 0.25}
    mdp = Mdp(n, 0, trans, rewards, goal, bad)
    return Pomdp(mdp, num_obs, obs)


def random_mdp(rng, max_states=5, max_actions=3) -> Mdp:
    """Small random MDP with rewards whose values are rarely 0 or 1: the
    last state is an absorbing goal, the one before it an absorbing trap
    (labelled bad half of the time), and every other state has one to
    max_actions actions over one to three successors."""
    n = rng.randint(3, max_states)
    trans = {(n - 1, "a0"): {n - 1: F(1)}, (n - 2, "a0"): {n - 2: F(1)}}
    rewards = {}
    for s in range(n - 2):
        for i in range(rng.randint(1, max_actions)):
            support = rng.sample(range(n), rng.randint(1, 3))
            weights = [rng.randint(1, 5) for _ in support]
            tot = sum(weights)
            trans[(s, "a%d" % i)] = {t: F(w, tot) for t, w in zip(support, weights)}
            rewards[(s, "a%d" % i)] = F(rng.randint(0, 4))
    bad = {n - 2} if rng.random() < 0.5 else set()
    return Mdp(n, 0, trans, rewards, goal={n - 1}, bad=bad)


def fixed_size_pomdp(rng, num_states, num_obs, max_actions=3) -> Pomdp:
    """Like random_pomdp but with exact state and observation counts."""
    obs = list(range(num_obs)) + [rng.randrange(num_obs)
                                  for _ in range(num_states - num_obs)]
    rng.shuffle(obs)
    n_acts = {z: rng.randint(1, max_actions) for z in range(num_obs)}
    trans = {}
    for s in range(num_states):
        for i in range(n_acts[obs[s]]):
            size = rng.randint(1, min(3, num_states))
            support = rng.sample(range(num_states), size)
            weights = [rng.randint(1, 5) for _ in support]
            tot = sum(weights)
            trans[(s, "a%d" % i)] = {t: F(w, tot)
                                     for t, w in zip(support, weights)}
    mdp = Mdp(num_states, 0, trans, goal={num_states - 1})
    return Pomdp(mdp, num_obs, obs)


def random_instantiation_for(d: PmcT, rng) -> Instantiation:
    """Strictly positive rational point for every parameter group, so the
    instantiation is graph-preserving by construction."""
    vals = {}
    for group in d.ensure_param_groups():
        weights = [rng.randint(1, 9) for _ in range(len(group) + 1)]
        tot = sum(weights)
        for name, w in zip(group, weights):
            vals[name] = F(w, tot)
    return Instantiation(vals)


def random_simple_pmc(rng, max_states=30, max_params=6) -> PmcT:
    """Random chain whose rows are either constant distributions or a
    {p, 1-p} pair; every declared parameter is used at least once."""
    n = rng.randint(3, max_states)
    num_params = rng.randint(1, min(max_params, n - 1))
    names = ["p%d" % i for i in range(num_params)]
    slots = list(range(n - 1))
    rng.shuffle(slots)
    carriers = {slots[i]: names[i] for i in range(num_params)}
    for s in slots[num_params:]:
        if rng.random() < 0.3:
            carriers[s] = names[rng.randrange(num_params)]
    trans = {}
    for s in range(n - 1):
        if s in carriers:
            p = V(carriers[s])
            t_yes = rng.randrange(n)
            t_no = rng.randrange(n)
            while t_no == t_yes:
                t_no = rng.randrange(n)
            trans[s] = {t_yes: p, t_no: C(1) - p}
        else:
            size = rng.randint(1, min(4, n))
            support = rng.sample(range(n), size)
            weights = [rng.randint(1, 5) for _ in support]
            tot = sum(weights)
            trans[s] = {t: C(F(w, tot)) for t, w in zip(support, weights)}
    trans[n - 1] = {n - 1: C(1)}
    goal = {n - 1}
    bad = set()
    if n > 3 and rng.random() < 0.4:
        cand = rng.randrange(1, n - 1)
        bad = {cand}
    return PmcT(n, 0, trans, params=ParameterTable(names),
                goal=goal, bad=bad)


def random_region_for(d: PmcT, rng):
    """Random axis-aligned box strictly inside (0, 1) covering every
    parameter of d."""
    from fscsynth.analysis import Region

    intervals = {}
    for name in d.params.names:
        lo = F(rng.randint(1, 49), 100)
        hi = F(rng.randint(50, 99), 100)
        intervals[name] = (lo, hi)
    return Region(intervals)
