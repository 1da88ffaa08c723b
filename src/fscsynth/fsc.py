"""Finite-state controllers, the parameter layouts of the controller-family
chains, and the POMDP x controller product chain.

A k-node FSC reads the current observation, draws an action from its action
map, then draws a successor memory node from its update map. A valuation of
a controller-family chain is such a controller: the four layouts below name
the chain's parameters and give, per (observation, node, action), the
polynomials module transforms builds the chain from, and fsc_from_layout
reads the controller off the same polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .models import Instantiation, Mc, ModelError, Pomdp, _group_defects
from .polynomials import POLY_ONE, Polynomial


class FscTopology:
    """Memory-update shape.

    'full' lets every node reach every node; 'counter' restricts node n to
    {n, n+1}, the last node only to itself.
    """

    FULL = "full"
    COUNTER = "counter"
    ALL = (FULL, COUNTER)

    @staticmethod
    def check(kind):
        if kind not in FscTopology.ALL:
            raise ModelError("unknown topology %r" % (kind,))


def memory_targets(n: int, k: int, topology: str):
    """Reachable next nodes for node n, and which of them carries the
    residual (one-minus-the-rest) branch."""
    if topology == FscTopology.COUNTER:
        if n >= k - 1:
            return [k - 1], k - 1
        return [n, n + 1], n + 1
    return list(range(k)), k - 1


def action_param(z: int, n: int, action: str) -> str:
    return "p_%d_%d_%s" % (z, n, action)


def memory_param(z: int, n: int, action: str, target: int) -> str:
    return "q_%d_%d_%d_%s" % (z, n, target, action)


def substituted_param(z: int, n: int, target: int, action: str) -> str:
    return "r_%d_%d_%d_%s" % (z, n, target, action)


def restricted_memory_param(z: int, n: int, target: int) -> str:
    return "q_%d_%d_%d" % (z, n, target)


def next_obs_memory_param(z_next: int, n: int, target: int, action: str) -> str:
    return "qn_%d_%d_%d_%s" % (z_next, n, target, action)


# ---------------------------------------------------------------------------
# parameter layouts: X_layout lays out the chain transforms.X_pmc builds
#
# A layout(m, k, topology, names, groups) appends the chain's parameter
# names and groups in order and returns, per (z, n, a), the pair (joint,
# marginal): joint[z2][t2] weighs "take a, move to node t2" when the
# successor observes z2, and the marginal polynomials sum to the
# probability of a.


def _simplex(pairs, names, groups):
    """Probability polynomial per key of [(key, parameter name)]: every key
    but the last gets its parameter, the last one minus their sum. The free
    names join names and, if any, form one group."""
    free = [nm for _key, nm in pairs[:-1]]
    names.extend(free)
    if free:
        groups.append(free)
    factors = {key: Polynomial.variable(nm) for key, nm in pairs[:-1]}
    residual = POLY_ONE
    for nm in free:
        residual = residual - Polynomial.variable(nm)
    factors[pairs[-1][0]] = residual
    return factors


def _slots(m, k, topology):
    """(z, n, A(z), reachable next nodes of n) in parameter order."""
    for z in range(m.num_obs):
        for n in range(k):
            yield z, n, m.obs_actions(z), memory_targets(n, k, topology)[0]


def _factored(m, af, mf, targets):
    """Joint weights af * mf[t2] whatever the successor observes."""
    return [{t: af * mf[t] for t in targets}] * m.num_obs, [af]


def induced_layout(m, k, topology, names, groups):
    weights = {}
    for z, n, acts, targets in _slots(m, k, topology):
        af = _simplex([(a, action_param(z, n, a)) for a in acts], names, groups)
        for a in acts:
            mf = _simplex([(t, memory_param(z, n, a, t)) for t in targets],
                          names, groups)
            weights[(z, n, a)] = _factored(m, af[a], mf, targets)
    return weights


def substituted_layout(m, k, topology, names, groups):
    weights = {}
    for z, n, acts, targets in _slots(m, k, topology):
        pf = _simplex([((a, t), substituted_param(z, n, t, a))
                       for a in acts for t in targets], names, groups)
        for a in acts:
            weights[(z, n, a)] = ([{t: pf[(a, t)] for t in targets}] * m.num_obs,
                                  [pf[(a, t)] for t in targets])
    return weights


def action_restricted_layout(m, k, topology, names, groups):
    weights = {}
    for z, n, acts, targets in _slots(m, k, topology):
        af = _simplex([(a, action_param(z, n, a)) for a in acts], names, groups)
        mf = _simplex([(t, restricted_memory_param(z, n, t)) for t in targets],
                      names, groups)
        for a in acts:
            weights[(z, n, a)] = _factored(m, af[a], mf, targets)
    return weights


def next_obs_layout(m, k, topology, names, groups):
    # (successor obs, action) combinations that actually occur; joint[z2]
    # is None for the others
    combos = {(m.obs[t], a) for (_s, a), row in m.trans.items() for t in row}
    afs = {(z, n): _simplex([(a, action_param(z, n, a)) for a in acts],
                            names, groups)
           for z, n, acts, _targets in _slots(m, k, topology)}
    mfs = {}
    for z2, n, _acts, targets in _slots(m, k, topology):
        for a in sorted(a for (zz, a) in combos if zz == z2):
            mfs[(z2, n, a)] = _simplex(
                [(t, next_obs_memory_param(z2, n, t, a)) for t in targets],
                names, groups)
    weights = {}
    for z, n, acts, targets in _slots(m, k, topology):
        for a in acts:
            af = afs[(z, n)][a]
            joint = [{t: af * mfs[(z2, n, a)][t] for t in targets}
                     if (z2, a) in combos else None
                     for z2 in range(m.num_obs)]
            weights[(z, n, a)] = joint, [af]
    return weights


class Fsc:
    """k-node stochastic controller.

    action_map: (node, observation) -> {action: prob}
    memory_update: (node, observation, action) -> {next node: prob}

    Rows are exact (Fractions) and sum to exactly 1. Rows for (node,
    observation) pairs that can never co-occur may be omitted.
    """

    def __init__(self, num_nodes, initial_node, action_map, memory_update,
                 validate=True):
        self.num_nodes = num_nodes
        self.initial_node = initial_node
        self.action_map = {key: dict(v) for key, v in action_map.items()}
        self.memory_update = {key: dict(v) for key, v in memory_update.items()}
        if validate:
            self._validate()

    def _validate(self):
        k = self.num_nodes
        if not isinstance(k, int) or k < 1:
            raise ModelError("controller needs at least one node")
        if not 0 <= self.initial_node < k:
            raise ModelError("initial node %r out of range" % (self.initial_node,))
        rows = [*self.action_map.values(), *self.memory_update.values()]
        if any(isinstance(p, float) for row in rows for p in row.values()):
            raise ModelError("controller probabilities must be exact, not floats")
        for (n, z), row in self.action_map.items():
            if not 0 <= n < k:
                raise ModelError("action row for unknown node %d" % n)
            if not row:
                raise ModelError("empty action distribution at node %d, obs %d" % (n, z))
            if any(p < 0 or p > 1 for p in row.values()):
                raise ModelError("action probability outside [0,1] at node %d, obs %d" % (n, z))
            if sum(row.values()) != 1:
                raise ModelError(
                    "action distribution at node %d, obs %d sums to %s"
                    % (n, z, sum(row.values()))
                )
            for a in row:
                if (n, z, a) not in self.memory_update:
                    raise ModelError(
                        "no memory update for node %d, obs %d, action %s" % (n, z, a)
                    )
        for (n, z, a), row in self.memory_update.items():
            if not row:
                raise ModelError("empty update distribution at (%d,%d,%s)" % (n, z, a))
            if any(p < 0 or p > 1 for p in row.values()):
                raise ModelError("update probability outside [0,1] at (%d,%d,%s)" % (n, z, a))
            if sum(row.values()) != 1:
                raise ModelError(
                    "update distribution at (%d,%d,%s) sums to %s"
                    % (n, z, a, sum(row.values()))
                )
            for n2 in row:
                if not 0 <= n2 < k:
                    raise ModelError("update target %r out of range" % (n2,))

    def gamma(self, n, z) -> dict:
        try:
            return self.action_map[(n, z)]
        except KeyError:
            raise ModelError("controller has no action row for node %d, obs %d" % (n, z)) from None

    def delta(self, n, z, a) -> dict:
        try:
            return self.memory_update[(n, z, a)]
        except KeyError:
            raise ModelError(
                "controller has no update row for node %d, obs %d, action %s" % (n, z, a)
            ) from None

    def __eq__(self, other):
        if not isinstance(other, Fsc):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.initial_node == other.initial_node
            and self.action_map == other.action_map
            and self.memory_update == other.memory_update
        )

    def __repr__(self):
        return "Fsc(nodes=%d, init=%d, rows=%d)" % (
            self.num_nodes, self.initial_node, len(self.action_map),
        )


def uniform_fsc(m: Pomdp, k: int, topology=FscTopology.FULL) -> Fsc:
    """Uniform action choice over A(z), uniform update over allowed targets."""
    FscTopology.check(topology)
    action_map = {}
    memory_update = {}
    for z in range(m.num_obs):
        acts = m.obs_actions(z)
        for n in range(k):
            action_map[(n, z)] = {a: Fraction(1, len(acts)) for a in acts}
            targets, _ = memory_targets(n, k, topology)
            for a in acts:
                memory_update[(n, z, a)] = {t: Fraction(1, len(targets)) for t in targets}
    return Fsc(k, 0, action_map, memory_update)


def lift_fsc(a: Fsc, extra_nodes: int = 1) -> Fsc:
    """Add unreachable memory nodes; the behaviour is unchanged."""
    if extra_nodes < 0:
        raise ModelError("extra_nodes must be nonnegative")
    return Fsc(a.num_nodes + extra_nodes, a.initial_node,
               a.action_map, a.memory_update)


def fsc_from_layout(m: Pomdp, k: int, topology, layout, u) -> Fsc:
    """The controller a valuation u of layout's chain denotes.

    Valuations outside a parameter group's simplex are rejected. The action
    weight gamma(a) is the sum of a's marginal polynomials at u, the update
    weight delta(t) a's joint polynomial for node t at u over gamma(a).
    Actions of weight 0 never fire and get no update row. A controller's
    update ignores the successor's observation, so the joint weights are
    read at observation 0: next_obs_layout denotes no controller. The
    Instantiation reads floats through their decimal repr, so the quotients
    and the controller are exact.
    """
    FscTopology.check(topology)
    if not isinstance(u, Instantiation):
        u = Instantiation(u)
    groups = []
    weights = layout(m, k, topology, [], groups)
    defects = _group_defects(groups, u)
    if defects:
        raise ModelError("instantiation is not well-defined: " + "; ".join(defects))
    action_map = {}
    memory_update = {}
    for (z, n, a), (joint, marginal) in weights.items():
        gamma = action_map.setdefault((n, z), {})
        ga = sum(w.evaluate(u.values) for w in marginal)
        if ga != 0:
            gamma[a] = ga
            update = {t: w.evaluate(u.values) for t, w in joint[0].items()}
            memory_update[(n, z, a)] = {t: v / ga for t, v in update.items() if v != 0}
    return Fsc(k, 0, action_map, memory_update)


def fsc_from_instantiation(m: Pomdp, k: int, topology, u) -> Fsc:
    """The controller a valuation of induced_pmc(m, k, topology) denotes."""
    return fsc_from_layout(m, k, topology, induced_layout, u)


def induced_mc(m: Pomdp, a: Fsc) -> Mc:
    """Product chain over (state, node) pairs, reachable fragment only.

    Product ids are state*k + node. Edge weight from (s,n) to (s',n') is the
    sum over actions of gamma(n,O(s))(act) * P(s,act,s') * delta(n,O(s),act)(n').
    Goal and bad labels lift along the state component.
    """
    k = a.num_nodes
    start = m.initial * k + a.initial_node
    trans = {}
    rewards = {}
    frontier = [(m.initial, a.initial_node)]
    seen = {(m.initial, a.initial_node)}
    while frontier:
        s, n = frontier.pop()
        z = m.obs[s]
        row = {}
        reward = 0
        for act, ga in a.gamma(n, z).items():
            if ga == 0:
                continue
            if (s, act) not in m.trans:
                raise ModelError(
                    "controller action %s is not enabled in state %d (obs %d)" % (act, s, z)
                )
            r = m.rewards.get((s, act))
            if r:
                reward = reward + ga * r
            dn = a.delta(n, z, act)
            for s2, pp in m.trans[(s, act)].items():
                for n2, dp in dn.items():
                    if dp == 0:
                        continue
                    key = s2 * k + n2
                    w = ga * pp * dp
                    row[key] = row.get(key, 0) + w
                    if (s2, n2) not in seen:
                        seen.add((s2, n2))
                        frontier.append((s2, n2))
        trans[s * k + n] = row
        if reward:
            rewards[s * k + n] = reward
    states = sorted(trans)
    goal = frozenset(i for i in states if (i // k) in m.goal)
    bad = frozenset(i for i in states if (i // k) in m.bad)
    return Mc(states, start, trans, rewards, goal, bad,
              meta={"product": True, "k": k})


@dataclass
class SimulationResult:
    reach_frequency: float
    mean_reward: float
    episodes: int


def _draw(rng, dist):
    # dist values may be Fractions; compare in floats
    x = rng.random()
    acc = 0.0
    items = sorted(dist.items(), key=lambda kv: str(kv[0]))
    for key, p in items:
        acc += float(p)
        if x < acc:
            return key
    return items[-1][0]


def simulate(m: Pomdp, a: Fsc, episodes: int, horizon: int = 10000,
             seed: int = 0) -> SimulationResult:
    """Monte-Carlo estimate of reach-avoid frequency and mean reward.

    Episodes exceeding the horizon count as non-reaching (documented bias).
    Per-episode generators are seeded from (seed, episode index), so results
    do not depend on scheduling order.
    """
    if episodes < 1:
        raise ModelError("episodes must be >= 1")
    hits = 0
    total_reward = 0.0
    for ep in range(episodes):
        rng = random.Random((seed << 32) + ep)
        s, n = m.initial, a.initial_node
        acc = 0.0
        for _ in range(horizon):
            if s in m.goal:
                hits += 1
                break
            if s in m.bad:
                break
            z = m.obs[s]
            act = _draw(rng, a.gamma(n, z))
            r = m.rewards.get((s, act))
            if r:
                acc += float(r)
            s2 = _draw(rng, m.trans[(s, act)])
            n = _draw(rng, a.delta(n, z, act))
            s = s2
        else:
            if s in m.goal:
                hits += 1
        total_reward += acc
    return SimulationResult(hits / episodes, total_reward / episodes, episodes)
