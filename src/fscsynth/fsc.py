"""Finite-state controllers and the POMDP x controller product chain.

A k-node FSC reads the current observation, draws an action from its action
map, then draws a successor memory node from its update map. The parameter
naming scheme used by the controller-family constructions (module transforms)
lives here so that building a controller from an instantiation and building
the parametric chain stay in lockstep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .models import Instantiation, Mc, ModelError, Pomdp


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


def remain_action(actions):
    """The action whose probability is the residual: lexicographically last."""
    return max(actions)


def action_param(z: int, n: int, action: str) -> str:
    return "p_%d_%d_%s" % (z, n, action)


def memory_param(z: int, n: int, action: str, target: int) -> str:
    return "q_%d_%d_%d_%s" % (z, n, target, action)


def _dist_ok(values, exact) -> bool:
    total = sum(values)
    if exact:
        return total == 1
    return abs(total - 1.0) <= 1e-12


class Fsc:
    """k-node stochastic controller.

    action_map: (node, observation) -> {action: prob}
    memory_update: (node, observation, action) -> {next node: prob}

    Rows are exact (Fraction) or float, detected from the entries. Rows for
    (node, observation) pairs that can never co-occur may be omitted.
    """

    def __init__(self, num_nodes, initial_node, action_map, memory_update,
                 validate=True):
        self.num_nodes = num_nodes
        self.initial_node = initial_node
        self.action_map = {key: dict(v) for key, v in action_map.items()}
        self.memory_update = {key: dict(v) for key, v in memory_update.items()}
        self.exact = not any(
            isinstance(p, float)
            for row in list(self.action_map.values()) + list(self.memory_update.values())
            for p in row.values()
        )
        if validate:
            self._validate()

    def _validate(self):
        k = self.num_nodes
        if not isinstance(k, int) or k < 1:
            raise ModelError("controller needs at least one node")
        if not 0 <= self.initial_node < k:
            raise ModelError("initial node %r out of range" % (self.initial_node,))
        for (n, z), row in self.action_map.items():
            if not 0 <= n < k:
                raise ModelError("action row for unknown node %d" % n)
            if not row:
                raise ModelError("empty action distribution at node %d, obs %d" % (n, z))
            if any(p < 0 or p > 1 for p in row.values()):
                raise ModelError("action probability outside [0,1] at node %d, obs %d" % (n, z))
            if not _dist_ok(row.values(), self.exact):
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
            if not _dist_ok(row.values(), self.exact):
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


def fsc_from_instantiation(m: Pomdp, k: int, topology, u) -> Fsc:
    """Rebuild the controller a parameter valuation describes.

    Free coordinates come from the valuation under the naming scheme above;
    the residual action (lexicographically last) and residual node target
    get one minus the rest. Valuations that put any branch outside [0, 1]
    are rejected.
    """
    FscTopology.check(topology)
    if not isinstance(u, Instantiation):
        u = Instantiation(u)
    one = Fraction(1) if u.is_rational else 1.0
    defects = []
    action_map = {}
    memory_update = {}
    for z in range(m.num_obs):
        acts = m.obs_actions(z)
        remain = remain_action(acts)
        for n in range(k):
            row = {}
            total = 0
            for a in acts:
                if a == remain:
                    continue
                v = u[action_param(z, n, a)]
                row[a] = v
                total = total + v
            row[remain] = one - total
            for a, v in row.items():
                if v < 0 or v > 1:
                    defects.append("action weight of %s at obs %d node %d is %s" % (a, z, n, v))
            action_map[(n, z)] = {a: v for a, v in row.items() if v != 0}
            targets, residual = memory_targets(n, k, topology)
            for a in acts:
                urow = {}
                total = 0
                for n2 in targets:
                    if n2 == residual:
                        continue
                    v = u[memory_param(z, n, a, n2)]
                    urow[n2] = v
                    total = total + v
                urow[residual] = one - total
                for n2, v in urow.items():
                    if v < 0 or v > 1:
                        defects.append(
                            "update weight to node %d at (obs %d, node %d, %s) is %s"
                            % (n2, z, n, a, v)
                        )
                memory_update[(n, z, a)] = {n2: v for n2, v in urow.items() if v != 0}
    if defects:
        raise ModelError("instantiation is not well-defined: " + "; ".join(defects))
    return Fsc(k, 0, action_map, memory_update)


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
