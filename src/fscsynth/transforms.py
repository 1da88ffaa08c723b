"""Structure-level constructions.

The controller-family chains are products of a POMDP with the k-node
controller template, built by one loop (_product_pmc) from the four
parameter layouts of module fsc: the standard one (an action simplex per
observation/node and an update simplex per action), the substituted one (one
joint simplex per observation/node), the action-restricted one (one update
simplex per observation/node, shared by its actions) and the next-observation
one (the update keyed by the successor's observation). Module fsc reads the
controller a valuation denotes off the same layouts. Plus the memory
unfolding back into a POMDP, the normalizations (binary, simple), the
intermediate-state insertion, and the translation of a simple pMC back into
a POMDP.

Everything here is a pure function from immutable inputs to fresh outputs.
"""

from __future__ import annotations

from fractions import Fraction

from .fsc import (
    Fsc,
    FscTopology,
    action_param,
    action_restricted_layout,
    fsc_from_instantiation,
    fsc_from_layout,
    induced_layout,
    memory_targets,
    next_obs_layout,
    product_state,
    substituted_layout,
)
from .models import (
    Instantiation,
    Mdp,
    ModelError,
    ParameterTable,
    PmcT,
    Pomdp,
)
from .polynomials import Polynomial


def _lift_labels(labels, k):
    return frozenset(product_state(s, n, k) for s in labels for n in range(k))


def _product_pmc(m, k, topology, kind, layout) -> PmcT:
    """The product of m with the k-node controller template.

    layout is one of the parameter layouts of module fsc; a's marginal
    polynomials weigh a's reward."""
    if k < 1:
        raise ModelError("memory bound must be at least 1")
    FscTopology.check(topology)
    names = []
    groups = []
    weights = layout(m, k, topology, names, groups)
    targets = [memory_targets(n, k, topology)[0] for n in range(k)]
    trans = {}
    rewards = {}
    for s in m.states:
        z = m.obs[s]
        acts = m.obs_actions(z)
        for n in range(k):
            row = {}
            racc = Polynomial()
            for a in acts:
                joint, marginal = weights[(z, n, a)]
                succ = m.mdp.row(s, a).items()
                for t2 in targets[n]:
                    for s2, pr in succ:
                        key = product_state(s2, t2, k)
                        add = joint[m.obs[s2]][t2] * pr
                        row[key] = row[key] + add if key in row else add
                r = m.rewards.get((s, a))
                if r:
                    for w in marginal:
                        racc = racc + w * r
            trans[product_state(s, n, k)] = {
                t: p for t, p in row.items() if not p.is_zero()}
            if not racc.is_zero():
                rewards[product_state(s, n, k)] = racc
    meta = {"transform": kind, "k": k, "topology": topology,
            "source_states": m.num_states, "pomdp": m}
    return PmcT(
        num_states=m.num_states * k,
        initial=product_state(m.initial, 0, k),
        trans=trans,
        params=ParameterTable(names),
        rewards=rewards,
        goal=_lift_labels(m.goal, k),
        bad=_lift_labels(m.bad, k),
        param_groups=groups,
        meta=meta,
    )


def induced_pmc(m: Pomdp, k: int, topology: str = FscTopology.FULL) -> PmcT:
    """Parametric chain over states (s, n) whose instantiations are exactly
    the chains induced by k-node controllers of the given topology.

    Action parameters p_z_n_a cover all but the last action of A(z); memory
    parameters q_z_n_n2_a cover all reachable target nodes but the residual
    one. Counter topology pins updates outside {n, n+1} to zero, so those
    edges never materialize."""
    return _product_pmc(m, k, topology, "induced", induced_layout)


def substituted_pmc(m: Pomdp, k: int, topology: str = FscTopology.FULL) -> PmcT:
    """Variant with one joint parameter r_z_n_n2_a per (action, target node)
    pair: the whole per-(z, n) behavior is a single simplex, which removes
    the parameter products of the standard construction."""
    return _product_pmc(m, k, topology, "substituted", substituted_layout)


def fsc_from_substituted(m: Pomdp, k: int, topology: str, u) -> Fsc:
    """Recover the controller denoted by a valuation of the substituted
    chain: action probabilities are the pair marginals, updates the
    conditionals."""
    return fsc_from_layout(m, k, topology, substituted_layout, u)


def action_restricted_pmc(m: Pomdp, k: int, topology: str = FscTopology.FULL) -> PmcT:
    """Variant where the memory update is shared across actions: one
    q_z_n_n2 family per (z, n), reused by every action factor."""
    return _product_pmc(m, k, topology, "action-restricted", action_restricted_layout)


def next_obs_pmc(m: Pomdp, k: int, topology: str = FscTopology.FULL) -> PmcT:
    """Variant whose memory update is keyed by the observation of the
    successor state (qn_z2_n_n2_a). Analysis only: it has no unfolding."""
    return _product_pmc(m, k, topology, "next-obs", next_obs_layout)


# ---------------------------------------------------------------------------
# unfolding


def unfold(m: Pomdp, k: int) -> Pomdp:
    """Memory unfolding: states (s, n), actions a@n2 choosing the action and
    the successor memory node jointly, observations (z, n). A 1-node
    controller of the result is a k-node controller of the input."""
    if k < 2:
        raise ModelError("unfolding needs a memory bound of at least 2")
    trans = {}
    rewards = {}
    for (s, a), row in m.trans.items():
        for n in range(k):
            src = product_state(s, n, k)
            for t2 in range(k):
                label = "%s@%d" % (a, t2)
                trans[(src, label)] = {
                    product_state(s2, t2, k): pr for s2, pr in row.items()
                }
                r = m.rewards.get((s, a))
                if r:
                    rewards[(src, label)] = r
    mdp = Mdp(
        num_states=m.num_states * k,
        initial=product_state(m.initial, 0, k),
        trans=trans,
        rewards=rewards,
        goal=_lift_labels(m.goal, k),
        bad=_lift_labels(m.bad, k),
    )
    obs = []
    for s in m.states:
        for n in range(k):
            obs.append(m.obs[s] * k + n)
    meta = {"transform": "unfold", "k": k, "source_states": m.num_states}
    return Pomdp(mdp, m.num_obs * k, obs, meta=meta)


def map_unfolding_instantiation(m: Pomdp, k: int, u) -> Instantiation:
    """Carry a valuation of the k-node chain of m over to the 1-node chain
    of unfold(m, k): the joint action-and-update distribution at (z, n)
    becomes the action distribution at unfolded observation (z, n)."""
    a = fsc_from_instantiation(m, k, FscTopology.FULL, u)
    out = {}
    for (n, z), gamma in a.action_map.items():
        weight = {"%s@%d" % (act, t): ga * dv for act, ga in gamma.items()
                  for t, dv in a.delta(n, z, act).items()}
        labels = sorted("%s@%d" % (act, t) for act in m.obs_actions(z) for t in range(k))
        for label in labels[:-1]:
            out[action_param(z * k + n, 0, label)] = weight.get(label, 0)
    return Instantiation(out)


# ---------------------------------------------------------------------------
# POMDP normalizations


def _fresh_label(label, taken):
    while label in taken:
        label = "_" + label
    return label


def insert_intermediate_states(m: Pomdp) -> Pomdp:
    """Route every transition through a fresh state observing the pair
    (action taken, observation class of the target). The detour costs
    nothing and preserves reach-avoid values; a standard controller on the
    result can read the upcoming observation, which is exactly the
    next-observation update semantics."""
    pairs = sorted({(a, m.obs[t]) for (s, a), row in m.trans.items() for t in row})
    pair_obs = {pair: m.num_obs + i for i, pair in enumerate(pairs)}
    hop = _fresh_label("tau", {a for (_s, a) in m.trans})
    trans = {}
    rewards = {}
    obs = list(m.obs)
    next_id = m.num_states
    for s in m.states:
        for a in m.actions(s):
            row = m.mdp.row(s, a)
            classes = {}
            for t, pr in row.items():
                classes.setdefault(m.obs[t], []).append((t, pr))
            new_row = {}
            for z2 in sorted(classes):
                mass = sum(pr for _t, pr in classes[z2])
                mid = next_id
                next_id += 1
                obs.append(pair_obs[(a, z2)])
                new_row[mid] = mass
                trans[(mid, hop)] = {t: pr / mass for t, pr in classes[z2]}
            trans[(s, a)] = new_row
            r = m.rewards.get((s, a))
            if r:
                rewards[(s, a)] = r
    mdp = Mdp(next_id, m.initial, trans, rewards, m.goal, m.bad)
    meta = {"transform": "intermediate",
            "intermediate_obs": {pair_obs[p]: p for p in pairs},
            "hop_action": hop, "source_states": m.num_states}
    return Pomdp(mdp, m.num_obs + len(pairs), obs, meta=meta)


def make_binary(m: Pomdp) -> Pomdp:
    """Split observation classes with more than two actions into a chain
    of two-action levels: keep the first action or defer to the next level.
    Splitting is per observation, so all states of a class get the same
    chain; values of 1-node controllers are preserved."""
    wide = [z for z in range(m.num_obs) if len(m.obs_actions(z)) > 2]
    if not wide:
        return m
    more = _fresh_label("_more", {a for (_s, a) in m.trans})
    level_obs = {}
    next_obs_id = m.num_obs
    for z in wide:
        depth = len(m.obs_actions(z)) - 2
        for d in range(1, depth + 1):
            level_obs[(z, d)] = next_obs_id
            next_obs_id += 1
    trans = {}
    rewards = {}
    obs = list(m.obs)
    next_id = m.num_states
    for s in m.states:
        z = m.obs[s]
        acts = m.obs_actions(z)
        if len(acts) <= 2:
            for a in acts:
                trans[(s, a)] = dict(m.mdp.row(s, a))
                r = m.rewards.get((s, a))
                if r:
                    rewards[(s, a)] = r
            continue
        depth = len(acts) - 2
        level_id = {0: s}
        for d in range(1, depth + 1):
            level_id[d] = next_id
            obs.append(level_obs[(z, d)])
            next_id += 1
        for d in range(depth + 1):
            sd = level_id[d]
            if d < depth:
                trans[(sd, acts[d])] = dict(m.mdp.row(s, acts[d]))
                r = m.rewards.get((s, acts[d]))
                if r:
                    rewards[(sd, acts[d])] = r
                trans[(sd, more)] = {level_id[d + 1]: Fraction(1)}
            else:
                for a in (acts[d], acts[d + 1]):
                    trans[(sd, a)] = dict(m.mdp.row(s, a))
                    r = m.rewards.get((s, a))
                    if r:
                        rewards[(sd, a)] = r
    mdp = Mdp(next_id, m.initial, trans, rewards, m.goal, m.bad)
    meta = {"transform": "binary", "level_obs": dict(level_obs),
            "defer_action": more, "source_states": m.num_states}
    return Pomdp(mdp, next_obs_id, obs, meta=meta)


def make_simple(m: Pomdp) -> Pomdp:
    """Delay probabilistic branching of two-action states into fresh
    single-action states, so every choice has Dirac outcomes. Input must be
    binary."""
    for z in range(m.num_obs):
        if len(m.obs_actions(z)) > 2:
            raise ModelError(
                "observation %d enables %d actions; binarize first"
                % (z, len(m.obs_actions(z))))
    needs = {}
    for s in m.states:
        z = m.obs[s]
        if len(m.obs_actions(z)) != 2:
            continue
        for a in m.actions(s):
            if len(m.mdp.row(s, a)) > 1:
                needs.setdefault((z, a), []).append(s)
    if not needs:
        return m
    go = _fresh_label("_go", {a for (_s, a) in m.trans})
    split_obs = {}
    next_obs_id = m.num_obs
    for pair in sorted(needs):
        split_obs[pair] = next_obs_id
        next_obs_id += 1
    trans = {}
    rewards = {}
    obs = list(m.obs)
    next_id = m.num_states
    for s in m.states:
        z = m.obs[s]
        for a in m.actions(s):
            row = m.mdp.row(s, a)
            r = m.rewards.get((s, a))
            if r:
                rewards[(s, a)] = r
            if len(m.obs_actions(z)) == 2 and len(row) > 1:
                mid = next_id
                next_id += 1
                obs.append(split_obs[(z, a)])
                trans[(s, a)] = {mid: Fraction(1)}
                trans[(mid, go)] = dict(row)
            else:
                trans[(s, a)] = dict(row)
    mdp = Mdp(next_id, m.initial, trans, rewards, m.goal, m.bad)
    meta = {"transform": "simple", "split_obs": dict(split_obs),
            "branch_action": go, "source_states": m.num_states}
    return Pomdp(mdp, next_obs_id, obs, meta=meta)


# ---------------------------------------------------------------------------
# simple pMC -> POMDP


def _classify_simple_row(row):
    """(param, dirac target of p, dirac target of 1-p) or None for constant
    rows. Assumes rows_in_simple_form."""
    items = [(t, p) for t, p in row.items() if not p.is_constant()]
    if not items:
        return None
    plain = None
    flipped = None
    for t, p in items:
        ((mono, c),) = [(mn, cc) for mn, cc in p.terms.items() if mn != ()]
        name = mono[0][0]
        if c == 1:
            plain = (t, name)
        else:
            flipped = (t, name)
    return plain[1], plain[0], flipped[0]


def pmc_to_pomdp(d: PmcT) -> Pomdp:
    """Translate a simple pMC into a POMDP on the same states: a {p, 1-p}
    state becomes a two-action state (a: p-branch, b: rest) observing an
    observation specific to p, so the product with a 1-node controller
    recovers the input chain edge for edge."""
    if not d.rows_in_simple_form():
        raise ModelError("pMC rows are not in simple {p, 1-p} / constant form")
    split = {}
    for s in d.states:
        split[s] = _classify_simple_row(d.row(s))
    used = []
    for s in d.states:
        if split[s] is not None and split[s][0] not in used:
            used.append(split[s][0])
    used.sort(key=list(d.params.names).index)
    obs_of_param = {p: i for i, p in enumerate(used)}
    const_obs = len(used)
    have_const = any(v is None for v in split.values())
    trans = {}
    rewards = {}
    obs = []
    for s in d.states:
        if split[s] is None:
            obs.append(const_obs)
            trans[(s, "tau")] = {t: p.constant_value() for t, p in d.row(s).items()}
            acts = ("tau",)
        else:
            name, t_yes, t_no = split[s]
            obs.append(obs_of_param[name])
            trans[(s, "a")] = {t_yes: Fraction(1)}
            trans[(s, "b")] = {t_no: Fraction(1)}
            acts = ("a", "b")
        r = d.rewards.get(s)
        if r is not None:
            if not r.is_constant():
                raise ModelError(
                    "state %d carries a parametric reward; cannot translate" % s)
            for a in acts:
                rewards[(s, a)] = r.constant_value()
    mdp = Mdp(d.num_states, d.initial, trans, rewards, d.goal, d.bad)
    num_obs = len(used) + (1 if have_const else 0)
    meta = {"transform": "pmc-to-pomdp",
            "obs_param": {i: p for p, i in obs_of_param.items()}}
    return Pomdp(mdp, num_obs, obs, meta=meta)

