"""Quantitative analysis: chain/MDP model checking, qualitative sets,
closed forms by state elimination, and sound bounds over parameter regions.

Every chain value, concrete (check_mc), parametric (the closed forms), boxed
(region_bounds) or sampled (the evaluators), is one query on one frame:
  - _query decides from the graph of possibly-positive edges alone which
    states are uncertain (U) and which value the graph already settles at
    the initial state (1 or 0 for reach-avoid; 0 at a goal or INFINITE when
    the goal may be missed, for expected reward);
  - _system builds x = A x + c over U in any value field (Fractions,
    rational functions, or edge numbers for the float evaluator):
    A holds the edges inside U, c the state rewards plus the edges into
    `one`, the value-1 states outside U. The region bounds solve one such
    system per interval allocation, in _policy_iterate;
  - _elimination_graph turns (rows, c) into the weights that _eliminate
    works on, with c as one sink column, for solve_exact and the closed
    forms alike.
The MDP optima and _avoiders decide their own value-1 states (by _prob1e
and a fixpoint) and stay outside this frame. An exact value at a point reads
the one models.apply_instantiation pass: ExactPmcEvaluator solves its
cached query over the instantiated rows where the point is graph-preserving
and check_mc the instantiated chain anywhere else; both evaluators count
that fallback as a recompute.

Every value is exact, in Fractions end to end: sparse state elimination
for linear systems (the same step that builds the closed forms), and one
policy iteration engine, _policy_iterate, for the MDP optima and for the
robust region bounds, where the greedy interval allocation is the one
choice per state. Floats live only in FloatPmcEvaluator, which ranks the
swarm's candidates: it evaluates a whole matrix of parameter vectors at
once, one term-table pass for all edges and one stacked dense solve, in
blocks of at most SOLVE_BLOCK_BYTES, and takes the exact path at a
boundary point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._kernels import TermTable
from .models import (
    EXPECTED_REWARD,
    INFINITE,
    Instantiation,
    Mc,
    Mdp,
    ModelError,
    PmcT,
    REACH_AVOID,
    Specification,
    WellDefinedness,
    apply_instantiation,
    is_infinite,
)
from .polynomials import RF_ZERO, Polynomial, RationalFunction

# byte budget of one stacked (rows x n x n) block of float evaluation solves
SOLVE_BLOCK_BYTES = 2 ** 21


# ---------------------------------------------------------------------------
# qualitative sets


@dataclass(frozen=True)
class QualitativeSets:
    s_zero: frozenset
    s_one: frozenset


def qualitative_precompute(graph, goal, bad) -> QualitativeSets:
    """Value-0 and value-1 states for reach-avoid, from the graph of
    possibly-positive edges only.

    s_zero: cannot reach goal while avoiding bad. s_one: cannot reach s_zero
    before goal (goal treated as absorbing), hence value 1 in every chain
    with exactly this support.
    """
    goal = set(goal)
    bad = set(bad)
    rev = {s: [] for s in graph}
    for s, succs in graph.items():
        for t in succs:
            rev.setdefault(t, []).append(s)
    reach = set(goal)
    stack = list(goal)
    while stack:
        t = stack.pop()
        for s in rev.get(t, ()):
            if s not in reach and s not in bad:
                reach.add(s)
                stack.append(s)
    s_zero = frozenset(s for s in graph if s not in reach)
    lose = set(s_zero)
    stack = list(lose)
    while stack:
        t = stack.pop()
        for s in rev.get(t, ()):
            if s not in lose and s not in goal:
                lose.add(s)
                stack.append(s)
    s_one = frozenset(s for s in graph if s not in lose)
    return QualitativeSets(s_zero, s_one)


def _reachable(graph, start, absorbing=frozenset()):
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        if s in absorbing:
            continue
        for t in graph.get(s, ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


class _Query(NamedTuple):
    value: object   # what the graph alone settles at the initial state, or None
    U: list         # the uncertain states
    one: frozenset  # the value-1 states outside U


def _query(graph, initial, goal, bad, reward) -> _Query:
    """One chain question, reach-avoid or (reward) expected reward until
    goal, as far as the graph of possibly-positive edges decides it.

    Reach: the value is 1 or 0 when the initial state is in s_one or
    s_zero; otherwise U is every state outside both, in graph order, and
    `one` is s_one. Reward: the value is 0 at a goal state and INFINITE when
    the initial state is not in s_one of plain reach (the goal is missed
    with positive probability); otherwise U is the non-goal states that the
    initial one reaches before the goal, ascending, and `one` is empty.
    """
    if reward:
        if initial in goal:
            return _Query(Fraction(0), [], frozenset())
        if initial not in qualitative_precompute(graph, goal, ()).s_one:
            return _Query(INFINITE, [], frozenset())
        relevant = _reachable(graph, initial, absorbing=goal)
        return _Query(None, [s for s in sorted(relevant) if s not in goal], frozenset())
    q = qualitative_precompute(graph, goal, bad)
    if initial in q.s_one:
        return _Query(Fraction(1), [], q.s_one)
    if initial in q.s_zero:
        return _Query(Fraction(0), [], q.s_one)
    return _Query(None, [s for s in graph if s not in q.s_one and s not in q.s_zero],
                  q.s_one)


def _system(query, idx, row, reward, lift):
    """x = A x + c over query.U, idx numbering U. row(s) gives the
    (successor, entry) pairs of s and lift maps an entry into the value
    field. rows[i] holds the lifted entries into U; c[i] starts at
    reward(s), already lifted, and adds the entries into query.one in row
    order."""
    rows = []
    c = []
    for s in query.U:
        out = {}
        acc = reward(s)
        for t, p in row(s):
            if t in idx:
                out[idx[t]] = lift(p)
            elif t in query.one:
                acc += lift(p)
        rows.append(out)
        c.append(acc)
    return rows, c


def _same(p):
    return p


# ---------------------------------------------------------------------------
# linear solving


# sink columns of elimination: _GOOD holds constant terms and the merged
# value-one states, _REWARD the state rewards of reward closed forms. Only
# _GOOD counts toward the degree order; counting _REWARD as well lengthened
# reward forms on random models.
_GOOD = -1
_REWARD = -2


def solve_exact(rows, c):
    """Solve x = A x + c in Fractions. rows[i]: {j: a_ij} over 0..n-1, with A
    substochastic (nonnegative, rows summing to at most one).

    Sparse state elimination (the same _eliminate step as the closed forms):
    c is a sink column, pivots go in min in*out degree order, and each
    eliminated row is kept for the back-substitution. I - A is then an
    M-matrix, so every pivot 1 - a_ss of a nonsingular system is positive; a
    zero pivot means the system is singular.
    """
    n = len(c)
    w, preds = _elimination_graph(
        [{j: Fraction(a) for j, a in row.items()} for row in rows],
        [Fraction(v) for v in c], _GOOD)
    eliminated = []
    try:
        for s in _pick_elimination_order(w, preds, range(n), "degree"):
            eliminated.append((s, _eliminate(w, preds, s)))
    except ZeroDivisionError:
        raise ModelError("singular linear system") from None
    x = [Fraction(0)] * n
    for s, out in reversed(eliminated):
        acc = Fraction(0)
        for t, v in out:
            acc += v if t == _GOOD else v * x[t]
        x[s] = acc
    return x


def _elimination_graph(rows, c, sink):
    """The weights _eliminate works on for x = A x + c: w[i] is row i over
    0..n-1 with c[i] in the sink column, zero entries left out, and preds[j]
    the rows with an entry in column j."""
    w = {}
    preds = {i: set() for i in range(len(c))}
    preds[sink] = set()
    for i, row in enumerate(rows):
        w[i] = out = {j: a for j, a in row.items() if a}
        if c[i]:
            out[sink] = c[i]
        for j in out:
            preds[j].add(i)
    return w, preds


# ---------------------------------------------------------------------------
# Markov chain values


def _mc_value(mc, goal, bad, reward):
    q = _query(_pmc_graph(mc), mc.initial, goal, bad, reward)
    if q.value is not None:
        return q.value
    rewards = mc.rewards if reward else {}
    idx = {s: i for i, s in enumerate(q.U)}
    rows, c = _system(q, idx, lambda s: mc.row(s).items(),
                      lambda s: rewards.get(s, Fraction(0)), _same)
    return solve_exact(rows, c)[idx[mc.initial]]


def reach_avoid_prob(mc: Mc, goal=None, bad=None):
    """Probability of reaching goal while avoiding bad, from the initial
    state, as a Fraction."""
    goal = mc.goal if goal is None else frozenset(goal)
    bad = mc.bad if bad is None else frozenset(bad)
    return _mc_value(mc, goal, bad, False)


def expected_reward(mc: Mc, goal=None):
    """Expected accumulated reward until goal; infinite when the goal is
    reached with probability below one."""
    return _mc_value(mc, mc.goal if goal is None else frozenset(goal), (), True)


def _spec_bad(model, spec):
    # a spec without an avoid label reads the plain reach probability
    return model.bad if spec.bad_label is not None else frozenset()


def _spec_query(d: PmcT, spec: Specification) -> _Query:
    return _query(_pmc_graph(d), d.initial, d.goal, _spec_bad(d, spec),
                  spec.kind == EXPECTED_REWARD)


def check_mc(mc: Mc, spec: Specification):
    return _mc_value(mc, mc.goal, _spec_bad(mc, spec), spec.kind == EXPECTED_REWARD)


# ---------------------------------------------------------------------------
# MDP optima (exact policy iteration)


@dataclass
class MdpResult:
    value: object
    strategy: dict = field(default_factory=dict)


def _mdp_any_graph(mdp):
    g = {s: set() for s in mdp.states}
    for (s, _a), row in mdp.trans.items():
        g[s].update(row)
    return g


def _prob1e(mdp: Mdp, goal, bad):
    """States with SOME strategy reaching goal almost surely while avoiding
    bad, plus a witness action per state (standard nested fixpoint)."""
    goal = set(goal)
    X = set(mdp.states) - set(bad)
    witness = {}
    while True:
        Y = set(g for g in goal if g in X)
        w = {}
        grew = True
        while grew:
            grew = False
            for s in X - Y:
                for a in mdp.actions(s):
                    row = mdp.trans[(s, a)]
                    if all(t in X for t in row) and any(t in Y for t in row):
                        Y.add(s)
                        w[s] = a
                        grew = True
                        break
        if Y == X:
            witness = w
            break
        X = Y
    return frozenset(X), witness


def _proper_initial_policy(U, known, choices, dist):
    """Pick a choice among choices(s) for every U state so that it leaks
    toward `known` (assignment by backward layers): some successor with
    positive probability under dist(s, choice) is known or already
    assigned. The induced system is then nonsingular."""
    policy = {}
    settled = set(known)
    unassigned = set(U)
    while unassigned:
        progress = False
        for s in list(unassigned):
            for ch in choices(s):
                if any(p and t in settled for t, p in dist(s, ch).items()):
                    policy[s] = ch
                    unassigned.discard(s)
                    settled.add(s)
                    progress = True
                    break
        if not progress:
            raise ModelError("no proper policy exists on the uncertain states")
    return policy


def _policy_iterate(U, policy, choices, dist, boundary, reward, better):
    """Exact policy iteration (Howard) on the states U, from `policy`.

    Each round solves x = A x + c for the current choices, then switches a
    state to its best candidate among choices(s, val) only where that is
    strictly better than the state's current value; ties keep the first.
    dist(s, ch) gives the successor distribution {t: p} of a choice,
    boundary(t) the fixed value of a state outside U, reward(s, ch) the
    constant term, and better(a, b) is a strict comparison. From a proper
    policy every strict improvement stays proper, so each system is
    nonsingular; a reward maximum needs that no choice can trap mass in U
    (callers return INFINITE first, see _avoiders). Returns the values on
    U and the policy, updated in place.
    """
    idx = {s: i for i, s in enumerate(U)}
    x = {}

    def val(t):
        return x[t] if t in idx else boundary(t)

    while True:
        rows = []
        c = []
        for s in U:
            ch = policy[s]
            row = {}
            acc = reward(s, ch)
            for t, p in dist(s, ch).items():
                if t in idx:
                    row[idx[t]] = p
                else:
                    acc += p * boundary(t)
            rows.append(row)
            c.append(acc)
        x = dict(zip(U, solve_exact(rows, c)))
        switched = False
        for s in U:
            best, best_q = policy[s], x[s]
            for ch in choices(s, val):
                if ch == policy[s]:
                    continue
                q = reward(s, ch) + sum(p * val(t) for t, p in dist(s, ch).items())
                if better(q, best_q):
                    best, best_q = ch, q
            if best != policy[s]:
                policy[s] = best
                switched = True
        if not switched:
            return x, policy


def _avoiders(graph, goal, stays):
    """States from which some strategy keeps away from goal forever with
    positive probability: those that can reach, avoiding goal, the greatest
    set Z outside goal in which every state has a choice staying inside Z
    (stays(s, Z)). The maximal expected reward is infinite there."""
    Z = set(graph) - set(goal)
    while True:
        keep = {s for s in Z if stays(s, Z)}
        if keep == Z:
            break
        Z = keep
    return set(graph) - qualitative_precompute(graph, Z, goal).s_zero


def mdp_optimal(mdp: Mdp, spec: Specification) -> MdpResult:
    """Optimal value of the fully observable MDP: max reach-avoid
    probability, or min/max expected reward, with a memoryless deterministic
    strategy on the states where the choice matters. Exact."""
    if spec.kind == REACH_AVOID:
        return _mdp_max_reach(mdp, mdp.goal, _spec_bad(mdp, spec))
    if spec.opt == "min":
        return _mdp_min_reward(mdp, mdp.goal)
    return _mdp_max_reward(mdp, mdp.goal)


def _zero(*_args):
    return Fraction(0)


def _mdp_max_reach(mdp, goal, bad):
    s_zero = qualitative_precompute(_mdp_any_graph(mdp), goal, bad).s_zero
    s_one, witness = _prob1e(mdp, goal, bad)
    if mdp.initial in s_one:
        return MdpResult(Fraction(1), dict(witness))
    if mdp.initial in s_zero:
        return MdpResult(Fraction(0), dict(witness))
    U = [s for s in mdp.states if s not in s_one and s not in s_zero]
    start = _proper_initial_policy(U, s_one | s_zero, mdp.actions, mdp.row)
    x, policy = _policy_iterate(
        U, start, lambda s, _val: mdp.actions(s), mdp.row,
        lambda t: Fraction(1) if t in s_one else Fraction(0), _zero, operator.gt)
    strategy = dict(witness)
    strategy.update(policy)
    return MdpResult(x[mdp.initial], strategy)


def _mdp_reward(mdp):
    return lambda s, a: mdp.rewards.get((s, a), Fraction(0))


def _mdp_min_reward(mdp, goal):
    p1e, _witness = _prob1e(mdp, goal, ())
    if mdp.initial not in p1e:
        return MdpResult(INFINITE, {})
    if mdp.initial in goal:
        return MdpResult(Fraction(0), {})

    def acts(s):
        # actions leaving the almost-sure set risk infinite cost
        return [a for a in mdp.actions(s)
                if all(t in p1e for t in mdp.trans[(s, a)])]

    U = [s for s in mdp.states if s in p1e and s not in goal]
    start = _proper_initial_policy(U, goal, acts, mdp.row)
    x, policy = _policy_iterate(U, start, lambda s, _val: acts(s), mdp.row,
                                _zero, _mdp_reward(mdp), operator.lt)
    return MdpResult(x[mdp.initial], policy)


def _mdp_max_reward(mdp, goal):
    if mdp.initial in goal:
        return MdpResult(Fraction(0), {})
    graph = _mdp_any_graph(mdp)

    def stays(s, Z):
        return any(all(t in Z for t in mdp.trans[(s, a)]) for a in mdp.actions(s))

    if mdp.initial in _avoiders(graph, goal, stays):
        return MdpResult(INFINITE, {})
    relevant = _reachable(graph, mdp.initial, absorbing=goal)
    U = [s for s in sorted(relevant) if s not in goal]
    # every strategy reaches the goal almost surely here, so any start is proper
    x, policy = _policy_iterate(U, {s: mdp.actions(s)[0] for s in U},
                                lambda s, _val: mdp.actions(s), mdp.row,
                                _zero, _mdp_reward(mdp), operator.gt)
    return MdpResult(x[mdp.initial], policy)


# ---------------------------------------------------------------------------
# state elimination (closed forms)


def _pmc_graph(d):
    """Successors of every state of a pMC or a chain."""
    return {s: tuple(d.row(s)) for s in d.states}


def _pick_elimination_order(w, preds, candidates, order):
    if order == "sequential":
        ordered = sorted(candidates)
        while ordered:
            yield ordered.pop(0)
        return
    remaining = set(candidates)

    def degree(s):
        # in*out degree, self-loops left out; ties go to the lowest id
        ins = len(preds[s]) - (s in preds[s])
        outs = len(w[s]) - (s in w[s]) - (_REWARD in w[s])
        return ins * outs, s

    while remaining:
        best = min(remaining, key=degree)
        remaining.discard(best)
        yield best


def _eliminate(w, preds, s):
    """Remove state s by rerouting every pred -> s -> succ through
    1/(1 - selfloop). Generic over the value field (Fraction or
    RationalFunction); returns s's rerouted row [(succ, value)], which
    refers only to states still present."""
    loop = w[s].pop(s, None)
    if loop is not None:
        preds[s].discard(s)
        inv = 1 / (1 - loop)
        out = [(t, inv * wst) for t, wst in w[s].items()]
    else:
        out = list(w[s].items())
    for t, _ in out:
        preds[t].discard(s)
    for p in list(preds[s]):
        wps = w[p].pop(s)
        for t, wst in out:
            if t in w[p]:
                w[p][t] = w[p][t] + wps * wst
            else:
                w[p][t] = wps * wst
                preds[t].add(p)
    del w[s]
    preds[s] = set()
    return out


def _closed_form(d: PmcT, q: _Query, reward, order) -> RationalFunction:
    """Eliminate every uncertain state but the initial one from x = A x + c
    over q.U in rational functions; the value is the initial row's sink entry
    over 1 - its loop. The states go by their index in U, which follows the
    state order, so degree-order ties go to the lowest state."""
    if q.value is not None:
        return RationalFunction.constant(q.value)
    sink = _REWARD if reward else _GOOD
    rewards = d.rewards if reward else {}
    idx = {s: i for i, s in enumerate(q.U)}
    rows, c = _system(q, idx, lambda s: d.row(s).items(),
                      lambda s: RationalFunction(rewards.get(s, Polynomial())),
                      RationalFunction)
    w, preds = _elimination_graph(rows, c, sink)
    initial = idx[d.initial]
    for s in _pick_elimination_order(w, preds, [s for s in w if s != initial], order):
        _eliminate(w, preds, s)
    row = w[initial]
    value = row.get(sink, RF_ZERO)
    loop = row.get(initial)
    return value if loop is None else value / (1 - loop)


def state_eliminate(d: PmcT, goal=None, bad=None, order="degree") -> RationalFunction:
    """Closed-form reach-avoid probability as a rational function over the
    parameters, valid at every graph-preserving well-defined valuation.

    States other than the initial one are eliminated by rerouting
    pred -> s -> succ through 1/(1 - selfloop); edges into the value-one
    states merge into one sink column. order is the in*out degree heuristic
    or plain ascending ids."""
    goal = d.goal if goal is None else frozenset(goal)
    bad = d.bad if bad is None else frozenset(bad)
    return _closed_form(d, _query(_pmc_graph(d), d.initial, goal, bad, False), False, order)


def state_eliminate_reward(d: PmcT, goal=None, order="degree") -> RationalFunction:
    """Closed-form expected reward until goal. Requires that every
    graph-preserving valuation reaches the goal almost surely (a property of
    the graph alone); otherwise the value is infinite everywhere and no
    rational function exists. The state rewards form the sink column."""
    goal = d.goal if goal is None else frozenset(goal)
    q = _query(_pmc_graph(d), d.initial, goal, (), True)
    if is_infinite(q.value):
        raise ModelError(
            "expected reward diverges on the graph-preserving region "
            "(goal missed with positive probability)"
        )
    return _closed_form(d, q, True, order)


# ---------------------------------------------------------------------------
# regions and interval relaxation


class Region:
    """Axis-aligned box of parameter values, strictly inside (0, 1)."""

    def __init__(self, intervals):
        self.intervals = {}
        for name, (lo, hi) in intervals.items():
            lo = Fraction(lo)
            hi = Fraction(hi)
            if not (0 < lo <= hi < 1):
                raise ModelError(
                    "interval [%s, %s] for %s must satisfy 0 < lo <= hi < 1"
                    % (lo, hi, name)
                )
            self.intervals[name] = (lo, hi)

    def __contains__(self, name):
        return name in self.intervals

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return self.intervals == other.intervals

    def __repr__(self):
        inner = ", ".join("%s:[%s,%s]" % (n, lo, hi)
                          for n, (lo, hi) in sorted(self.intervals.items()))
        return "Region(%s)" % inner

    def contains_point(self, u) -> bool:
        for name, (lo, hi) in self.intervals.items():
            if name not in u:
                return False
            v = u[name]
            if v < lo or v > hi:
                return False
        return True

    def widest(self):
        name = max(sorted(self.intervals),
                   key=lambda n: self.intervals[n][1] - self.intervals[n][0])
        return name, self.intervals[name][1] - self.intervals[name][0]

    def split(self):
        if not self.intervals:
            raise ModelError("cannot split a point region")
        name, width = self.widest()
        if width == 0:
            raise ModelError("cannot split a point region")
        lo, hi = self.intervals[name]
        mid = (lo + hi) / 2
        left = dict(self.intervals)
        right = dict(self.intervals)
        left[name] = (lo, mid)
        right[name] = (mid, hi)
        return Region(left), Region(right)

    def sample(self, rng) -> dict:
        out = {}
        for name, (lo, hi) in sorted(self.intervals.items()):
            t = Fraction(rng.randrange(0, 10 ** 9 + 1), 10 ** 9)
            out[name] = lo + (hi - lo) * t
        return out


def _poly_interval(poly: Polynomial, intervals):
    """Exact range bound of a polynomial over the box via per-term interval
    arithmetic; exact when no variable occurs in two terms (flagged)."""
    lo = Fraction(0)
    hi = Fraction(0)
    seen = {}
    exact = True
    for mono, c in poly.terms.items():
        plo = Fraction(1)
        phi = Fraction(1)
        for name, e in mono:
            l, h = intervals[name]
            plo *= l ** e
            phi *= h ** e
            if name in seen:
                exact = False
            seen[name] = True
        if c > 0:
            lo += c * plo
            hi += c * phi
        else:
            lo += c * phi
            hi += c * plo
    return lo, hi, exact


@dataclass
class RegionBounds:
    lower: object
    upper: object
    tight: bool
    graph_preserving: bool


def _edge_intervals(d: PmcT, region: Region):
    for name in d.params.names:
        if name not in region:
            raise ModelError("region gives no interval for parameter %r" % name)
    tight = preserving = True
    table = {}
    for s in d.states:
        entries = []
        lo_sum = Fraction(0)
        hi_sum = Fraction(0)
        for t, poly in d.row(s).items():
            lo, hi, exact = _poly_interval(poly, region.intervals)
            if lo <= 0 and not poly.is_constant():
                preserving = False
            lo = max(lo, Fraction(0))
            hi = min(hi, Fraction(1))
            if lo > hi:
                raise ModelError(
                    "edge (%d,%d) has empty value range over the region" % (s, t))
            if not exact:
                tight = False
            entries.append((t, lo, hi))
            lo_sum += lo
            hi_sum += hi
        if lo_sum > 1 or hi_sum < 1:
            raise ModelError(
                "row of state %d cannot sum to 1 anywhere in the region" % s)
        entries.sort()
        table[s] = entries
    # decoupling across rows is the lossy step: only single-row parameters
    # keep the relaxation tight
    rows_of = {}
    for s in d.states:
        for _t, poly in d.row(s).items():
            for name in poly.variables():
                rows_of.setdefault(name, set()).add(s)
    if any(len(rs) > 1 for rs in rows_of.values()):
        tight = False
    if not d.rows_in_simple_form():
        tight = False
    return table, tight, preserving


def _greedy_allocation(entries, val_of, maximize):
    """Distribution over successors inside the per-edge intervals that
    optimizes the expected value; classic water-filling, exact."""
    alloc = {t: lo for t, lo, _hi in entries}
    remaining = Fraction(1) - sum(alloc.values())
    if maximize:
        order = sorted(entries, key=lambda e: (-val_of(e[0]), e[0]))
    else:
        order = sorted(entries, key=lambda e: (val_of(e[0]), e[0]))
    for t, lo, hi in order:
        if remaining <= 0:
            break
        take = min(hi - lo, remaining)
        alloc[t] += take
        remaining -= take
    return alloc


def _robust_values(table, U, known, boundary, reward, maximize):
    """Optimum over the interval relaxation on U: policy iteration whose one
    candidate per state is the greedy allocation at the current values
    (interval-MDP policy iteration, Nilim & El Ghaoui 2005). It starts from
    a proper allocation: each state pours its free mass first into one
    successor, tried in order until that successor leaks toward `known`."""
    def pour_first(s):
        for t, _lo, _hi in table[s]:
            yield _greedy_allocation(table[s], lambda u: int(u == t), True)

    def dist(_s, alloc):
        return alloc

    start = _proper_initial_policy(U, known, pour_first, dist)
    return _policy_iterate(
        U, start, lambda s, val: [_greedy_allocation(table[s], val, maximize)],
        dist, boundary, reward, operator.gt if maximize else operator.lt)[0]


def _robust_value(d, table, q, maximize, region, reward):
    if q.value is not None:
        return q.value
    rbound = dict.fromkeys(q.U, Fraction(0))
    if reward:
        def stays(s, Z):
            # some allocation keeps all mass in Z: every edge leaving Z may be
            # zero and the edges into Z can carry the whole row
            return (all(lo == 0 for t, lo, _hi in table[s] if t not in Z)
                    and sum(hi for t, _lo, hi in table[s] if t in Z) >= 1)

        if maximize and d.initial in _avoiders(_pmc_graph(d), d.goal, stays):
            return INFINITE
        for s in q.U:
            poly = d.rewards.get(s)
            if poly is not None:
                lo, hi, _ = _poly_interval(poly, region.intervals)
                rbound[s] = max(hi if maximize else lo, Fraction(0))
    x = _robust_values(table, q.U, set(d.states).difference(q.U),
                       lambda t: Fraction(1) if t in q.one else Fraction(0),
                       lambda s, _alloc: rbound[s], maximize)
    return x[d.initial]


def region_bounds(d: PmcT, region: Region, spec: Specification) -> RegionBounds:
    """Sound lower/upper bounds on the spec value over every well-defined
    valuation inside the region, except that the lower reach bound holds at
    graph-preserving points only: the value-0 and value-1 states come from
    the graph of all edges, so at a point where an edge polynomial vanishes
    the value can fall below it. `graph_preserving` is set when every
    non-constant edge polynomial's interval bound has a lower end > 0, so
    that every point of the region is graph-preserving.

    Parameter dependencies are relaxed per row: each row may pick any
    successor distribution inside the per-edge interval box, optimized by
    exact robust policy iteration. `tight` marks instances (simple pMC,
    single-row parameters) where the relaxation provably loses nothing."""
    table, tight, preserving = _edge_intervals(d, region)
    q = _spec_query(d, spec)
    reward = spec.kind == EXPECTED_REWARD
    upper = _robust_value(d, table, q, True, region, reward)
    lower = _robust_value(d, table, q, False, region, reward)
    return RegionBounds(lower, upper, tight, preserving)


# ---------------------------------------------------------------------------
# absence proving


@dataclass
class AbsenceResult:
    no_fsc: bool
    bound: object
    regions_checked: int


def _bound_refutes(spec: Specification, lower, upper) -> bool:
    t = spec.threshold
    if spec.comparison == ">":
        return (not is_infinite(upper)) and upper <= t
    if spec.comparison == ">=":
        return (not is_infinite(upper)) and upper < t
    if spec.comparison == "<":
        return is_infinite(lower) or lower >= t
    return is_infinite(lower) or lower > t


def _dominance_bounds(d: PmcT, spec: Specification):
    """If the pMC records its source POMDP, the fully observable optimum
    bounds every controller value; fold it into the region bounds."""
    src = d.meta.get("pomdp")
    if src is None:
        return None
    key = "_mdp_bound_%s_%s" % (spec.kind, spec.opt)
    if key not in d.meta:
        d.meta[key] = mdp_optimal(src.mdp, spec).value
    return d.meta[key]


def prove_absence(d: PmcT, spec: Specification, region: Region,
                  max_depth: int = 0) -> AbsenceResult:
    """no-FSC verdict iff the sound bound already violates the threshold on
    the whole region (optionally after recursive splitting); otherwise
    inconclusive, reporting the bound that failed to refute."""
    dom = _dominance_bounds(d, spec)
    checked = 0

    def visit(reg: Region, depth: int):
        nonlocal checked
        checked += 1
        b = region_bounds(d, reg, spec)
        lower, upper = b.lower, b.upper
        if dom is not None:
            # fully observable optimum dominates every controller value
            if spec.kind == REACH_AVOID or spec.opt == "max":
                if dom < upper:
                    upper = dom
            else:
                if dom > lower:
                    lower = dom
        if _bound_refutes(spec, lower, upper):
            return True, (upper if spec.comparison in (">", ">=") else lower)
        if depth >= max_depth:
            return False, (upper if spec.comparison in (">", ">=") else lower)
        try:
            left, right = reg.split()
        except ModelError:
            return False, (upper if spec.comparison in (">", ">=") else lower)
        ok_l, b_l = visit(left, depth + 1)
        if not ok_l:
            return False, b_l
        ok_r, b_r = visit(right, depth + 1)
        if not ok_r:
            return False, b_r
        better = max if spec.comparison in (">", ">=") else min
        return True, better(b_l, b_r)

    ok, bound = visit(region, 0)
    return AbsenceResult(ok, bound, checked)


# ---------------------------------------------------------------------------
# cached evaluators


class _EvaluatorBase:
    """Shared skeleton: the query is decided once under graph-preserving
    semantics and reused; valuations that kill an edge fall back to a
    from-scratch analysis of the instantiated chain (counted in
    recompute_count)."""

    def __init__(self, d: PmcT, spec: Specification):
        self.d = d
        self.spec = spec
        self.recompute_count = 0
        self.query = _spec_query(d, spec)
        self.U = self.query.U
        self.idx = {s: i for i, s in enumerate(self.U)}

    def _fresh(self, res: WellDefinedness):
        self.recompute_count += 1
        if not res.well_defined:
            raise _ill_defined(res.defects)
        return check_mc(res.model, self.spec)


def _ill_defined(defects) -> ModelError:
    return ModelError("instantiation is not well-defined: " + "; ".join(defects[:4]))


class ExactPmcEvaluator(_EvaluatorBase):
    """Exact values at instantiations, with the qualitative precomputation
    cached across calls. Each call reads one apply_instantiation pass: an
    ill-defined point raises with its defects, a graph-preserving one is
    solved on the cached query over the instantiated rows, and any other
    point is analyzed afresh on the chain the pass built."""

    def evaluate(self, u):
        res = apply_instantiation(self.d, u)
        if not res.well_defined:
            raise _ill_defined(res.defects)
        if not res.graph_preserving:
            return self._fresh(res)
        if self.query.value is not None:
            return self.query.value
        mc = res.model
        rewards = mc.rewards if self.spec.kind == EXPECTED_REWARD else {}
        rows, c = _system(self.query, self.idx, lambda s: mc.row(s).items(),
                          lambda s: rewards.get(s, Fraction(0)), _same)
        return solve_exact(rows, c)[self.idx[self.d.initial]]


class FloatPmcEvaluator(_EvaluatorBase):
    """Fast float values for search loops: term-table edge evaluation plus
    a dense solve on the cached uncertain-state system, for one parameter
    vector or a whole matrix of them. The caller guarantees
    well-definedness (the swarm parameterization does); boundary valuations
    take the counted exact path at the point's decimal repr.
    """

    def __init__(self, d: PmcT, spec: Specification):
        super().__init__(d, spec)
        self.param_order = list(d.params.names)
        pidx = {n: i for i, n in enumerate(self.param_order)}
        edges = [(s, t, p) for s in d.states for t, p in d.row(s).items()]
        self.table = TermTable([p for (_s, _t, p) in edges], pidx)
        self.nonconst_idx = np.asarray([e for e, (_s, _t, p) in enumerate(edges)
                                        if not p.is_constant()], dtype=np.intp)
        # the system over U with edge numbers for entries: A becomes (row,
        # column, edge) triples, c the edges each row sums in edge order
        numbered = {}
        for e, (s, t, _p) in enumerate(edges):
            numbered.setdefault(s, []).append((t, (e,)))
        rows, c = _system(self.query, self.idx, numbered.__getitem__, lambda s: (), _same)
        self.a_rows = np.asarray([i for i, row in enumerate(rows) for _ in row], dtype=np.intp)
        self.a_cols = np.asarray([j for row in rows for j in row], dtype=np.intp)
        self.a_edges = np.asarray([e for row in rows for (e,) in row.values()], dtype=np.intp)
        self.c_rows = np.asarray([i for i, es in enumerate(c) for _ in es], dtype=np.intp)
        self.c_edges = np.asarray([e for es in c for e in es], dtype=np.intp)
        if self.spec.kind == EXPECTED_REWARD:
            polys = [self.d.rewards.get(s, Polynomial()) for s in self.U]
            self.reward_table = TermTable(polys, pidx)

    def evaluate(self, u):
        if not isinstance(u, Instantiation):
            u = Instantiation(u)
        x = np.empty(len(self.param_order))
        for i, name in enumerate(self.param_order):
            x[i] = float(u[name])
        return self.evaluate_vector(x, u)

    def evaluate_vector(self, x, u=None):
        """Value at a float vector ordered like d.params.names, or an array
        of values, one per row of a (points x params) matrix.

        Rows with a non-constant edge at zero or below take the counted
        from-scratch path one by one, in row order; the others share one
        stacked dense solve. Each row's value equals a lone evaluation of
        that row bit for bit.
        """
        X = np.asarray(x, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[np.newaxis]
        vals = self.table.evaluate(X)
        out = np.empty(len(X))
        boundary = np.any(vals[:, self.nonconst_idx] <= 0.0, axis=1)
        for i in np.flatnonzero(boundary):
            ui = u if single and u is not None else Instantiation(
                {n: float(v) for n, v in zip(self.param_order, X[i])})
            out[i] = float(self._fresh(apply_instantiation(self.d, ui)))
        inner = np.flatnonzero(~boundary)
        if self.query.value is not None:
            out[inner] = float(self.query.value)
        elif inner.size:
            out[inner] = self._solve(X[inner], vals[inner])
        return float(out[0]) if single else out

    def _solve(self, X, vals) -> np.ndarray:
        """Initial-state values of (I - A) y = c for every row, stacked into
        blocks of at most SOLVE_BLOCK_BYTES. I - A is built in place: the
        identity, minus the edge values; c by ordered accumulation, as
        np.add.at does for a single row."""
        n = len(self.U)
        diag = np.arange(n)
        init = self.idx[self.d.initial]
        step = max(1, SOLVE_BLOCK_BYTES // (8 * n * n))
        out = np.empty(len(X))
        for lo in range(0, len(X), step):
            hi = min(lo + step, len(X))
            M = np.zeros((hi - lo, n, n))
            M[:, diag, diag] = 1.0
            M[:, self.a_rows, self.a_cols] -= vals[lo:hi, self.a_edges]
            if self.spec.kind == REACH_AVOID:
                c = np.zeros((hi - lo, n))
                np.add.at(c, (slice(None), self.c_rows), vals[lo:hi, self.c_edges])
            else:
                c = self.reward_table.evaluate(X[lo:hi])
            sol = np.linalg.solve(M, c[..., np.newaxis])
            out[lo:hi] = sol[:, init, 0]
        return out
