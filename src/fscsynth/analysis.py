"""Quantitative analysis: chain/MDP model checking, qualitative sets,
closed forms by state elimination, and sound bounds over parameter regions.

Exact mode works in Fractions end to end: sparse state elimination for
linear systems (the same step that builds the closed forms), and one policy
iteration engine, _policy_iterate, for the MDP optima and for the robust
region bounds, where the greedy interval allocation is the one choice per
state. Float mode assembles the same systems in numpy and solves them
densely. FloatPmcEvaluator evaluates a whole matrix of parameter vectors at
once: one term-table pass for all edges and one stacked dense solve, in
blocks of at most SOLVE_BLOCK_BYTES.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

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
    apply_instantiation,
    is_infinite,
)
from .polynomials import RF_ONE, RF_ZERO, Polynomial, RationalFunction

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
    w = {}
    preds = {i: set() for i in range(n)}
    preds[_GOOD] = set()
    for i in range(n):
        row = {j: Fraction(a) for j, a in rows[i].items() if a}
        if c[i]:
            row[_GOOD] = Fraction(c[i])
        w[i] = row
        for j in row:
            preds[j].add(i)
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


def solve_float(rows, c):
    """Float companion of solve_exact: one dense solve. Float values only
    rank candidates; every verdict is certified exactly."""
    n = len(c)
    if n == 0:
        return np.zeros(0)
    A = np.zeros((n, n))
    for i in range(n):
        for j, a in rows[i].items():
            A[i, j] += float(a)
    return np.linalg.solve(np.eye(n) - A, np.asarray([float(v) for v in c]))


# ---------------------------------------------------------------------------
# Markov chain values


def _mc_graph(mc):
    return {s: tuple(mc.row(s)) for s in mc.states}


def _reach_system(mc, idx, q):
    rows = []
    c = []
    for s in idx:
        row = {}
        acc = Fraction(0) if mc.exact else 0.0
        for t, p in mc.row(s).items():
            if t in q.s_one:
                acc += p
            elif t in idx:
                row[idx[t]] = p
        rows.append(row)
        c.append(acc)
    return rows, c


def reach_avoid_prob(mc: Mc, goal=None, bad=None):
    """Probability of reaching goal while avoiding bad, from the initial
    state. Exact (Fraction) or float, following the chain's entry type."""
    goal = mc.goal if goal is None else frozenset(goal)
    bad = mc.bad if bad is None else frozenset(bad)
    q = qualitative_precompute(_mc_graph(mc), goal, bad)
    if mc.initial in q.s_one:
        return Fraction(1) if mc.exact else 1.0
    if mc.initial in q.s_zero:
        return Fraction(0) if mc.exact else 0.0
    idx = {s: i for i, s in enumerate(
        s for s in mc.states if s not in q.s_zero and s not in q.s_one)}
    rows, c = _reach_system(mc, idx, q)
    if mc.exact:
        return solve_exact(rows, c)[idx[mc.initial]]
    return float(solve_float(rows, c)[idx[mc.initial]])


def expected_reward(mc: Mc, goal=None):
    """Expected accumulated reward until goal; infinite when the goal is
    reached with probability below one."""
    goal = mc.goal if goal is None else frozenset(goal)
    if mc.initial in goal:
        return Fraction(0) if mc.exact else 0.0
    graph = _mc_graph(mc)
    q = qualitative_precompute(graph, goal, ())
    if mc.initial not in q.s_one:
        return INFINITE if mc.exact else math.inf
    relevant = _reachable(graph, mc.initial, absorbing=goal)
    idx = {s: i for i, s in enumerate(s for s in sorted(relevant) if s not in goal)}
    rows = []
    c = []
    zero = Fraction(0) if mc.exact else 0.0
    for s in idx:
        row = {}
        for t, p in mc.row(s).items():
            if t not in goal:
                row[idx[t]] = p
        rows.append(row)
        c.append(mc.rewards.get(s, zero))
    if mc.exact:
        return solve_exact(rows, c)[idx[mc.initial]]
    return float(solve_float(rows, c)[idx[mc.initial]])


def _spec_bad(model, spec):
    # a spec without an avoid label reads the plain reach probability
    return model.bad if spec.bad_label is not None else frozenset()


def check_mc(mc: Mc, spec: Specification):
    if spec.kind == REACH_AVOID:
        return reach_avoid_prob(mc, bad=_spec_bad(mc, spec))
    return expected_reward(mc)


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


def _pmc_graph(d: PmcT):
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


def _eliminate_to_initial(w, preds, U, initial, order, sink):
    """Eliminate every state of U but the initial one from w; the value is
    the initial row's sink entry over 1 - its loop."""
    for s in _pick_elimination_order(w, preds, [s for s in U if s != initial], order):
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
    q = qualitative_precompute(_pmc_graph(d), goal, bad)
    if d.initial in q.s_one:
        return RF_ONE
    if d.initial in q.s_zero:
        return RF_ZERO
    U = [s for s in d.states if s not in q.s_one and s not in q.s_zero]
    w = {}
    preds = {s: set() for s in U}
    preds[_GOOD] = set()
    for s in U:
        row = {}
        for t, poly in d.row(s).items():
            if t in q.s_one:
                row[_GOOD] = row.get(_GOOD, RF_ZERO) + RationalFunction(poly)
            elif t not in q.s_zero:
                row[t] = RationalFunction(poly)
        w[s] = row
        for t in row:
            preds[t].add(s)
    return _eliminate_to_initial(w, preds, U, d.initial, order, _GOOD)


def state_eliminate_reward(d: PmcT, goal=None, order="degree") -> RationalFunction:
    """Closed-form expected reward until goal. Requires that every
    graph-preserving valuation reaches the goal almost surely (a property of
    the graph alone); otherwise the value is infinite everywhere and no
    rational function exists. The state rewards form the sink column."""
    goal = d.goal if goal is None else frozenset(goal)
    graph = _pmc_graph(d)
    if d.initial in goal:
        return RF_ZERO
    q = qualitative_precompute(graph, goal, ())
    relevant = _reachable(graph, d.initial, absorbing=goal)
    if any(s not in q.s_one for s in relevant):
        raise ModelError(
            "expected reward diverges on the graph-preserving region "
            "(goal missed with positive probability)"
        )
    U = [s for s in sorted(relevant) if s not in goal]
    w = {}
    preds = {s: set() for s in U}
    preds[_REWARD] = set()
    for s in U:
        row = {}
        for t, poly in d.row(s).items():
            if t not in goal:
                row[t] = RationalFunction(poly)
        r = d.rewards.get(s)
        if r is not None and not r.is_zero():
            row[_REWARD] = RationalFunction(r)
        w[s] = row
        for t in row:
            preds[t].add(s)
    return _eliminate_to_initial(w, preds, U, d.initial, order, _REWARD)


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


def _edge_intervals(d: PmcT, region: Region):
    for name in d.params.names:
        if name not in region:
            raise ModelError("region gives no interval for parameter %r" % name)
    tight = True
    table = {}
    for s in d.states:
        entries = []
        lo_sum = Fraction(0)
        hi_sum = Fraction(0)
        for t, poly in d.row(s).items():
            lo, hi, exact = _poly_interval(poly, region.intervals)
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
    return table, tight


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


def _robust_prob(d, table, q, maximize):
    if d.initial in q.s_one:
        return Fraction(1)
    if d.initial in q.s_zero:
        return Fraction(0)
    U = [s for s in d.states if s not in q.s_one and s not in q.s_zero]
    x = _robust_values(table, U, q.s_one | q.s_zero,
                       lambda t: Fraction(1) if t in q.s_one else Fraction(0),
                       _zero, maximize)
    return x[d.initial]


def _robust_reward(d, table, goal, maximize, region):
    graph = _pmc_graph(d)
    if d.initial in goal:
        return Fraction(0)
    q = qualitative_precompute(graph, goal, ())
    relevant = _reachable(graph, d.initial, absorbing=goal)
    if any(s not in q.s_one for s in relevant):
        return INFINITE

    def stays(s, Z):
        # some allocation keeps all mass in Z: every edge leaving Z may be
        # zero and the edges into Z can carry the whole row
        return (all(lo == 0 for t, lo, _hi in table[s] if t not in Z)
                and sum(hi for t, _lo, hi in table[s] if t in Z) >= 1)

    if maximize and d.initial in _avoiders(graph, goal, stays):
        return INFINITE
    U = [s for s in sorted(relevant) if s not in goal]
    rbound = {}
    for s in U:
        poly = d.rewards.get(s)
        if poly is None:
            rbound[s] = Fraction(0)
        else:
            lo, hi, _ = _poly_interval(poly, region.intervals)
            rbound[s] = max(hi, Fraction(0)) if maximize else max(lo, Fraction(0))
    x = _robust_values(table, U, goal, _zero, lambda s, _alloc: rbound[s],
                       maximize)
    return x[d.initial]


def region_bounds(d: PmcT, region: Region, spec: Specification) -> RegionBounds:
    """Sound lower/upper bounds on the spec value over every well-defined
    valuation inside the region.

    Parameter dependencies are relaxed per row: each row may pick any
    successor distribution inside the per-edge interval box, optimized by
    exact robust policy iteration. `tight` marks instances (simple pMC,
    single-row parameters) where the relaxation provably loses nothing."""
    table, tight = _edge_intervals(d, region)
    if spec.kind == REACH_AVOID:
        q = qualitative_precompute(_pmc_graph(d), d.goal, _spec_bad(d, spec))
        upper = _robust_prob(d, table, q, True)
        lower = _robust_prob(d, table, q, False)
    else:
        upper = _robust_reward(d, table, d.goal, True, region)
        lower = _robust_reward(d, table, d.goal, False, region)
    return RegionBounds(lower, upper, tight)


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
    """Shared skeleton: qualitative sets are computed once under
    graph-preserving semantics and reused; valuations that kill an edge
    fall back to a from-scratch analysis (counted in recompute_count)."""

    def __init__(self, d: PmcT, spec: Specification):
        self.d = d
        self.spec = spec
        self.recompute_count = 0
        self.edges = []
        for s in d.states:
            for t, poly in d.row(s).items():
                self.edges.append((s, t, poly))
        self.nonconst = [i for i, (_s, _t, p) in enumerate(self.edges)
                         if not p.is_constant()]
        if spec.kind == REACH_AVOID:
            self.q = qualitative_precompute(_pmc_graph(d), d.goal,
                                            _spec_bad(d, spec))
            self.trivial = None
            if d.initial in self.q.s_one:
                self.trivial = 1
            elif d.initial in self.q.s_zero:
                self.trivial = 0
            self.U = [s for s in d.states
                      if s not in self.q.s_one and s not in self.q.s_zero]
        else:
            graph = _pmc_graph(d)
            q = qualitative_precompute(graph, d.goal, ())
            relevant = _reachable(graph, d.initial, absorbing=d.goal)
            self.diverges = any(s not in q.s_one for s in relevant)
            self.trivial = 0 if d.initial in d.goal else None
            self.U = [s for s in sorted(relevant) if s not in d.goal]
        self.idx = {s: i for i, s in enumerate(self.U)}

    def _fresh(self, u: Instantiation):
        self.recompute_count += 1
        res = apply_instantiation(self.d, u)
        if not res.well_defined:
            raise ModelError("instantiation is not well-defined: "
                             + "; ".join(res.defects[:4]))
        return check_mc(res.model, self.spec)


class ExactPmcEvaluator(_EvaluatorBase):
    """Exact values at rational instantiations, with the qualitative
    precomputation cached across calls."""

    def evaluate(self, u):
        if not isinstance(u, Instantiation):
            u = Instantiation(u)
        if not u.is_rational:
            raise ModelError("exact evaluation needs a rational instantiation")
        vals = {}
        boundary = False
        for i, (s, t, poly) in enumerate(self.edges):
            v = poly.evaluate(u.values) if not poly.is_constant() else poly.constant_value()
            if v < 0 or v > 1:
                raise ModelError(
                    "instantiation is not well-defined: entry (%d,%d) = %s" % (s, t, v))
            if v == 0 and not poly.is_constant():
                boundary = True
            vals[(s, t)] = v
        sums = {}
        for (s, _t), v in vals.items():
            sums[s] = sums.get(s, Fraction(0)) + v
        for s, total in sums.items():
            if total != 1:
                raise ModelError(
                    "instantiation is not well-defined: row %d sums to %s" % (s, total))
        if boundary:
            return self._fresh(u)
        if self.spec.kind == REACH_AVOID:
            if self.trivial is not None:
                return Fraction(self.trivial)
            rows = []
            c = []
            for s in self.U:
                row = {}
                acc = Fraction(0)
                for t in self.d.row(s):
                    v = vals[(s, t)]
                    if t in self.idx:
                        row[self.idx[t]] = v
                    elif t in self.q.s_one:
                        acc += v
                rows.append(row)
                c.append(acc)
            return solve_exact(rows, c)[self.idx[self.d.initial]]
        if self.diverges:
            return INFINITE
        if self.trivial is not None:
            return Fraction(self.trivial)
        rows = []
        c = []
        for s in self.U:
            row = {}
            for t in self.d.row(s):
                if t in self.idx:
                    row[self.idx[t]] = vals[(s, t)]
            rows.append(row)
            r = self.d.rewards.get(s)
            c.append(r.evaluate(u.values) if r is not None else Fraction(0))
        return solve_exact(rows, c)[self.idx[self.d.initial]]


class FloatPmcEvaluator(_EvaluatorBase):
    """Fast float values for search loops: term-table edge evaluation plus
    a dense solve on the cached uncertain-state system, for one parameter
    vector or a whole matrix of them. The caller guarantees
    well-definedness (the swarm parameterization does); boundary valuations
    take the counted slow path.
    """

    def __init__(self, d: PmcT, spec: Specification):
        super().__init__(d, spec)
        self.param_order = list(d.params.names)
        pidx = {n: i for i, n in enumerate(self.param_order)}
        self.table = TermTable([p for (_s, _t, p) in self.edges], pidx)
        self.nonconst_idx = np.asarray(self.nonconst, dtype=np.intp)
        # system skeleton over U
        a_rows, a_cols, a_edges = [], [], []
        c_rows, c_edges = [], []
        edge_pos = {(s, t): i for i, (s, t, _p) in enumerate(self.edges)}
        for s in self.U:
            for t in self.d.row(s):
                e = edge_pos[(s, t)]
                if t in self.idx:
                    a_rows.append(self.idx[s])
                    a_cols.append(self.idx[t])
                    a_edges.append(e)
                elif self.spec.kind == REACH_AVOID and t in self.q.s_one:
                    c_rows.append(self.idx[s])
                    c_edges.append(e)
        self.a_rows = np.asarray(a_rows, dtype=np.intp)
        self.a_cols = np.asarray(a_cols, dtype=np.intp)
        self.a_edges = np.asarray(a_edges, dtype=np.intp)
        self.c_rows = np.asarray(c_rows, dtype=np.intp)
        self.c_edges = np.asarray(c_edges, dtype=np.intp)
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
            out[i] = float(self._fresh(ui))
        inner = np.flatnonzero(~boundary)
        if self.spec.kind == EXPECTED_REWARD and self.diverges:
            out[inner] = math.inf
        elif self.trivial is not None:
            out[inner] = float(self.trivial)
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
