"""Quantitative analysis: chain/MDP model checking, qualitative sets,
closed forms by state elimination, and sound bounds over parameter regions.

Every chain value, concrete (check_mc), parametric (the closed forms), boxed
(region_bounds) or sampled (the evaluators), is one query on one frame:
  - _query decides from the graph of possibly-positive edges alone which
    states are uncertain (U) and which value the graph already settles at
    the initial state (1 or 0 for reach-avoid; 0 at a goal or INFINITE when
    the goal may be missed, for expected reward);
  - _integer_system builds x = A x + c over U from an integer row
    (L, {t: a_t}, r) per state, over ints or integer polynomials: A holds
    the edges inside U, c the state rewards plus the edges into `one`, the
    value-1 states outside U. Every exact solve, elimination and
    policy-iteration round builds through it;
  - _eliminate removes unknowns from such a system, with
    c as one sink column, dividing out common factors with
    polynomials.cancel and divide_content: over the integers for
    _solve_integer, which back-substitutes to numerators over one shared
    denominator, and for _affine_forms, which keeps a set of unknowns and
    writes every other one over them, and over integer polynomials for the
    closed forms, which keep the initial row and cancel it once.
The MDP optima and _avoiders decide their own value-1 states (by _prob1e
and a fixpoint) and stay outside this frame. An exact value on a chain is
one _chain_value of a query: check_mc poses the chain's own, and
ExactPmcEvaluator its cached one over the rows of the one
models.apply_instantiation pass where the point is graph-preserving; it
calls check_mc anywhere else, and both evaluators count that fallback as a
recompute.

Every value is exact: sparse elimination on integer rows for linear
systems and closed forms alike, and one policy iteration engine,
_policy_iterate, for the MDP optima and for the robust region bounds. Its
choices are integer rows, each over the lcm of its denominators, and it
improves a state by comparing integer sums against the solve's numerators
over their one shared denominator; for the region bounds the one choice
per state is the greedy interval allocation, poured in ints on rows that
_Relaxation builds from the integer bounds of polynomials._interval,
memoized per edge across the boxes of one chain. The solves and the policy
iteration make a Fraction only of the value asked for. Floats live only in
FloatPmcEvaluator, which ranks the swarm's candidates: it evaluates a
whole matrix of parameter vectors at once, one pass of its one term table
and one stacked dense solve, in blocks of at most SOLVE_BLOCK_BYTES, and
takes the exact path at a boundary point. The solve runs on the
parametric core: the uncertain states with a constant row are eliminated
once, exactly, when the evaluator is built (_affine_forms), and folded
into the rows that step into them. The table holds the entries of that
reduced system and the chain's non-constant edges, each polynomial once.
The evaluator is also the only user of NumPy here: the first one imports
it and the term tables, so the exact paths never load it.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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
    _as_fraction,
    apply_instantiation,
    is_infinite,
)
from . import polynomials
from .polynomials import POLY_ONE, POLY_ZERO, Polynomial, RationalFunction

# byte budget of one stacked (rows x n x n) block of float evaluation solves
SOLVE_BLOCK_BYTES = 2 ** 21

# the float layer, bound by the first FloatPmcEvaluator; np stays a module
# global so that a view of it put here (e2ebench/spans.py) is what _solve uses
np = None
TermTable = None


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


# ---------------------------------------------------------------------------
# linear solving


# the sink column of elimination: constant terms, state rewards and the
# merged value-one states
_GOOD = -1


def _pick_elimination_order(w, preds, candidates):
    """Pivots in min in*out degree order (no self-loops: _eliminate folds
    them into d_s), ties to the lowest id. A heap holds a key per state,
    pushed anew whenever a pivot changes the state's row or its
    predecessors; a popped key that no longer matches its state is stale."""
    def key(s):
        return len(preds[s]) * len(w[s]), s

    heap = [key(s) for s in candidates]
    heapq.heapify(heap)
    left = set(candidates)
    while heap:
        k = heapq.heappop(heap)
        s = k[1]
        if s not in left or k != key(s):
            continue
        left.discard(s)
        # pivoting on s takes s from its successors' predecessors and
        # rewrites its predecessors' rows
        touched = (w[s].keys() | preds[s]) & left
        yield s
        for t in touched:
            heapq.heappush(heap, key(t))


def _integer_row(row, r):
    """(L, {t: L*p}, L*r): the row {t: p} and the constant r on one integer
    scale L, the lcm of their denominators. Entries and r are anything with
    as_integer_ratio(): ints, Fractions (a float reads as its exact binary
    value) or Polynomials, which scale to integer polynomials."""
    pairs = [(t, *p.as_integer_ratio()) for t, p in row.items()]
    rp, rq = r.as_integer_ratio()
    scale = math.lcm(rq, *(q for _t, _p, q in pairs))
    return scale, {t: p * (scale // q) for t, p, q in pairs}, rp * (scale // rq)


def _integer_system(U, one, row_of):
    """The pivots d and rows w of _eliminate for x = A x + c over the states
    U, numbered in order. row_of(s) is the integer row (L, {t: a_t}, r) of s
    over state ids, reading L x_s = sum_t a_t x_t + r: the self-loop folds
    into d, the mass into the value-1 states `one` adds to r, the _GOOD
    entry, and zero entries and every other state drop."""
    idx = {s: i for i, s in enumerate(U)}
    d = []
    w = {}
    for i, s in enumerate(U):
        scale, row, r = row_of(s)
        out = {}
        for t, a in row.items():
            j = idx.get(t)
            if j is None:
                if t in one:
                    r += a
            elif j == i:
                scale -= a
            elif a:
                out[j] = a
        if r:
            out[_GOOD] = r
        d.append(scale)
        w[i] = out
    return d, w


def _eliminate(d, w, keep=frozenset()):
    """Eliminate every unknown of the integer rows d_i x_i =
    sum_j w[i][j] x_j + w[i][_GOOD] (see _integer_system) but the indices
    in the set `keep`, over ints or over Z[params].

    Pivots go in min in*out degree order, ties to the lowest index.
    Substituting row s into a predecessor p scales p by d_s / g and row s
    by m_ps / g, g the common factor of d_s and m_ps, and divides the
    result by the common factor of d_p and row p. polynomials.cancel gives
    the two quotients of the first step, and polynomials.divide_content
    divides d_p and row p in place in the second: by the int content, or,
    past GCD_TERM_THRESHOLD terms, by the polynomial gcd. Nothing divides
    after them. A zero pivot means the system is singular. Returns the pivots
    d, the rows w left over (those of `keep`) and the (s, d_s, row s) of
    each pivot in order; a pivot's row names only the unknowns pivoted
    after it, the kept ones and _GOOD.
    """
    cancel = polynomials.cancel
    divide_content = polynomials.divide_content
    preds = {i: set() for i in range(len(d))}
    preds[_GOOD] = set()
    for i, out in w.items():
        for j in out:
            preds[j].add(i)
    eliminated = []
    for s in _pick_elimination_order(w, preds, [i for i in range(len(d)) if i not in keep]):
        ds = d[s]
        if not ds:
            raise ModelError("singular linear system")
        out = w.pop(s)
        for t in out:
            preds[t].discard(s)
        for p in preds[s]:
            row = w[p]
            fs, fp = cancel(row.pop(s), ds)
            dp = d[p] * fp
            if fp != 1:
                for t in row:
                    row[t] *= fp
            for t, v in out.items():
                if t == p:
                    dp -= fs * v
                elif t in row:
                    row[t] += fs * v
                else:
                    row[t] = fs * v
                    preds[t].add(p)
            d[p] = divide_content(dp, row)
        eliminated.append((s, ds, out))
    return d, w, eliminated


def _solve_integer(d, w):
    """x_i = num[i] / den for the integer rows d, w of _integer_system.

    _eliminate removes every unknown; the back-substitution keeps one shared
    denominator, the lcm of the denominators of the values found so far.
    For a substochastic A, I - A is an M-matrix, so every pivot of a
    nonsingular system is positive.
    """
    _d, _w, eliminated = _eliminate(d, w)
    # x[s] = num[s] / den for every s solved so far, num[s] = 0 for the rest
    num = [0] * len(d)
    den = 1
    for s, ds, out in reversed(eliminated):
        acc = 0
        for t, v in out.items():
            acc += v * (den if t == _GOOD else num[t])
        g = math.gcd(acc, ds)
        k = ds // g
        if k != 1:
            den *= k
            num = [v * k for v in num]
        num[s] = acc // g
    return num, den


def _affine_forms(U, one, row_of, keep):
    """x_s = sum_q B[s][q] x_q + B[s][_GOOD] for every state s of U whose
    index is outside the index set `keep`, q the index of a kept state:
    _eliminate keeps those unknowns of _integer_system(U, one, row_of), and
    the back-substitution writes each eliminated one over them and _GOOD,
    as a map of nonzero Fractions. The kept states' rows only cost work;
    give them (1, {}, 0)."""
    _d, _w, eliminated = _eliminate(*_integer_system(U, one, row_of), keep)
    forms = {}
    for s, ds, out in reversed(eliminated):
        acc = {}
        for t, v in out.items():
            for q, b in forms[t].items() if t in forms else ((t, 1),):
                acc[q] = acc.get(q, 0) + v * b
        forms[s] = {q: Fraction(b) / ds for q, b in acc.items() if b}
    return {U[k]: f for k, f in forms.items()}


def solve_exact(rows, c):
    """Solve x = A x + c in Fractions. rows[i]: {j: a_ij} over 0..n-1, with A
    substochastic (nonnegative, rows summing to at most one). Entries and c
    are ints or Fractions; a float reads as its exact binary value, as
    Fraction(v) reads it. Each row is scaled by the lcm of its denominators
    and solved by _solve_integer."""
    num, den = _solve_integer(*_integer_system(
        range(len(rows)), (), lambda i: _integer_row(rows[i], c[i])))
    return [Fraction(v, den) for v in num]


# ---------------------------------------------------------------------------
# Markov chain values


def _chain_value(q, mc, reward):
    """The value of the query q on the chain mc: what the graph settles, or
    the initial state's unknown of x = A x + c over q.U, solved on integer
    rows with a Fraction made of that unknown only."""
    if q.value is not None:
        return q.value
    rewards = mc.rewards if reward else {}
    num, den = _solve_integer(*_integer_system(
        q.U, q.one, lambda s: _integer_row(mc.row(s), rewards.get(s, 0))))
    return Fraction(num[q.U.index(mc.initial)], den)


def _mc_value(mc, goal, bad, reward):
    return _chain_value(_query(_pmc_graph(mc), mc.initial, goal, bad, reward), mc, reward)


def reach_avoid_prob(mc: Mc):
    """Probability of reaching goal while avoiding bad, from the initial
    state, as a Fraction."""
    return _mc_value(mc, mc.goal, mc.bad, False)


def expected_reward(mc: Mc):
    """Expected accumulated reward until goal; infinite when the goal is
    reached with probability below one."""
    return _mc_value(mc, mc.goal, (), True)


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


def _policy_iterate(U, policy, choices, row_of, one, better, initial):
    """Exact policy iteration (Howard) on the states U, from `policy`.

    row_of(s, ch) gives the integer row (L, {t: a_t}, r) of a choice, whose
    value is (r + sum_t a_t x_t) / L, where x_t is 1 on the states `one`
    and 0 on any other state outside U. Each round solves the current
    choices' _integer_system (_solve_integer, x = num / den), then switches
    a state to its best candidate among choices(s, val) only where that is
    strictly better than the state's current value; ties keep the first.
    val(t) = x_t * den is an int, so a candidate's value times L * den is
    n = r * den + sum_t a_t * val(t): it compares against x_s as n against
    num_s * L, and against another candidate by cross products. better(a,
    b) is a strict comparison. From a proper policy every strict
    improvement stays proper, so each system is nonsingular; a reward
    maximum needs that no choice can trap mass in U (callers return
    INFINITE first, see _avoiders). Returns the value at `initial`, a
    Fraction, and the policy, updated in place.
    """
    while True:
        num, den = _solve_integer(*_integer_system(U, one, lambda s: row_of(s, policy[s])))
        value = dict.fromkeys(one, den)
        value.update(zip(U, num))

        def val(t):
            return value.get(t, 0)

        switched = False
        for s, bn in zip(U, num):
            best = current = policy[s]
            bl = 1
            for ch in choices(s, val):
                if ch == current:
                    continue
                scale, row, r = row_of(s, ch)
                n = r * den + sum(a * val(t) for t, a in row.items())
                if better(n * bl, bn * scale):
                    best, bn, bl = ch, n, scale
            if best is not current:
                policy[s] = best
                switched = True
        if not switched:
            return Fraction(num[U.index(initial)], den), policy


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


def _mdp_rows(mdp, U, reward):
    """The integer row of every action of the states U, for
    _policy_iterate: its distribution and, with `reward`, its reward."""
    return {(s, a): _integer_row(mdp.row(s, a),
                                 mdp.rewards.get((s, a), 0) if reward else 0)
            for s in U for a in mdp.actions(s)}


def _mdp_max_reach(mdp, goal, bad):
    s_zero = qualitative_precompute(_mdp_any_graph(mdp), goal, bad).s_zero
    s_one, witness = _prob1e(mdp, goal, bad)
    if mdp.initial in s_one:
        return MdpResult(Fraction(1), dict(witness))
    if mdp.initial in s_zero:
        return MdpResult(Fraction(0), dict(witness))
    U = [s for s in mdp.states if s not in s_one and s not in s_zero]
    start = _proper_initial_policy(U, s_one | s_zero, mdp.actions, mdp.row)
    rows = _mdp_rows(mdp, U, False)
    value, policy = _policy_iterate(
        U, start, lambda s, _val: mdp.actions(s), lambda s, a: rows[s, a],
        s_one, operator.gt, mdp.initial)
    strategy = dict(witness)
    strategy.update(policy)
    return MdpResult(value, strategy)


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
    rows = _mdp_rows(mdp, U, True)
    value, policy = _policy_iterate(U, start, lambda s, _val: acts(s),
                                    lambda s, a: rows[s, a], (), operator.lt,
                                    mdp.initial)
    return MdpResult(value, policy)


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
    rows = _mdp_rows(mdp, U, True)
    # every strategy reaches the goal almost surely here, so any start is proper
    value, policy = _policy_iterate(U, {s: mdp.actions(s)[0] for s in U},
                                    lambda s, _val: mdp.actions(s),
                                    lambda s, a: rows[s, a], (), operator.gt,
                                    mdp.initial)
    return MdpResult(value, policy)


# ---------------------------------------------------------------------------
# state elimination (closed forms)


def _pmc_graph(d):
    """Successors of every state of a pMC or a chain."""
    return {s: tuple(d.row(s)) for s in d.states}


def _closed_form(d: PmcT, q: _Query, reward) -> RationalFunction:
    """Eliminate every uncertain state but the initial one from x = A x + c
    over q.U on integer rows over Z[params]; the value is the initial row's
    sink entry over its pivot, divided by their full gcd with one
    _sympy_cancel whatever their size, so the form is the reduced one
    whatever the pivot order. RationalFunction cancels nothing more."""
    if q.value is not None:
        return RationalFunction.constant(q.value)
    rewards = d.rewards if reward else {}
    if reward and not any(rewards.get(s) for s in q.U):
        # the goal is reached almost surely and nothing is earned before it
        return RationalFunction.constant(0)
    initial = q.U.index(d.initial)
    pivots, w, _ = _eliminate(*_integer_system(
        q.U, q.one, lambda s: _integer_row(d.row(s), rewards.get(s, POLY_ZERO))), {initial})
    # the pivot is still an int if no substitution touched the initial row
    return RationalFunction(*polynomials._sympy_cancel(
        w[initial].get(_GOOD, POLY_ZERO), POLY_ONE * pivots[initial]))


def state_eliminate(d: PmcT) -> RationalFunction:
    """Closed-form reach-avoid probability as a rational function over the
    parameters, valid at every graph-preserving well-defined valuation.

    States other than the initial one are eliminated by fraction-free
    substitution (_eliminate over Polynomials); edges into the value-one
    states merge into one sink column."""
    return _closed_form(d, _query(_pmc_graph(d), d.initial, d.goal, d.bad, False), False)


def state_eliminate_reward(d: PmcT) -> RationalFunction:
    """Closed-form expected reward until goal. Requires that every
    graph-preserving valuation reaches the goal almost surely (a property of
    the graph alone); otherwise the value is infinite everywhere and no
    rational function exists. The state rewards join the sink column."""
    q = _query(_pmc_graph(d), d.initial, d.goal, (), True)
    if is_infinite(q.value):
        raise ModelError(
            "expected reward diverges on the graph-preserving region "
            "(goal missed with positive probability)"
        )
    return _closed_form(d, q, True)


# ---------------------------------------------------------------------------
# regions and interval relaxation


class Region:
    """Axis-aligned box of parameter values, strictly inside (0, 1). A float
    bound reads as its decimal repr, as in an Instantiation."""

    def __init__(self, intervals):
        self.intervals = {}
        for name, (lo, hi) in intervals.items():
            lo = _as_fraction(lo)
            hi = _as_fraction(hi)
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


@dataclass
class RegionBounds:
    lower: object
    upper: object
    tight: bool
    graph_preserving: bool


class _NoWellDefinedPoint(ModelError):
    """The box holds no well-defined valuation: an edge's range misses
    [0, 1], a row cannot sum to 1 or a reward is below 0 everywhere in it."""


class _Relaxation:
    """What region_bounds reads of one chain whatever the box, built once
    per chain and kept in its meta: the graph, the spec queries, the edges
    of each row with the parameters each mentions, and `tight`, a property
    of the polynomials alone. Edge and reward intervals are memoized by the
    intervals of the parameters they mention, so a box split off another
    recomputes only the split parameter's edges. It keeps the chain's labels,
    not the chain, whose meta holds it, so that no cycle waits for the gc."""

    def __init__(self, d: PmcT):
        self.initial, self.goal, self.bad = d.initial, d.goal, d.bad
        self.graph = _pmc_graph(d)
        self.edges = {s: [(t, p, tuple(sorted(p.variables())))
                          for t, p in d.row(s).items()] for s in d.states}
        self.rewards = {s: (p, tuple(sorted(p.variables())))
                        for s, p in d.rewards.items()}
        # decoupling across rows is the lossy step: only single-row
        # parameters keep the relaxation tight
        rows_of = {}
        exact = True
        for s, edges in self.edges.items():
            for _t, p, names in edges:
                exact = exact and p.occurrences() == len(names)
                for name in names:
                    rows_of.setdefault(name, set()).add(s)
        self.tight = (exact and all(len(rs) == 1 for rs in rows_of.values())
                      and d.rows_in_simple_form())
        self._queries = {}
        self._codes = {}   # (name, lo, hi) -> a small int per interval
        self._memo = {}    # (s, t or _GOOD, codes of the names) -> polynomials._interval

    def query(self, spec: Specification):
        """The spec's query and the states outside its U."""
        key = (spec.kind, spec.bad_label is not None)
        if key not in self._queries:
            q = _query(self.graph, self.initial, self.goal, _spec_bad(self, spec),
                       spec.kind == EXPECTED_REWARD)
            self._queries[key] = q, set(self.graph).difference(q.U)
        return self._queries[key]

    def box(self, region: Region):
        """interval(s, t, poly, names): polynomials._interval of an edge (s, t),
        or with t = _GOOD of the reward of s, over the region."""
        D = math.lcm(*(v.denominator for iv in region.intervals.values() for v in iv))
        los = {}
        his = {}
        code = {}
        for name, (lo, hi) in region.intervals.items():
            los[name] = lo.numerator * (D // lo.denominator)
            his[name] = hi.numerator * (D // hi.denominator)
            code[name] = self._codes.setdefault((name, lo, hi), len(self._codes))
        memo = self._memo

        def interval(s, t, poly, names):
            key = (s, t, tuple(map(code.__getitem__, names)))
            iv = memo.get(key)
            if iv is None:
                iv = memo[key] = polynomials._interval(poly, los, his, D)
            return iv

        return interval

    def table(self, interval):
        """Each state's row of edge intervals, clamped to [0, 1], on one
        integer scale L: (L, [(t, lo, hi)] by t, L - sum lo); and whether
        every point of the box is graph-preserving (no non-constant edge
        may vanish)."""
        preserving = True
        table = {}
        for s, edges in self.edges.items():
            ivs = []
            for t, poly, names in edges:
                lo, hi, den = interval(s, t, poly, names)
                if lo <= 0 and names:
                    preserving = False
                lo = max(lo, 0)
                hi = min(hi, den)
                if lo > hi:
                    raise _NoWellDefinedPoint(
                        "edge (%d,%d) has empty value range over the region" % (s, t))
                ivs.append((t, lo, hi, den))
            scale = math.lcm(*(den for *_iv, den in ivs))
            entries = sorted((t, lo * (scale // den), hi * (scale // den))
                             for t, lo, hi, den in ivs)
            lo_sum = sum(lo for _t, lo, _hi in entries)
            if lo_sum > scale or sum(hi for _t, _lo, hi in entries) < scale:
                raise _NoWellDefinedPoint(
                    "row of state %d cannot sum to 1 anywhere in the region" % s)
            table[s] = (scale, entries, scale - lo_sum)
        return table, preserving


def _greedy_allocation(row, val, maximize):
    """The distribution inside a table row's intervals that optimizes the
    expected value, {t: a_t} over the row's scale: classic water-filling,
    exact. Successors go by val(t), best first, ties to the lowest t (the
    entries are sorted by t and the sort is stable)."""
    _scale, entries, free = row
    alloc = {t: lo for t, lo, _hi in entries}
    for t, lo, hi in sorted(entries, key=lambda e: val(e[0]), reverse=maximize):
        if free <= 0:
            break
        take = min(hi - lo, free)
        alloc[t] += take
        free -= take
    return alloc


def _robust_value(rel, table, interval, maximize, spec):
    """Optimum over the interval relaxation on U: policy iteration whose one
    candidate per state is the greedy allocation at the current values
    (interval-MDP policy iteration, Nilim & El Ghaoui 2005). It starts from
    a proper allocation: each state pours its free mass first into one
    successor, tried in order until that successor leaks toward the states
    outside U."""
    q, known = rel.query(spec)
    if q.value is not None:
        return q.value
    r = {}
    if spec.kind == EXPECTED_REWARD:
        def stays(s, Z):
            # some allocation keeps all mass in Z: every edge leaving Z may be
            # zero and the edges into Z can carry the whole row
            scale, entries, _free = table[s]
            return (all(lo == 0 for t, lo, _hi in entries if t not in Z)
                    and sum(hi for t, _lo, hi in entries if t in Z) >= scale)

        if maximize and rel.initial in _avoiders(rel.graph, rel.goal, stays):
            return INFINITE
        table = dict(table)
        for s in q.U:
            if s in rel.rewards:
                lo, hi, den = interval(s, _GOOD, *rel.rewards[s])
                if hi < 0:
                    raise _NoWellDefinedPoint("reward of state %d is negative "
                                              "everywhere in the region" % s)
                bound = max(hi if maximize else lo, 0)
                scale, entries, free = table[s]
                new = math.lcm(scale, den)
                f = new // scale
                table[s] = (new, [(t, a * f, b * f) for t, a, b in entries], free * f)
                r[s] = bound * (new // den)

    def pour_first(s):
        for t, _lo, _hi in table[s][1]:
            yield _greedy_allocation(table[s], lambda u: u == t, True)

    start = _proper_initial_policy(q.U, known, pour_first, lambda _s, alloc: alloc)
    return _policy_iterate(
        q.U, start, lambda s, val: [_greedy_allocation(table[s], val, maximize)],
        lambda s, alloc: (table[s][0], alloc, r.get(s, 0)), q.one,
        operator.gt if maximize else operator.lt, rel.initial)[0]


def region_bounds(d: PmcT, region: Region, spec: Specification,
                  side: str | None = None) -> RegionBounds:
    """Sound lower/upper bounds on the spec value over every well-defined
    valuation inside the region, except that the lower reach bound holds at
    graph-preserving points only: the value-0 and value-1 states come from
    the graph of all edges, so at a point where an edge polynomial vanishes
    the value can fall below it. `graph_preserving` is set when every
    non-constant edge polynomial's interval bound has a lower end > 0, so
    that every point of the region is graph-preserving. Rewards are
    nonnegative at every well-defined valuation (see models.PmcT), so a
    reward bound clamps at 0.

    Parameter dependencies are relaxed per row: each row may pick any
    successor distribution inside the per-edge interval box, optimized by
    exact robust policy iteration on integer rows, one per bound. `tight`
    marks instances (simple pMC, single-row parameters) where the relaxation
    provably loses nothing. side "upper" or "lower" computes that bound
    alone and leaves the other None."""
    for name in d.params.names:
        if name not in region:
            raise ModelError("region gives no interval for parameter %r" % name)
    declared = set(d.params.names)
    for name in sorted(region.intervals):
        if name not in declared:
            raise ModelError("region bounds %r, which the chain does not declare" % name)
    rel = d.meta.get("_relaxation")
    if rel is None:
        rel = d.meta["_relaxation"] = _Relaxation(d)
    interval = rel.box(region)
    table, preserving = rel.table(interval)
    upper = lower = None
    if side != "lower":
        upper = _robust_value(rel, table, interval, True, spec)
    if side != "upper":
        lower = _robust_value(rel, table, interval, False, spec)
    return RegionBounds(lower, upper, rel.tight, preserving)


# ---------------------------------------------------------------------------
# absence proving


@dataclass
class AbsenceResult:
    no_fsc: bool
    bound: object
    regions_checked: int


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
    inconclusive, reporting the bound that failed to refute. The bound read
    is the upper one when spec.above, else the lower one, whatever the
    search direction. A region with no well-defined valuation raises
    ModelError; a sub-box without one holds no satisfying point, so it
    counts as refuted and adds no bound."""
    upper = spec.above
    # the fully observable optimum dominates every controller value: it
    # bounds reach and maximal rewards from above, minimal ones from below
    dom = _dominance_bounds(d, spec) if upper == spec.maximizing else None
    checked = 0

    def visit(reg: Region, depth: int):
        nonlocal checked
        checked += 1
        try:
            b = region_bounds(d, reg, spec, "upper" if upper else "lower")
        except _NoWellDefinedPoint:
            if depth == 0:
                raise
            return True, None
        if upper:
            bound = b.upper
            if dom is not None and dom < bound:
                bound = dom
        else:
            bound = b.lower
            if dom is not None and dom > bound:
                bound = dom
        if not spec.satisfied_by(bound):
            return True, bound
        if depth >= max_depth:
            return False, bound
        try:
            left, right = reg.split()
        except ModelError:
            return False, bound
        ok_l, b_l = visit(left, depth + 1)
        if not ok_l:
            return False, b_l
        ok_r, b_r = visit(right, depth + 1)
        if not ok_r:
            return False, b_r
        better = max if upper else min
        return True, better((b for b in (b_l, b_r) if b is not None), default=None)

    ok, bound = visit(region, 0)
    # visit reaches itself through its closure: emptying that cell frees the
    # chain now, not at the cycle collector's next pass
    del visit
    if bound is None:
        raise _NoWellDefinedPoint("no point of the region is well-defined")
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
        return _chain_value(self.query, res.model, self.spec.kind == EXPECTED_REWARD)


class FloatPmcEvaluator(_EvaluatorBase):
    """Fast float values for search loops: one term table holds every
    polynomial the float path reads, and a dense solve runs on the cached
    uncertain-state system, for a whole matrix of parameter vectors at
    once. The caller guarantees well-defined entries (the swarm
    parameterization does), not rewards: a point where a non-constant
    reward is negative reads NaN. Boundary valuations take the counted
    exact path at the point's decimal repr.

    The dense solve runs on the parametric core only. At build time the
    non-initial uncertain states whose row (and, for a reward spec, whose
    reward) is constant, `eliminated`, are removed exactly: _affine_forms
    writes each of them over the other uncertain states and the sink, and
    each row that steps into one gets the folded entries
    a_pq + sum_k a_pk B_kq. `U` and `idx` are the states the solve keeps,
    in query order.

    The table holds each polynomial object once, and only what is read:
    the entries of A over U (an edge, or the edge plus its folded entries),
    the terms of c (the edges into the value-1 states in row order, then
    the folded sink plus the reward), the chain's non-constant edges, which
    the boundary test reads, and for a reward spec its non-constant
    rewards, which the sign test reads. A row that steps into no eliminated
    state keeps its edge entries, so a chain without constant rows solves
    the unreduced system bit for bit.
    """

    def __init__(self, d: PmcT, spec: Specification):
        global np, TermTable
        if TermTable is None:
            from ._kernels import TermTable
        if np is None:
            import numpy as np
        super().__init__(d, spec)
        self.param_order = list(d.params.names)
        rewards = d.rewards if spec.kind == EXPECTED_REWARD else {}
        query = self.query
        K = {s for s in query.U if s != d.initial
             and rewards.get(s, POLY_ZERO).is_constant()
             and all(p.is_constant() for p in d.row(s).values())}
        self.eliminated = [s for s in query.U if s in K]
        self.U = [s for s in query.U if s not in K]
        self.idx = idx = {s: i for i, s in enumerate(self.U)}
        # x_k = sum_j B[k][j] x_j + B[k][_GOOD] for each k in K, j numbering
        # the kept states: those come first in the system _affine_forms solves
        forms = {}
        if K:
            def constant_row(s):
                if s not in K:
                    return 1, {}, 0
                return _integer_row({t: p.constant_value() for t, p in d.row(s).items()},
                                    rewards.get(s, POLY_ZERO).constant_value())

            forms = _affine_forms(self.U + self.eliminated, query.one, constant_row,
                                  range(len(self.U)))
        polys = []
        column = {}   # id of a polynomial -> its column in the table

        def col(p):
            if id(p) not in column:
                column[id(p)] = len(polys)
                polys.append(p)
            return column[id(p)]

        a = []   # (row, unknown, column) of each entry of A
        c = []   # (row, column) of each term of c, in summation order
        for i, s in enumerate(self.U):
            entries = {}
            folded = {}
            for t, p in d.row(s).items():
                if t in idx:
                    entries[idx[t]] = p
                elif t in query.one:
                    c.append((i, col(p)))
                for j, b in forms.get(t, {}).items():
                    folded[j] = folded.get(j, POLY_ZERO) + p * b
            sink = folded.pop(_GOOD, POLY_ZERO)
            if s in rewards:
                sink = rewards[s] + sink
            if sink:
                c.append((i, col(sink)))
            for j, f in folded.items():
                entries[j] = entries[j] + f if j in entries else f
            a += [(i, j, col(p)) for j, p in entries.items()]
        self.boundary_cols = np.asarray(
            [col(p) for s in d.states for p in d.row(s).values() if not p.is_constant()],
            dtype=np.intp)
        self.reward_cols = np.asarray(
            [col(r) for r in rewards.values() if not r.is_constant()], dtype=np.intp)
        self.table = TermTable(polys, {n: i for i, n in enumerate(self.param_order)})
        self.a_rows, self.a_cols, self.a_terms = np.array(a, dtype=np.intp).reshape(-1, 3).T.copy()
        self.c_rows, self.c_terms = np.array(c, dtype=np.intp).reshape(-1, 2).T.copy()

    def evaluate_vector(self, x):
        """Value at a float vector ordered like d.params.names, or an array
        of values, one per row of a (points x params) matrix.

        Rows with a non-constant edge at zero or below take the counted
        from-scratch path one by one, in row order; the others share one
        stacked dense solve. Each row's value equals a lone evaluation of
        that row bit for bit. For a reward spec, a row where a non-constant
        reward is below zero is not well-defined and reads NaN, unsolved.
        """
        X = np.asarray(x, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[np.newaxis]
        vals = self.table.evaluate(X)
        out = np.empty(len(X))
        boundary = np.any(vals[:, self.boundary_cols] <= 0.0, axis=1)
        rest = ~boundary
        if self.reward_cols.size:
            negative = np.any(vals[:, self.reward_cols] < 0.0, axis=1)
            out[negative] = np.nan
            boundary &= ~negative
            rest &= ~negative
        for i in np.flatnonzero(boundary):
            u = Instantiation({n: float(v) for n, v in zip(self.param_order, X[i])})
            out[i] = float(self._fresh(apply_instantiation(self.d, u)))
        inner = np.flatnonzero(rest)
        if self.query.value is not None:
            out[inner] = float(self.query.value)
        elif inner.size:
            out[inner] = self._solve(vals[inner])
        return float(out[0]) if single else out

    def _solve(self, vals) -> np.ndarray:
        """Initial-state values of (I - A) y = c for every row of table
        values, stacked into blocks of at most SOLVE_BLOCK_BYTES. I - A is
        built in place: the identity, minus the entries; c by ordered
        accumulation, as np.add.at does for a single row."""
        n = len(self.U)
        diag = np.arange(n)
        init = self.idx[self.d.initial]
        step = max(1, SOLVE_BLOCK_BYTES // (8 * n * n))
        out = np.empty(len(vals))
        for lo in range(0, len(vals), step):
            block = vals[lo:lo + step]
            M = np.zeros((len(block), n, n))
            M[:, diag, diag] = 1.0
            M[:, self.a_rows, self.a_cols] -= block[:, self.a_terms]
            c = np.zeros((len(block), n))
            np.add.at(c, (slice(None), self.c_rows), block[:, self.c_terms])
            out[lo:lo + step] = np.linalg.solve(M, c[..., np.newaxis])[:, init, 0]
        return out
