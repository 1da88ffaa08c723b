"""Search for satisfying instantiations.

pso_search runs a standard particle swarm in an unconstrained logit space;
positions map through a per-group softmax with an epsilon floor onto the
open probability simplexes recorded by the chain's parameter groups, so
every candidate is well-defined, graph-preserving, and min-epsilon by
construction. Fitness is float model checking; the emitted best point is
made exact (free coordinates by their decimal repr, residuals exactly) and
re-certified exactly.

brute_force_oracle enumerates deterministic controllers outright (guarded),
and find_permissive grows a box region around several satisfying witnesses,
then verifies it with the sound region bounds.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analysis import (
    FloatPmcEvaluator,
    Region,
    _ill_defined,
    check_mc,
    region_bounds,
)
from .fsc import Fsc, FscTopology, induced_mc, memory_targets
from .models import (
    Instantiation,
    ModelError,
    PmcT,
    Pomdp,
    Specification,
    WellDefinedness,
    apply_instantiation,
    is_infinite,
)

PENALTY = 1e9


@dataclass
class SearchConfig:
    swarm_size: int = 40
    max_iterations: int = 500
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    min_prob: float = 1e-4
    seed: int = 0
    time_budget: float | None = None  # seconds

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ModelError("swarm needs at least two particles")
        if not 0 < self.min_prob < 0.5:
            raise ModelError("probability floor must lie in (0, 0.5)")


@dataclass
class SearchResult:
    instantiation: Instantiation
    value: object            # exact re-certified value
    float_value: float
    satisfied: bool
    trace: list = field(default_factory=list)
    evaluations: int = 0
    first_satisfied_eval: int | None = None
    budget_exhausted: bool = False
    well: WellDefinedness | None = None
    satisfied_samples: list = field(default_factory=list)  # raw param vectors
    recomputes: int = 0        # boundary valuations re-analyzed from scratch


def search_stats(results) -> dict:
    """Work counters over one or more swarm runs taken in order, with
    first_satisfied_eval counted across all of them. No timings: a seeded
    run reproduces them exactly."""
    evaluations = 0
    first = None
    for r in results:
        if first is None and r.first_satisfied_eval is not None:
            first = evaluations + r.first_satisfied_eval
        evaluations += r.evaluations
    return {
        "evaluations": evaluations,
        "first_satisfied_eval": first,
        "recomputes": sum(r.recomputes for r in results),
        "budget_exhausted": any(r.budget_exhausted for r in results),
    }


class _SimplexCodec:
    """Maps logit vectors to parameter vectors group by group.

    Each group of g free parameters gets g+1 logits (free coordinates plus
    the residual); softmax then an affine floor v = eps + (1 - m*eps) * s
    keeps every coordinate of the full distribution at least eps while the
    free coordinates still sum to at most 1 - eps.

    Groups with the same number m of logits decode together: their logit
    columns form a (groups x m) index block, so a whole swarm becomes one
    contiguous (points x groups x m) array whose last axis is reduced
    exactly as a lone segment would be.
    """

    def __init__(self, d: PmcT, eps: float):
        self.groups = d.ensure_param_groups()
        order = {name: i for i, name in enumerate(d.params.names)}
        by_size = {}
        pos = 0
        for g in self.groups:
            m = len(g) + 1
            if m * eps >= 1.0:
                raise ModelError(
                    "floor %g is too large for a group of %d coordinates"
                    % (eps, m))
            cols, targets = by_size.setdefault(m, ([], []))
            cols.append(range(pos, pos + m))
            targets.append([order[nm] for nm in g])
            pos += m
        self.blocks = [(m, np.asarray(cols, dtype=np.intp),
                        np.asarray(targets, dtype=np.intp))
                       for m, (cols, targets) in sorted(by_size.items())]
        self.dims = pos
        self.num_params = len(d.params.names)
        self.eps = eps

    def decode(self, logits: np.ndarray) -> np.ndarray:
        """(points x dims) logits -> (points x num_params) parameters."""
        x = np.empty((len(logits), self.num_params))
        for m, cols, targets in self.blocks:
            seg = np.take(logits, cols, axis=1)  # C-contiguous, unlike logits[:, cols]
            seg -= seg.max(axis=-1, keepdims=True)
            np.exp(seg, out=seg)
            seg /= seg.sum(axis=-1, keepdims=True)
            seg *= 1.0 - m * self.eps
            seg += self.eps
            x[:, targets] = seg[..., :-1]
        return x

    def rationalize(self, x: np.ndarray, names) -> Instantiation:
        """Exact point from a float vector: free coordinates via repr, the
        group residual recomputed exactly, with a deterministic repair if
        rounding pushed the residual below the floor."""
        eps = Fraction(repr(self.eps))
        index = {nm: i for i, nm in enumerate(names)}
        values = {}
        for g in self.groups:
            vals = {}
            for nm in g:
                vals[nm] = Fraction(repr(float(x[index[nm]])))
            residual = 1 - sum(vals.values())
            if residual < eps and vals:
                deficit = eps - residual
                big = max(vals, key=lambda nm: (vals[nm], nm))
                vals[big] -= deficit
            values.update(vals)
        return Instantiation(values)


def certify(d: PmcT, spec: Specification, u, eps=None):
    """Exact value and verdict at an instantiation: one instantiation of d,
    whose chain check_mc then solves. Raises on a point that is not
    well-defined."""
    if not isinstance(u, Instantiation):
        u = Instantiation(u)
    well = apply_instantiation(d, u, eps)
    if not well.well_defined:
        raise _ill_defined(well.defects)
    value = check_mc(well.model, spec)
    return u, value, spec.satisfied_by(value), well


def _param_level_eps(d: PmcT, u: Instantiation, eps: Fraction) -> bool:
    """Min-eps on the strategy simplexes: every group coordinate, implicit
    residual included, is at least eps. Stronger than entry-level eps on
    chains whose entries multiply or scale parameters."""
    for g in d.ensure_param_groups():
        total = Fraction(0)
        for nm in g:
            v = Fraction(u[nm])
            if v < eps:
                return False
            total += v
        if 1 - total < eps:
            return False
    return True


def _emission_check(d: PmcT, u: Instantiation, base: WellDefinedness,
                    eps: Fraction) -> WellDefinedness:
    """Adds parameter-level min-eps to the entry-level verdict `certify`
    returned for u."""
    well = dataclasses.replace(base, eps_preserving=_param_level_eps(d, u, eps))
    if not (well.well_defined and well.graph_preserving and well.eps_preserving):
        raise ModelError(
            "internal: search emitted a defective instantiation (%s)"
            % "; ".join(well.defects or ["below the probability floor"]))
    return well


def _fitness_from_value(value, maximizing) -> float:
    if is_infinite(value) or (isinstance(value, float) and math.isinf(value)):
        v = PENALTY
    else:
        v = float(value)
        if v > PENALTY:
            v = PENALTY
    return -v if maximizing else v


def pso_search(d: PmcT, spec: Specification, cfg: SearchConfig | None = None,
               collect_satisfied: int = 0) -> SearchResult:
    """Swarm search over the chain's parameter simplexes.

    Deterministic for a fixed seed; ties between equally good particles go
    to the lowest index. The returned instantiation is exact and certified;
    `satisfied` refers to that exact value. With collect_satisfied > 0, up
    to that many distinct satisfying parameter vectors seen along the way
    are kept (float verdicts; callers re-certify).
    """
    cfg = cfg or SearchConfig()
    codec = _SimplexCodec(d, cfg.min_prob)
    if codec.dims == 0:
        u, value, sat, base = certify(d, spec, Instantiation({}))
        well = _emission_check(d, u, base, Fraction(repr(cfg.min_prob)))
        fv = math.inf if is_infinite(value) else float(value)
        return SearchResult(u, value, fv, sat, trace=[fv], evaluations=1,
                            first_satisfied_eval=1 if sat else None, well=well)

    evaluator = FloatPmcEvaluator(d, spec)
    maximizing = spec.maximizing
    rng = np.random.default_rng(cfg.seed)
    swarm = cfg.swarm_size
    X = rng.standard_normal((swarm, codec.dims))
    X[0] = 0.0  # uniform controller as a fixed anchor
    V = np.zeros_like(X)
    started = time.monotonic()

    evaluations = 0
    first_sat = None
    trace = []
    samples = []

    def fitness_batch(positions):
        """Evaluates the whole swarm in one decode and one evaluator call;
        bookkeeping runs in particle order."""
        nonlocal evaluations, first_sat
        decoded = codec.decode(positions)
        values = evaluator.evaluate_vector(decoded).tolist()
        out = []
        for x, value in zip(decoded, values):
            evaluations += 1
            if not math.isnan(value) and spec.satisfied_by(value):
                if first_sat is None:
                    first_sat = evaluations
                if len(samples) < collect_satisfied and all(
                        np.max(np.abs(x - s)) > 1e-9 for s in samples):
                    samples.append(x.copy())
            out.append((_fitness_from_value(value, maximizing), x))
        return out

    pbest_f = np.empty(swarm)
    pbest_x = np.empty((swarm, codec.num_params))
    for i, (f, x) in enumerate(fitness_batch(X)):
        pbest_f[i], pbest_x[i] = f, x
    pbest_pos = X.copy()
    g_idx = int(np.argmin(pbest_f))
    gbest_f = pbest_f[g_idx]
    gbest_pos = pbest_pos[g_idx].copy()
    gbest_x = pbest_x[g_idx].copy()
    trace.append(-gbest_f if maximizing else gbest_f)

    exhausted = False
    for _it in range(cfg.max_iterations):
        if cfg.time_budget is not None and time.monotonic() - started > cfg.time_budget:
            exhausted = True
            break
        r1 = rng.random((swarm, codec.dims))
        r2 = rng.random((swarm, codec.dims))
        V = (cfg.inertia * V
             + cfg.cognitive * r1 * (pbest_pos - X)
             + cfg.social * r2 * (gbest_pos - X))
        X = X + V
        for i, (f, x) in enumerate(fitness_batch(X)):
            if f < pbest_f[i]:
                pbest_f[i] = f
                pbest_pos[i] = X[i]
                pbest_x[i] = x
        i_best = int(np.argmin(pbest_f))
        if pbest_f[i_best] < gbest_f:
            gbest_f = pbest_f[i_best]
            gbest_pos = pbest_pos[i_best].copy()
            gbest_x = pbest_x[i_best].copy()
        trace.append(-gbest_f if maximizing else gbest_f)

    u, value, sat, base = certify(d, spec, codec.rationalize(gbest_x, d.params.names))
    well = _emission_check(d, u, base, Fraction(repr(cfg.min_prob)))
    float_value = -gbest_f if maximizing else gbest_f
    return SearchResult(u, value, float_value, sat, trace=trace,
                        evaluations=evaluations, first_satisfied_eval=first_sat,
                        budget_exhausted=exhausted, well=well,
                        satisfied_samples=samples,
                        recomputes=evaluator.recompute_count)


# ---------------------------------------------------------------------------
# deterministic enumeration


@dataclass
class OracleResult:
    fsc: Fsc
    value: object
    candidates: int


def brute_force_oracle(m: Pomdp, k: int, spec: Specification,
                       topology: str = FscTopology.FULL,
                       limit: int = 10 ** 7) -> OracleResult:
    """Best deterministic k-node controller by exhaustive enumeration with
    exact model checking. Guarded: the candidate count must stay within
    `limit`."""
    FscTopology.check(topology)
    slots = []  # per (node, obs): list of (action, target) choices
    count = 1
    for z in range(m.num_obs):
        acts = m.obs_actions(z)
        for n in range(k):
            targets, _res = memory_targets(n, k, topology)
            choices = [(a, t) for a in acts for t in targets]
            slots.append(((n, z), choices))
            count *= len(choices)
            if count > limit:
                raise ModelError(
                    "enumeration needs %d candidates, above the %d limit"
                    % (count, limit))
    best = None
    best_fsc = None
    better = (lambda a, b: a > b) if spec.maximizing else (lambda a, b: a < b)
    for combo in itertools.product(*[choices for _key, choices in slots]):
        action_map = {}
        memory_update = {}
        for ((n, z), _), (a, t) in zip(slots, combo):
            action_map[(n, z)] = {a: Fraction(1)}
            memory_update[(n, z, a)] = {t: Fraction(1)}
        fsc = Fsc(k, 0, action_map, memory_update)
        value = check_mc(induced_mc(m, fsc), spec)
        if best is None or better(value, best):
            best = value
            best_fsc = fsc
    return OracleResult(best_fsc, best, count)


# ---------------------------------------------------------------------------
# permissive regions


@dataclass
class PermissiveCandidate:
    region: Region
    witnesses: list
    verified: bool
    lower: object = None
    upper: object = None
    stats: dict = field(default_factory=dict)  # search_stats of the swarm runs


def permissive_from_witnesses(d: PmcT, spec: Specification, witnesses,
                              eps=Fraction(1, 10 ** 4)) -> PermissiveCandidate:
    """Bounding box of the witnesses, clipped to [eps, 1-eps], verified via
    the sound region bounds: verified means every point of the region
    satisfies the spec. The lower bounds hold at graph-preserving points
    only, so a region where an edge polynomial may vanish is never
    verified."""
    if not witnesses:
        raise ModelError("need at least one witness")
    eps = Fraction(eps)
    witnesses = [w if isinstance(w, Instantiation) else Instantiation(w)
                 for w in witnesses]
    intervals = {}
    for name in d.params.names:
        vals = [Fraction(w[name]) for w in witnesses]
        lo = max(min(vals), eps)
        hi = min(max(vals), 1 - eps)
        if lo > hi:  # witnesses all outside the band; clamp to a point
            lo = hi = min(max(min(vals), eps), 1 - eps)
        intervals[name] = (lo, hi)
    region = Region(intervals)
    b = region_bounds(d, region, spec)
    # graph-preserving region values sit inside [lower, upper]; the
    # pessimistic end satisfying the spec certifies every point
    bound = b.lower if spec.maximizing else b.upper
    verified = b.graph_preserving and spec.satisfied_by(bound)
    return PermissiveCandidate(region, witnesses, verified, b.lower, b.upper)


def find_permissive(d: PmcT, spec: Specification, cfg: SearchConfig | None = None,
                    num_witnesses: int = 3, max_attempts: int = 10) -> PermissiveCandidate:
    """Collect satisfying instantiations from seed-swept swarm runs and wrap
    them in a verified-or-not box region. With fewer witnesses than asked
    the region degenerates toward a point around the best one."""
    cfg = cfg or SearchConfig()
    codec = _SimplexCodec(d, cfg.min_prob)
    witnesses = []
    best = None
    runs = []
    for i in range(max_attempts):
        res = pso_search(d, spec, dataclasses.replace(cfg, seed=cfg.seed + i),
                         collect_satisfied=num_witnesses)
        runs.append(res)
        # float-sampled witnesses need an exact check; the swarm's best
        # point is already certified
        candidates = [certify(d, spec, codec.rationalize(x, d.params.names))[:3]
                      for x in res.satisfied_samples]
        candidates.append((res.instantiation, res.value, res.satisfied))
        for u, value, sat in candidates:
            if not sat:
                continue  # float verdict did not survive exact checking
            if all(u != w for w in witnesses):
                witnesses.append(u)
            if best is None or _value_better(value, best[1], spec):
                best = (u, value)
        if len(witnesses) >= num_witnesses:
            break
    if not witnesses:
        raise ModelError("no satisfying instantiation found; nothing to wrap")
    if len(witnesses) < num_witnesses:
        witnesses = [best[0]]
    cand = permissive_from_witnesses(d, spec, witnesses[:num_witnesses],
                                     eps=Fraction(repr(cfg.min_prob)))
    cand.stats = search_stats(runs)
    return cand


def _value_better(a, b, spec):
    if is_infinite(a):
        return spec.maximizing
    if is_infinite(b):
        return not spec.maximizing
    return a > b if spec.maximizing else a < b
