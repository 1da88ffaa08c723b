"""Seeded POMDP generator and the benchmark's own writers for input files.

Every model is a corridor ("chain") POMDP: states 0..n-1 in a line, the goal
at the far end and a few absorbing bad states spread along it. Each
non-terminal action moves forward one or two steps, falls back a few steps,
or drops into the next bad state, with weights drawn from the seed. Goal and
bad states share one terminal observation with the single action `stay`.

Two random sources: a fixed per-model shape seed draws the graph, the run's
seed draws the transition weights (and, in `workloads.py`, the
instantiation points). Keeping the graph fixed while the numbers vary makes
every seed do nearly the same amount of work, which the run-to-run bounds in
BENCHMARK.json need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

STAY = "stay"
BACK = 3          # a corridor action falls back at most this many steps
DENOM = 23        # transition weights are multiples of 1/DENOM (a prime)
BAD_WEIGHT = 2    # a drop into a bad state weighs BAD_WEIGHT/DENOM


@dataclass
class ChainPomdp:
    num_states: int
    num_obs: int
    obs: list            # obs[s]
    trans: dict          # (s, action) -> {t: Fraction}
    goal: frozenset
    bad: frozenset
    initial: int = 0

    def text(self) -> str:
        out = ["pomdp", "states %d" % self.num_states, "initial %d" % self.initial,
               "observations %d" % self.num_obs]
        out += ["obs %d %d" % (s, z) for s, z in enumerate(self.obs)]
        for (s, a) in sorted(self.trans):
            for t, p in sorted(self.trans[(s, a)].items()):
                out.append("trans %d %s %d %s" % (s, a, t, _num(p)))
        out.append("label goal " + " ".join(map(str, sorted(self.goal))))
        if self.bad:
            out.append("label bad " + " ".join(map(str, sorted(self.bad))))
        return "\n".join(out) + "\n"


def _num(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _split(rng, total, parts):
    """`parts` positive multiples of 1/DENOM summing to total/DENOM: a
    random composition, so every seed writes numbers of the same length."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [Fraction(b - a, DENOM) for a, b in zip(bounds, bounds[1:])]


def _bad_positions(n, num_bad):
    """Evenly spaced bad states strictly between the start and the goal."""
    if num_bad == 0:
        return []
    step = (n - 2) / (num_bad + 1)
    return sorted({max(2, min(n - 3, round(step * (i + 1)))) for i in range(num_bad)})


def chain_pomdp(shape: random.Random, rng: random.Random, num_states: int,
                num_obs: int, num_bad: int, actions: tuple = (2, 3),
                p_back: float = 0.5, p_bad: float = 0.5) -> ChainPomdp:
    """One corridor POMDP; `num_obs` counts the terminal observation 0.

    `shape` draws the graph (observation shift and successor sets), `rng`
    the transition weights.

    Corridor states observe 1..num_obs-1 round robin (shifted by `shape`),
    so every observation is shared by several states. Observation z enables
    actions[z % len(actions)] actions. Each action moves forward one or two
    steps; with probability p_back it may also fall back up to BACK steps,
    and with probability p_bad drop into the next bad state.
    """
    if num_obs < 2 or num_states < num_obs + num_bad + 2:
        raise ValueError("chain too small for its observations")
    n = num_states
    goal = n - 1
    bad = _bad_positions(n, num_bad)
    terminal = set(bad) | {goal}
    shift = shape.randrange(num_obs - 1)
    obs = []
    i = 0
    for s in range(n):
        if s in terminal:
            obs.append(0)
        else:
            obs.append(1 + (i + shift) % (num_obs - 1))
            i += 1
    trans = {}
    for s in range(n):
        if s in terminal:
            trans[(s, STAY)] = {s: Fraction(1)}
            continue
        z = obs[s]
        next_bad = next((b for b in bad if b > s), None)
        for j in range(actions[z % len(actions)]):
            succ = {min(goal, s + 1 + j % 2)}
            if s > 0 and shape.random() < p_back:
                succ.add(max(0, s - shape.randint(1, BACK)))
            if next_bad is not None and shape.random() < p_bad:
                succ.add(next_bad)
            if len(succ) == 1:
                succ.add(min(goal, s + 2 - j % 2))
            if len(succ) == 1:
                succ.add(s)
            risky = next_bad in succ
            rest = sorted(succ - {next_bad})
            row = dict(zip(rest, _split(rng, DENOM - BAD_WEIGHT * risky, len(rest))))
            if risky:
                row[next_bad] = Fraction(BAD_WEIGHT, DENOM)
            trans[(s, "a%d" % j)] = row
    return ChainPomdp(n, num_obs, obs, trans, frozenset({goal}), frozenset(bad))


def float_instantiation(rng: random.Random, groups) -> dict:
    """A strictly interior point of every parameter simplex, written with
    full float precision (repr), as a swarm search would emit it."""
    values = {}
    for group in groups:
        w = [rng.uniform(0.2, 1.0) for _ in range(len(group) + 1)]
        tot = sum(w)
        for name, wi in zip(group, w):
            values[name] = wi / tot
    return values


def write_instantiation(values: dict) -> str:
    return "".join("%s = %r\n" % (name, values[name]) for name in sorted(values))


def write_region(box: dict) -> str:
    return "".join("%s in [%s, %s]\n" % (name, _num(lo), _num(hi))
                   for name, (lo, hi) in sorted(box.items()))


def parse_groups(text: str) -> list:
    """Reads a `.params` sidecar written by `fscsynth transform`."""
    groups = []
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if toks and toks[0] == "group":
            groups.append(toks[1:])
    return groups
