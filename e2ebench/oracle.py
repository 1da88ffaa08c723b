"""Reference computations that share no code with fscsynth.

The benchmark checks every program output against these: its own POMDP
parser, product construction of a POMDP with a controller, NumPy and
Fraction linear solves, and value iteration for the fully observable
optimum. They only need to be right, not fast, on the workload sizes.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from gen import ChainPomdp

# value iteration stops after SWEEPS sweeps or once no value moves by more than VI_TOL
SWEEPS = 100000
VI_TOL = 1e-14


def parse_pomdp(text: str) -> ChainPomdp:
    """Reads the POMDP text format (the subset `fscsynth transform` writes)."""
    n = num_obs = initial = None
    obs = {}
    trans = {}
    goal, bad = set(), set()
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks or toks == ["pomdp"]:
            continue
        kw = toks[0]
        if kw == "states":
            n = int(toks[1])
        elif kw == "initial":
            initial = int(toks[1])
        elif kw == "observations":
            num_obs = int(toks[1])
        elif kw == "obs":
            obs[int(toks[1])] = int(toks[2])
        elif kw == "trans":
            trans.setdefault((int(toks[1]), toks[2]), {})[int(toks[3])] = Fraction(toks[4])
        elif kw == "label":
            (goal if toks[1] == "goal" else bad).update(int(t) for t in toks[2:])
        else:
            raise ValueError("unexpected POMDP line %r" % raw)
    return ChainPomdp(n, num_obs, [obs[s] for s in range(n)], trans,
                      frozenset(goal), frozenset(bad), initial)


def obs_actions(m: ChainPomdp) -> dict:
    acts = {}
    for (s, a) in m.trans:
        acts.setdefault(m.obs[s], set()).add(a)
    return {z: sorted(v) for z, v in acts.items()}


# ---------------------------------------------------------------------------
# controllers as joint (action, next node) distributions per (node, obs)


def joint_from_params(m: ChainPomdp, k: int, values: dict, variant: str) -> dict:
    """Controller denoted by a parameter valuation of the chain `fscsynth
    transform` builds: `standard` (k = 1 only; p_z_0_a for all actions but
    the last, which takes the rest) or `substituted` (r_z_n_t_a for every
    (action, next node) pair but the last one, which takes the rest)."""
    joint = {}
    for z, acts in obs_actions(m).items():
        for n in range(k):
            if variant == "standard":
                if k != 1:
                    raise ValueError("standard chains are checked for k = 1 only")
                pairs = [(a, 0) for a in acts]
                name = lambda a, t: "p_%d_%d_%s" % (z, n, a)  # noqa: E731
            else:
                pairs = [(a, t) for a in acts for t in range(k)]
                name = lambda a, t: "r_%d_%d_%d_%s" % (z, n, t, a)  # noqa: E731
            row = {pair: values[name(*pair)] for pair in pairs[:-1]}
            row[pairs[-1]] = 1 - sum(row.values())
            joint[(n, z)] = row
    return joint


def joint_from_fsc_text(text: str) -> tuple:
    """(nodes, initial node, joint) from a `.fsc` file; probabilities are
    Fractions as written."""
    nodes = init = None
    act = {}
    upd = {}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks or toks == ["fsc"]:
            continue
        if toks[0] == "nodes":
            nodes = int(toks[1])
        elif toks[0] == "init":
            init = int(toks[1])
        elif toks[0] == "act":
            act[(int(toks[1]), int(toks[2]))] = {
                a: Fraction(p) for a, p in (t.rsplit(":", 1) for t in toks[3:])}
        elif toks[0] == "upd":
            upd[(int(toks[1]), int(toks[2]), toks[3])] = {
                int(t): Fraction(p) for t, p in (x.rsplit(":", 1) for x in toks[4:])}
        else:
            raise ValueError("unexpected controller line %r" % raw)
    joint = {}
    for (n, z), dist in act.items():
        joint[(n, z)] = {(a, t): pa * pt for a, pa in dist.items()
                         for t, pt in upd[(n, z, a)].items()}
    return nodes, init, joint, act, upd


# ---------------------------------------------------------------------------
# product chain and its reach-avoid value


def product_chain(m: ChainPomdp, k: int, joint: dict, init_node: int = 0):
    """Reachable product states (s, n) and rows {succ: prob}; goal and bad
    states are made absorbing, as only reaching them matters."""
    start = (m.initial, init_node)
    rows = {}
    stack = [start]
    seen = {start}
    while stack:
        s, n = stack.pop()
        if s in m.goal or s in m.bad:
            rows[(s, n)] = {}
            continue
        row = {}
        for (a, t), p in joint[(n, m.obs[s])].items():
            if p == 0:
                continue
            for s2, q in m.trans[(s, a)].items():
                key = (s2, t)
                row[key] = row.get(key, 0) + p * q
                if key not in seen:
                    seen.add(key)
                    stack.append(key)
        rows[(s, n)] = row
    return start, rows


def _maybe_states(m: ChainPomdp, rows: dict) -> list:
    """States that reach a goal state with positive probability."""
    preds = {}
    for s, row in rows.items():
        for t, p in row.items():
            if p:
                preds.setdefault(t, []).append(s)
    win = {s for s in rows if s[0] in m.goal}
    stack = list(win)
    while stack:
        t = stack.pop()
        for s in preds.get(t, ()):
            if s not in win and s[0] not in m.bad:
                win.add(s)
                stack.append(s)
    return sorted(s for s in win if s[0] not in m.goal)


def reach_value(m: ChainPomdp, k: int, joint: dict, init_node: int = 0,
                exact: bool = False):
    """Probability of reaching goal before bad under the controller: a
    dense NumPy solve, or Fraction Gauss-Jordan elimination when exact."""
    start, rows = product_chain(m, k, joint, init_node)
    if start[0] in m.goal:
        return Fraction(1) if exact else 1.0
    maybe = _maybe_states(m, rows)
    if start not in maybe:
        return Fraction(0) if exact else 0.0
    idx = {s: i for i, s in enumerate(maybe)}
    size = len(maybe)
    if not exact:
        A = np.eye(size)
        b = np.zeros(size)
        for s in maybe:
            for t, p in rows[s].items():
                if t in idx:
                    A[idx[s], idx[t]] -= float(p)
                elif t[0] in m.goal:
                    b[idx[s]] += float(p)
        return float(np.linalg.solve(A, b)[idx[start]])
    M = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for s in maybe:
        i = idx[s]
        M[i][i] += 1
        for t, p in rows[s].items():
            if t in idx:
                M[i][idx[t]] -= p
            elif t[0] in m.goal:
                M[i][size] += p
    return _gauss_jordan(M)[idx[start]]


def _gauss_jordan(M):
    n = len(M)
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [v * inv for v in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [row[n] for row in M]


def mdp_upper_bound(m: ChainPomdp) -> float:
    """Fully observable reach-avoid optimum, approached from above.

    Value iteration started at 1 stays an upper bound after every sweep.
    It converges to the optimum because every corridor action moves
    forward with positive probability, so no end component avoids the
    terminal states."""
    x = {s: (0.0 if s in m.bad else 1.0) for s in range(m.num_states)}
    acts = {}
    for (s, a), row in m.trans.items():
        acts.setdefault(s, []).append([(t, float(p)) for t, p in row.items()])
    for _ in range(SWEEPS):
        delta = 0.0
        for s in range(m.num_states):
            if s in m.goal or s in m.bad:
                continue
            v = max(sum(p * x[t] for t, p in row) for row in acts[s])
            delta = max(delta, x[s] - v)
            x[s] = v
        if delta <= VI_TOL:
            break
    return x[m.initial]


# ---------------------------------------------------------------------------
# CLI output


_VALUE_RE = re.compile(r"^(?:value|bound) = (-?\d+(?:/\d+)?) \(~ [^)]*\)$", re.M)


def printed_value(stdout: str, word: str = "value") -> Fraction:
    for m in _VALUE_RE.finditer(stdout):
        if m.group(0).startswith(word):
            return Fraction(m.group(1))
    raise ValueError("no '%s = ...' line in output" % word)


def printed_flag(stdout: str, key: str) -> bool:
    m = re.search(r"^%s: (yes|no)\b" % re.escape(key), stdout, re.M)
    if m is None:
        raise ValueError("no '%s:' line in output" % key)
    return m.group(1) == "yes"


def read_closed_form(text: str):
    """The `.fn` expression as a sympy expression (comments skipped)."""
    import sympy

    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if len(lines) != 1:
        raise ValueError("expected one expression line, found %d" % len(lines))
    return sympy.sympify(lines[0], rational=True)
