"""Model types: parametric chains, MDPs, POMDPs, instantiations, specifications.

Every number is exact: entries are Fractions or Polynomials over
Fractions, and an Instantiation reads a float through its shortest decimal
repr. Floats live only in the vectorized search evaluator of analysis.
apply_instantiation takes a pMC D and a valuation u to the chain D[u] in one
pass over the entries and rewards, and classifies u on the way: well-defined
(on the controller-family chains, u is then a controller), graph-preserving,
eps-preserving. Every point value and verdict reads that one result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .polynomials import Polynomial, MissingParameterError, _int_str, fraction_str


class ModelError(ValueError):
    """Semantic model defect (deadlock, bad row sum, inconsistency...)."""


class Infinite:
    """Sentinel for diverging expected rewards. Compares above every number."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return not isinstance(other, Infinite)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinite)

    def __repr__(self):
        return "infinity"

    def __float__(self):
        return float("inf")


INFINITE = Infinite()


def is_infinite(value) -> bool:
    import math

    return isinstance(value, Infinite) or (isinstance(value, float) and math.isinf(value))


def format_number(x) -> str:
    """Canonical text for an exact rational: integer, terminating decimal
    (up to 12 places), or a/b."""
    if isinstance(x, float):
        raise TypeError("refusing to serialize a float; rationalize first")
    f = Fraction(x)
    if f.denominator == 1:
        return _int_str(f.numerator)
    d = f.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    places = max(twos, fives)
    if d == 1 and places <= 12:
        scaled = f.numerator * 10 ** places // f.denominator
        digits = _int_str(abs(scaled)).rjust(places + 1, "0")
        sign = "-" if scaled < 0 else ""
        return "%s%s.%s" % (sign, digits[:-places], digits[-places:])
    return fraction_str(f)


# ---------------------------------------------------------------------------
# parameters and instantiations


class ParameterTable:
    """Ordered, distinct parameter names."""

    def __init__(self, names=()):
        self.names = list(names)
        if len(set(self.names)) != len(self.names):
            raise ModelError("duplicate parameter name")
        self.index = {n: i for i, n in enumerate(self.names)}

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self.index

    def __eq__(self, other):
        if not isinstance(other, ParameterTable):
            return NotImplemented
        return self.names == other.names

    def __repr__(self):
        return "ParameterTable(%r)" % (self.names,)


class Instantiation:
    """Maps parameter names to exact values (Fractions)."""

    def __init__(self, values: Mapping):
        # a float reads as its shortest decimal repr, which text round trips
        # keep; float() first, as NumPy 2 reprs a float64 as np.float64(0.1)
        self.values = {k: Fraction(v) if isinstance(v, (Fraction, int))
                       else Fraction(repr(float(v))) for k, v in values.items()}

    def __getitem__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise MissingParameterError(name) from None

    def __contains__(self, name):
        return name in self.values

    def get(self, name, default=None):
        return self.values.get(name, default)

    def items(self):
        return self.values.items()

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, Instantiation):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return "Instantiation(%r)" % (self.values,)


# ---------------------------------------------------------------------------
# specifications


_PROB_COMPARISONS = (">", ">=")
_ALL_COMPARISONS = (">", ">=", "<", "<=")

REACH_AVOID = "reach_avoid"
EXPECTED_REWARD = "expected_reward"


@dataclass(frozen=True)
class Specification:
    """Reach-avoid probability or expected-reward property with a threshold.

    reach_avoid: value = Pr[not bad until goal], comparison in {>, >=},
    threshold in [0, 1). expected_reward: value = E[reward until goal], opt
    says which direction a synthesizer optimizes.
    """

    kind: str
    comparison: str
    threshold: Fraction
    opt: str | None = None
    goal_label: str = "goal"
    bad_label: str | None = "bad"

    def __post_init__(self):
        # models carry exactly these two labels
        if self.goal_label != "goal":
            raise ModelError("unknown target label %r: models label only 'goal'"
                             % self.goal_label)
        if self.bad_label not in (None, "bad"):
            raise ModelError("unknown avoid label %r: models label only 'bad'"
                             % self.bad_label)
        if self.kind == REACH_AVOID:
            if self.comparison not in _PROB_COMPARISONS:
                raise ModelError("probability specs use > or >=")
            if not (0 <= self.threshold < 1):
                raise ModelError(
                    "probability threshold %s outside [0, 1)" % self.threshold
                )
        elif self.kind == EXPECTED_REWARD:
            if self.comparison not in _ALL_COMPARISONS:
                raise ModelError("bad comparison %r" % self.comparison)
            if self.opt not in ("min", "max"):
                raise ModelError("expected-reward spec needs opt min|max")
        else:
            raise ModelError("unknown specification kind %r" % self.kind)

    def satisfied_by(self, value) -> bool:
        if is_infinite(value):
            return self.comparison in (">", ">=")
        t = self.threshold
        if self.comparison == ">":
            return value > t
        if self.comparison == ">=":
            return value >= t
        if self.comparison == "<":
            return value < t
        return value <= t

    @property
    def maximizing(self) -> bool:
        """Whether larger values are better for a synthesizer."""
        if self.kind == REACH_AVOID:
            return True
        return self.opt == "max"

    def __str__(self):
        ts = format_number(self.threshold)
        if self.kind == REACH_AVOID:
            if self.bad_label is None:
                return "P%s %s [F %s]" % (self.comparison, ts, self.goal_label)
            return "P%s %s [!%s U %s]" % (self.comparison, ts, self.bad_label, self.goal_label)
        return "E%s%s %s [F %s]" % (self.opt, self.comparison, ts, self.goal_label)


_P_SPEC = re.compile(
    r"^\s*P\s*(>=|>)\s*(\S+?)\s*\[\s*!\s*([A-Za-z_]\w*)\s+U\s+([A-Za-z_]\w*)\s*\]\s*$"
)
_PF_SPEC = re.compile(
    r"^\s*P\s*(>=|>)\s*(\S+?)\s*\[\s*F\s+([A-Za-z_]\w*)\s*\]\s*$"
)
_E_SPEC = re.compile(
    r"^\s*E\s*(min|max)\s*(<=|>=|<|>)\s*(\S+?)\s*\[\s*F\s+([A-Za-z_]\w*)\s*\]\s*$"
)


def _parse_threshold(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ModelError("cannot parse threshold %r" % tok) from None


def parse_spec(text: str) -> Specification:
    """Parse a property string.

    Probability forms: ``P> 0.9 [!bad U goal]`` (also >=) and the avoid-free
    ``P> 0.9 [F goal]``. Reward form: ``Emin<= 10.5 [F goal]`` with min|max
    and any of < <= > >=. Thresholds are decimals or fractions, read exactly.
    The target label must be goal and the avoid label bad, the only labels
    a model carries.
    """
    m = _P_SPEC.match(text)
    if m:
        cmp_, thr, bad_label, goal_label = m.groups()
        return Specification(REACH_AVOID, cmp_, _parse_threshold(thr),
                             goal_label=goal_label, bad_label=bad_label)
    m = _PF_SPEC.match(text)
    if m:
        cmp_, thr, goal_label = m.groups()
        return Specification(REACH_AVOID, cmp_, _parse_threshold(thr),
                             goal_label=goal_label, bad_label=None)
    m = _E_SPEC.match(text)
    if m:
        opt, cmp_, thr, goal_label = m.groups()
        return Specification(EXPECTED_REWARD, cmp_, _parse_threshold(thr),
                             opt=opt, goal_label=goal_label, bad_label=None)
    raise ModelError("cannot parse specification %r" % text)


# ---------------------------------------------------------------------------
# models


def _check_state(s, n, what):
    if not isinstance(s, int) or not 0 <= s < n:
        raise ModelError("%s references unknown state %r" % (what, s))


class Mdp:
    """Concrete MDP: rows (state, action label) -> {succ: Fraction}, rows sum to 1."""

    def __init__(self, num_states, initial, trans, rewards=None, goal=(), bad=(),
                 meta=None, validate=True):
        self.num_states = num_states
        self.initial = initial
        self.trans = trans  # {(s, a): {t: Fraction}}
        self.rewards = dict(rewards or {})
        self.goal = frozenset(goal)
        self.bad = frozenset(bad)
        self.meta = dict(meta or {})
        self._actions = None
        if validate:
            self._validate()

    @property
    def states(self):
        return range(self.num_states)

    def actions(self, s) -> list:
        """Sorted action labels enabled at s, tabled once for all states."""
        if self._actions is None:
            table = {}
            for s2, a in self.trans:
                table.setdefault(s2, []).append(a)
            for acts in table.values():
                acts.sort()
            self._actions = table
        return self._actions.get(s, [])

    def row(self, s, a):
        return self.trans[(s, a)]

    def _validate(self):
        _check_state(self.initial, self.num_states, "initial")
        seen = set()
        for (s, a), row in self.trans.items():
            _check_state(s, self.num_states, "transition source")
            seen.add(s)
            total = Fraction(0)
            for t, p in row.items():
                _check_state(t, self.num_states, "transition target")
                if not isinstance(p, Fraction) or p <= 0 or p > 1:
                    raise ModelError(
                        "probability %r at (%d,%s,%d) outside (0,1]" % (p, s, a, t)
                    )
                total += p
            if total != 1:
                raise ModelError("row (%d,%s) sums to %s, expected 1" % (s, a, total))
        for s in range(self.num_states):
            if s not in seen:
                raise ModelError("state %d has no enabled action (deadlock)" % s)
        if self.goal & self.bad:
            raise ModelError("goal and bad labels overlap")
        for (s, a), r in self.rewards.items():
            if (s, a) not in self.trans:
                raise ModelError("reward on missing row (%d,%s)" % (s, a))
            if r < 0:
                raise ModelError("negative reward at (%d,%s)" % (s, a))

    def __eq__(self, other):
        if not isinstance(other, Mdp):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.initial == other.initial
            and self.trans == other.trans
            and self.rewards == other.rewards
            and self.goal == other.goal
            and self.bad == other.bad
        )


class Pomdp:
    """POMDP over a concrete underlying MDP.

    obs[s] is the observation id of state s; states with equal observations
    must enable identical action sets (checked). Every observation id below
    num_obs must be used by some state.
    """

    def __init__(self, mdp: Mdp, num_obs: int, obs, meta=None, validate=True):
        self.mdp = mdp
        self.num_obs = num_obs
        self.obs = tuple(obs)
        self.meta = dict(meta or {})
        self._obs_actions = None
        if validate:
            self._validate()

    # delegation
    @property
    def num_states(self):
        return self.mdp.num_states

    @property
    def states(self):
        return self.mdp.states

    @property
    def initial(self):
        return self.mdp.initial

    @property
    def trans(self):
        return self.mdp.trans

    @property
    def rewards(self):
        return self.mdp.rewards

    @property
    def goal(self):
        return self.mdp.goal

    @property
    def bad(self):
        return self.mdp.bad

    def actions(self, s):
        return self.mdp.actions(s)

    def obs_actions(self, z) -> list:
        """Action set A(z), shared by construction among states observing z."""
        if self._obs_actions is None:
            table = {}
            for s in self.states:
                table.setdefault(self.obs[s], self.mdp.actions(s))
            self._obs_actions = table
        return self._obs_actions[z]

    def _validate(self):
        if len(self.obs) != self.mdp.num_states:
            raise ModelError(
                "observation list has %d entries for %d states"
                % (len(self.obs), self.mdp.num_states)
            )
        used = {}
        for s, z in enumerate(self.obs):
            if not 0 <= z < self.num_obs:
                raise ModelError("state %d observes unknown observation %d" % (s, z))
            used.setdefault(z, s)
        for z in range(self.num_obs):
            if z not in used:
                raise ModelError("observation %d declared but never used" % z)
        # same observation => same action set
        rep = {}
        for s in self.states:
            z = self.obs[s]
            acts = self.mdp.actions(s)
            if z in rep:
                s0, acts0 = rep[z]
                if acts0 != acts:
                    raise ModelError(
                        "states %d and %d share observation %d but enable %s vs %s"
                        % (s0, s, z, acts0, acts)
                    )
            else:
                rep[z] = (s, acts)

    def __eq__(self, other):
        if not isinstance(other, Pomdp):
            return NotImplemented
        return (
            self.mdp == other.mdp
            and self.num_obs == other.num_obs
            and self.obs == other.obs
        )


class PmcT:
    """Parametric Markov chain: rows state -> {successor: Polynomial}.

    `simple` records whether every entry is a constant, a bare parameter p,
    or 1-p. `param_groups`, when present, lists parameter groups whose values
    (plus an implicit residual) must form a probability distribution; the
    induced/substituted constructions record them, parsed pMCs normally have
    none (but simple pMCs get singleton groups inferred, see
    `ensure_param_groups`).
    """

    def __init__(self, num_states, initial, trans, params=None, rewards=None,
                 goal=(), bad=(), param_groups=None, meta=None, validate=True):
        self.num_states = num_states
        self.initial = initial
        self.trans = trans  # {s: {t: Polynomial}}
        self.params = params if params is not None else ParameterTable()
        self.rewards = dict(rewards or {})  # {s: Polynomial}
        self.goal = frozenset(goal)
        self.bad = frozenset(bad)
        self.param_groups = param_groups
        self.meta = dict(meta or {})
        self._simple = None
        if validate:
            self._validate()

    @property
    def states(self):
        return range(self.num_states)

    def row(self, s):
        return self.trans.get(s, {})

    def _validate(self):
        _check_state(self.initial, self.num_states, "initial")
        for s in range(self.num_states):
            row = self.trans.get(s)
            if not row:
                raise ModelError("state %d has no outgoing transition (deadlock)" % s)
            entries = list(row.items())
            for t, p in entries:
                _check_state(t, self.num_states, "transition target")
                if not isinstance(p, Polynomial):
                    raise ModelError("Polynomial entry expected at (%d,%d)" % (s, t))
                if p.is_zero():
                    raise ModelError("explicit zero entry at (%d,%d)" % (s, t))
                for name in p.variables():
                    if name not in self.params:
                        raise ModelError(
                            "undeclared parameter '%s' in row of state %d" % (name, s)
                        )
                if len(entries) == 1 and not (p.is_constant() and p.constant_value() == 1):
                    raise ModelError(
                        "state %d has a single branch with probability %s; "
                        "non-Dirac rows need at least two successors" % (s, p)
                    )
        if self.goal & self.bad:
            raise ModelError("goal and bad labels overlap")
        for s in self.goal | self.bad:
            _check_state(s, self.num_states, "label")
        for s, r in self.rewards.items():
            _check_state(s, self.num_states, "reward")
            if not isinstance(r, Polynomial):
                raise ModelError("reward entries must be Polynomials")
            for name in r.variables():
                if name not in self.params:
                    raise ModelError(
                        "undeclared parameter '%s' in reward of state %d" % (name, s))

    @property
    def simple(self) -> bool:
        """True iff every entry is a constant, a parameter p, or 1-p."""
        if self._simple is None:
            self._simple = all(
                _entry_is_simple(p) for row in self.trans.values() for p in row.values()
            )
        return self._simple

    def rows_in_simple_form(self) -> bool:
        """Entry-wise simple and every row either all-constant summing to 1
        or exactly {p, 1-p} for one parameter."""
        if not self.simple:
            return False
        for s in self.states:
            total = Polynomial()
            for p in self.row(s).values():
                total = total + p
            if not (total.is_constant() and total.constant_value() == 1):
                return False
        return True

    def ensure_param_groups(self):
        """Groups for the synthesis simplex structure.

        Recorded groups win; otherwise simple pMCs get one singleton group per
        parameter (p plus residual 1-p). Raises for non-simple pMCs without
        recorded structure.
        """
        if self.param_groups is not None:
            return self.param_groups
        if self.simple:
            return [[n] for n in self.params.names]
        raise ModelError(
            "pMC has no recorded parameter-group structure and is not simple"
        )

    def __eq__(self, other):
        if not isinstance(other, PmcT):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.initial == other.initial
            and self.trans == other.trans
            and self.rewards == other.rewards
            and self.goal == other.goal
            and self.bad == other.bad
            and self.params == other.params
        )


def _entry_is_simple(p: Polynomial) -> bool:
    if p.is_constant():
        return True
    if len(p.terms) == 1:
        ((mono, c),) = p.terms.items()
        return c == 1 and len(mono) == 1 and mono[0][1] == 1
    if len(p.terms) == 2 and () in p.terms and p.terms[()] == 1:
        others = [(m, c) for m, c in p.terms.items() if m != ()]
        ((mono, c),) = others
        return c == -1 and len(mono) == 1 and mono[0][1] == 1
    return False


class Mc:
    """Concrete Markov chain with exact entries, rows summing to exactly 1.
    State ids need not be contiguous (products keep their full-space
    numbering and retain only the reachable fragment)."""

    def __init__(self, states, initial, trans, rewards=None, goal=(), bad=(),
                 meta=None, validate=True):
        self.states = tuple(sorted(states))
        self.initial = initial
        self.trans = trans  # {s: {t: number}}
        self.rewards = dict(rewards or {})  # {s: number}
        self.goal = frozenset(goal)
        self.bad = frozenset(bad)
        self.meta = dict(meta or {})
        if validate:
            self._validate()

    def row(self, s):
        return self.trans.get(s, {})

    def _validate(self):
        sset = set(self.states)
        if self.initial not in sset:
            raise ModelError("initial state %r missing" % (self.initial,))
        for s in self.states:
            row = self.trans.get(s)
            if not row:
                raise ModelError("state %r has no outgoing transition" % (s,))
            total = sum(row.values())
            if total != 1:
                raise ModelError("row %r sums to %s" % (s, total))
            for t, p in row.items():
                if t not in sset:
                    raise ModelError("edge %r -> %r leaves the state set" % (s, t))
                if isinstance(p, float) or p < 0 or p > 1:
                    raise ModelError("probability %r at (%r,%r) must be an exact "
                                     "number in [0, 1]" % (p, s, t))
        if self.goal & self.bad:
            raise ModelError("goal and bad labels overlap")

    def __eq__(self, other):
        if not isinstance(other, Mc):
            return NotImplemented
        return (
            self.states == other.states
            and self.initial == other.initial
            and self.trans == other.trans
            and self.rewards == other.rewards
            and self.goal == other.goal
            and self.bad == other.bad
        )


# ---------------------------------------------------------------------------
# instantiation


@dataclass
class WellDefinedness:
    """The chain D[u] a valuation u instantiates, and what kind of point u is.

    model holds every nonzero entry and every reward of D[u], all exact; its
    rows may be defective when u is not well-defined. graph_preserving:
    well-defined and every non-constant entry strictly inside (0, 1).
    eps_preserving, None unless an eps was given: well-defined and every
    non-constant entry inside [eps, 1 - eps]. defects name what breaks well-definedness, or,
    at a well-defined point, the entries at a boundary value.
    """

    model: Mc
    well_defined: bool
    graph_preserving: bool
    eps_preserving: bool | None
    defects: list


def _group_defects(groups, u) -> list:
    """Sub-distribution constraints from parameter groups (None for none).

    Groups catch strategy-level defects that edge sums can hide: a negative
    residual inside one summand may cancel against a positive sibling term.
    """
    defects = []
    for group in groups or ():
        total = 0
        for name in group:
            v = u[name]
            if v < 0 or v > 1:
                defects.append("parameter %s = %s outside [0, 1]" % (name, v))
            total = total + v
        if total > 1:
            defects.append(
                "group {%s} sums to %s; residual branch weight %s is negative"
                % (", ".join(group), total, 1 - total)
            )
    return defects


def apply_instantiation(model, u, eps=None) -> WellDefinedness:
    """D[u]: one pass that evaluates every entry and reward of a PmcT at u
    once, exactly (a float in u reads as its decimal repr), compares each
    row sum with 1 exactly, and classifies the point on the way (see
    WellDefinedness).

    Never raises on a bad valuation: the result is tagged not-well-defined
    with a defect list naming the offending parameter groups, entries and
    rows. The chain is not validated again: the pass has checked every
    entry range and row sum, and the PmcT its labels and initial state.
    Graph- and eps-preservation are entry-level; on non-simple pMCs an
    entry can be a product of parameters, so eps-preservation of entries is
    stronger than parameter-level min-eps.
    """
    if not isinstance(model, PmcT):
        raise TypeError("apply_instantiation expects a PmcT")
    if not isinstance(u, Instantiation):
        u = Instantiation(u)
    defects = _group_defects(model.param_groups, u)
    values = u.values
    boundary = []
    epsp = eps is not None
    trans = {}
    for s in model.states:
        row_out = {}
        total = 0
        for t, p in model.row(s).items():
            v = p.evaluate(values)
            if v < 0 or v > 1:
                defects.append("entry (%d,%d) evaluates to %s" % (s, t, v))
            elif not p.is_constant():
                if not 0 < v < 1:
                    boundary.append("entry (%d,%d) evaluates to boundary value %s"
                                    % (s, t, v))
                if epsp and not eps <= v <= 1 - eps:
                    epsp = False
            total += v
            if v != 0:
                row_out[t] = v
        if total != 1:
            defects.append("row of state %d sums to %s" % (s, total))
        trans[s] = row_out
    rewards = {s: r.evaluate(values) for s, r in model.rewards.items()}
    mc = Mc(list(model.states), model.initial, trans, rewards,
            model.goal, model.bad, meta=dict(model.meta), validate=False)
    ok = not defects
    return WellDefinedness(mc, ok, ok and not boundary,
                           ok and epsp if eps is not None else None,
                           defects if not ok else boundary)


# the well-definedness verdict is the same pass
check_well_defined = apply_instantiation
