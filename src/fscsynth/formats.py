"""Line-oriented text formats: POMDPs, pMCs, controllers, instantiations,
regions, parameter groups, and closed-form expressions.

All formats are UTF-8 with `#` comments. Numbers are exact rationals, written
as integers, terminating decimals, or a/b fractions. Syntax errors carry line
(and for expressions, column) positions; semantic defects re-use the model
validation messages.

pMC entries are polynomials, read by one of two routes (parse_poly): text
in the form Polynomial.__str__ prints, which is every entry write_pmc writes,
is read by polynomials._read_printed, directly into the packed store with
int arithmetic; any other text (parentheses, `^`, decimals, other spacing)
goes through the one recursive-descent grammar over rational functions,
whose denominator must then be constant. Entries are written the same way
round: write_pmc and write_rational_function print Polynomial.__str__,
which reads the packed store's int coefficients without a Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fsc import Fsc
from .models import (
    Instantiation,
    Mdp,
    ModelError,
    ParameterTable,
    PmcT,
    Pomdp,
    format_number,
)
from .polynomials import _PRINTED_RE, Polynomial, RationalFunction, _read_printed, _unlimited


class FormatError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            loc = "line %d" % line
            if col:
                loc += ", col %d" % col
            message = "%s: %s" % (loc, message)
        super().__init__(message)


# ---------------------------------------------------------------------------
# numbers


def parse_number(tok: str, line=None) -> Fraction:
    try:
        try:
            return Fraction(tok)
        except ValueError:  # malformed, or past the int/str digit limit
            return _unlimited(Fraction, tok)
    except (ValueError, ZeroDivisionError):
        raise FormatError("cannot parse number %r" % tok, line) from None


def _int(tok: str, line, what="integer") -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError("expected %s, got %r" % (what, tok), line) from None


_NAME_RE = re.compile(r"[A-Za-z_]\w*$")


def _check_name(tok: str, line) -> str:
    if not _NAME_RE.match(tok):
        raise FormatError("invalid identifier %r" % tok, line)
    return tok


# ---------------------------------------------------------------------------
# expressions
#
# expr   := term (('+' | '-') term)*
# term   := unary (('*' | '/') unary)*
# unary  := '-' unary | power
# power  := atom ('^' integer)?
# atom   := number | name | '(' expr ')'
#
# This is a superset of the polynomial grammar used in pMC files (which the
# writers stick to); division is only fully general in closed-form files.


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()])"
)


class _ExprParser:
    """Recursive-descent parser over RationalFunction values."""

    def __init__(self, text: str, line=None, col_offset: int = 0):
        self.line = line
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise FormatError(
                    "unexpected character %r in expression" % text[pos],
                    line, col_offset + pos + 1,
                )
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), col_offset + pos + 1))
            pos = m.end()
        self.i = 0
        self.end_col = col_offset + len(text)

    def _peek_op(self):
        if self.i < len(self.tokens) and self.tokens[self.i][0] == "op":
            return self.tokens[self.i][1]
        return None

    def _next(self):
        if self.i >= len(self.tokens):
            raise FormatError("unexpected end of expression", self.line, self.end_col)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _divide(self, v, rhs, col):
        if rhs.num.is_zero():
            raise FormatError("division by zero", self.line, col)
        return v / rhs

    def parse(self):
        v = self._expr()
        if self.i < len(self.tokens):
            kind, text, col = self.tokens[self.i]
            raise FormatError("unexpected %r after expression" % text, self.line, col)
        return v

    def _expr(self):
        v = self._term()
        while self._peek_op() in ("+", "-"):
            op = self._next()[1]
            rhs = self._term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def _term(self):
        v = self._unary()
        while self._peek_op() in ("*", "/"):
            _, op, col = self.tokens[self.i]
            self.i += 1
            rhs = self._unary()
            v = v * rhs if op == "*" else self._divide(v, rhs, col)
        return v

    def _unary(self):
        if self._peek_op() == "-":
            self._next()
            return -self._unary()
        return self._power()

    def _power(self):
        v = self._atom()
        if self._peek_op() == "^":
            self._next()
            kind, text, col = self._next()
            if kind != "num" or not text.isdigit():
                raise FormatError("exponent must be a nonnegative integer", self.line, col)
            e = int(text)
            return RationalFunction(v.num ** e, v.den ** e)
        return v

    def _atom(self):
        kind, text, col = self._next()
        if kind == "num":
            try:
                c = Fraction(text)
            except ValueError:  # past the int/str digit limit
                c = _unlimited(Fraction, text)
            return RationalFunction.constant(c)
        if kind == "name":
            return RationalFunction(Polynomial.variable(text))
        if text == "(":
            v = self._expr()
            kind2, text2, col2 = self._next()
            if text2 != ")":
                raise FormatError("expected ')', got %r" % text2, self.line, col2)
            return v
        raise FormatError("unexpected %r in expression" % text, self.line, col)


def parse_expression(text: str, line=None, col_offset: int = 0) -> RationalFunction:
    return _ExprParser(text, line, col_offset).parse()


def parse_poly(text: str, line=None, col_offset: int = 0) -> Polynomial:
    """Parse an expression that must denote a polynomial (constant
    denominators fold into the coefficients). Two routes:

    1. Text in the form Polynomial.__str__ prints (every entry write_pmc
       writes) is read directly with int arithmetic by
       polynomials._read_printed.
    2. Any other text is parsed as a rational function, which must then
       have a constant denominator.

    Both give the same store for the same text; errors (messages, lines
    and columns) come from route 2 only."""
    if _PRINTED_RE.fullmatch(text):
        try:
            p = _read_printed(text)
        except ValueError:  # a number past the int/str digit limit
            p = _unlimited(_read_printed, text)
        if p is not None:
            return p
    rf = parse_expression(text, line, col_offset)
    if not rf.den.is_constant():
        raise FormatError(
            "expression %r divides by a parametric expression; "
            "a polynomial is required here" % text.strip(), line, col_offset + 1,
        )
    c = rf.den.constant_value()
    if c == 1:
        return rf.num
    return rf.num * Polynomial.constant(Fraction(1, 1) / c)


# ---------------------------------------------------------------------------
# shared line handling


def _content_lines(text: str):
    out = []
    for i, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            out.append((i, body))
    return out


def _expect_header(lines, word):
    if not lines or lines[0][1].split() != [word]:
        got = lines[0][1].strip() if lines else "<empty file>"
        raise FormatError("expected %r header, got %r" % (word, got),
                          lines[0][0] if lines else 1)
    return lines[1:]


def _comment_block(comments):
    return ["# " + c for c in comments]


def _set_once(current, value, what, line):
    if current is not None:
        raise FormatError("duplicate %r line" % what, line)
    return value


class _LabelCollector:
    def __init__(self):
        self.sets = {"goal": set(), "bad": set()}

    def feed(self, toks, line):
        if len(toks) < 3:
            raise FormatError("label line needs a kind and at least one state", line)
        kind = toks[1]
        if kind not in self.sets:
            raise FormatError("unknown label %r (expected goal or bad)" % kind, line)
        for tok in toks[2:]:
            self.sets[kind].add(_int(tok, line, "state id"))


def _label_lines(goal, bad):
    out = []
    if goal:
        out.append("label goal " + " ".join(str(s) for s in sorted(goal)))
    if bad:
        out.append("label bad " + " ".join(str(s) for s in sorted(bad)))
    return out


# ---------------------------------------------------------------------------
# POMDP files


def parse_pomdp(text: str) -> Pomdp:
    lines = _expect_header(_content_lines(text), "pomdp")
    num_states = initial = num_obs = None
    obs = {}
    trans = {}
    rewards = {}
    labels = _LabelCollector()
    for lineno, line in lines:
        toks = line.split()
        kw = toks[0]
        if kw == "states" and len(toks) == 2:
            num_states = _set_once(num_states, _int(toks[1], lineno), "states", lineno)
        elif kw == "initial" and len(toks) == 2:
            initial = _set_once(initial, _int(toks[1], lineno), "initial", lineno)
        elif kw == "observations" and len(toks) == 2:
            num_obs = _set_once(num_obs, _int(toks[1], lineno), "observations", lineno)
        elif kw == "obs" and len(toks) == 3:
            s = _int(toks[1], lineno, "state id")
            if s in obs:
                raise FormatError("duplicate observation line for state %d" % s, lineno)
            obs[s] = _int(toks[2], lineno, "observation id")
        elif kw == "trans" and len(toks) == 5:
            s = _int(toks[1], lineno, "state id")
            t = _int(toks[3], lineno, "state id")
            row = trans.setdefault((s, toks[2]), {})
            if t in row:
                raise FormatError(
                    "duplicate transition %d -%s-> %d" % (s, toks[2], t), lineno)
            row[t] = parse_number(toks[4], lineno)
        elif kw == "reward" and len(toks) == 4:
            s = _int(toks[1], lineno, "state id")
            key = (s, toks[2])
            if key in rewards:
                raise FormatError("duplicate reward for (%d, %s)" % key, lineno)
            rewards[key] = parse_number(toks[3], lineno)
        elif kw == "label":
            labels.feed(toks, lineno)
        else:
            raise FormatError("cannot parse line %r" % line.strip(), lineno)
    for what, v in (("states", num_states), ("initial", initial),
                    ("observations", num_obs)):
        if v is None:
            raise FormatError("missing %r line" % what)
    for s in range(num_states):
        if s not in obs:
            raise FormatError("no observation assigned to state %d" % s)
    for s in obs:
        if not 0 <= s < num_states:
            raise FormatError("observation line for unknown state %d" % s)
    obs_list = [obs[s] for s in range(num_states)]
    try:
        mdp = Mdp(num_states, initial, trans, rewards,
                  labels.sets["goal"], labels.sets["bad"])
        return Pomdp(mdp, num_obs, obs_list)
    except ModelError as e:
        raise FormatError(str(e)) from None


def write_pomdp(m: Pomdp, comments=()) -> str:
    out = _comment_block(comments)
    out += ["pomdp",
            "states %d" % m.num_states,
            "initial %d" % m.initial,
            "observations %d" % m.num_obs]
    out += ["obs %d %d" % (s, m.obs[s]) for s in m.states]
    for (s, a) in sorted(m.trans):
        for t in sorted(m.trans[(s, a)]):
            out.append("trans %d %s %d %s" % (s, a, t, format_number(m.trans[(s, a)][t])))
    for (s, a) in sorted(m.rewards):
        out.append("reward %d %s %s" % (s, a, format_number(m.rewards[(s, a)])))
    out += _label_lines(m.goal, m.bad)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# pMC files


_TRANS_RE = re.compile(r"\s*trans\s+(\S+)\s+(\S+)\s+(.*)$")
_REWARD_RE = re.compile(r"\s*reward\s+(\S+)\s+(.*)$")


def parse_pmc(text: str) -> PmcT:
    lines = _expect_header(_content_lines(text), "pmc")
    num_states = initial = None
    params = None
    trans = {}
    trans_lines = {}
    rewards = {}
    reward_lines = {}
    labels = _LabelCollector()
    for lineno, line in lines:
        toks = line.split()
        kw = toks[0]
        if kw == "states" and len(toks) == 2:
            num_states = _set_once(num_states, _int(toks[1], lineno), "states", lineno)
        elif kw == "initial" and len(toks) == 2:
            initial = _set_once(initial, _int(toks[1], lineno), "initial", lineno)
        elif kw == "params":
            if len(toks) < 2:
                raise FormatError("params line needs at least one name", lineno)
            names = [_check_name(t, lineno) for t in toks[1:]]
            params = _set_once(params, names, "params", lineno)
        elif kw == "trans":
            m = _TRANS_RE.match(line)
            if not m or not m.group(3).strip():
                raise FormatError("trans line needs source, target, expression", lineno)
            s = _int(m.group(1), lineno, "state id")
            t = _int(m.group(2), lineno, "state id")
            row = trans.setdefault(s, {})
            if t in row:
                raise FormatError("duplicate transition %d -> %d" % (s, t), lineno)
            row[t] = parse_poly(m.group(3), lineno, m.start(3))
            trans_lines[(s, t)] = lineno
        elif kw == "reward":
            m = _REWARD_RE.match(line)
            if not m or not m.group(2).strip():
                raise FormatError("reward line needs a state and an expression", lineno)
            s = _int(m.group(1), lineno, "state id")
            if s in rewards:
                raise FormatError("duplicate reward for state %d" % s, lineno)
            rewards[s] = parse_poly(m.group(2), lineno, m.start(2))
            reward_lines[s] = lineno
        elif kw == "label":
            labels.feed(toks, lineno)
        else:
            raise FormatError("cannot parse line %r" % line.strip(), lineno)
    for what, v in (("states", num_states), ("initial", initial)):
        if v is None:
            raise FormatError("missing %r line" % what)
    try:
        return PmcT(num_states, initial, trans, ParameterTable(params or ()),
                    rewards, labels.sets["goal"], labels.sets["bad"])
    except ModelError as e:
        # an undeclared name wins over whatever PmcT saw first, and is
        # reported at its line
        declared = set(params or ())
        entries = [(trans[s][t], lineno) for (s, t), lineno in trans_lines.items()]
        entries += [(rewards[s], lineno) for s, lineno in reward_lines.items()]
        for poly, lineno in entries:
            for name in sorted(poly.variables()):
                if name not in declared:
                    raise FormatError("parameter %r is not declared" % name, lineno) from None
        raise FormatError(str(e)) from None


def write_pmc(d: PmcT, comments=()) -> str:
    out = _comment_block(comments)
    out += ["pmc", "states %d" % d.num_states, "initial %d" % d.initial]
    if len(d.params):
        out.append("params " + " ".join(d.params.names))
    for s in sorted(d.trans):
        for t in sorted(d.trans[s]):
            out.append("trans %d %d %s" % (s, t, d.trans[s][t]))
    for s in sorted(d.rewards):
        out.append("reward %d %s" % (s, d.rewards[s]))
    out += _label_lines(d.goal, d.bad)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# controller files


def _parse_pair(tok: str, lineno, what):
    head, sep, tail = tok.rpartition(":")
    if not sep or not head:
        raise FormatError("expected %s:probability, got %r" % (what, tok), lineno)
    return head, parse_number(tail, lineno)


def parse_fsc(text: str) -> Fsc:
    lines = _expect_header(_content_lines(text), "fsc")
    num_nodes = init = None
    action_map = {}
    memory_update = {}
    for lineno, line in lines:
        toks = line.split()
        kw = toks[0]
        if kw == "nodes" and len(toks) == 2:
            num_nodes = _set_once(num_nodes, _int(toks[1], lineno), "nodes", lineno)
        elif kw == "init" and len(toks) == 2:
            init = _set_once(init, _int(toks[1], lineno), "init", lineno)
        elif kw == "act":
            if len(toks) < 4:
                raise FormatError("act line needs node, obs, and pairs", lineno)
            n = _int(toks[1], lineno, "node")
            z = _int(toks[2], lineno, "observation id")
            if (n, z) in action_map:
                raise FormatError("duplicate act line for node %d, obs %d" % (n, z), lineno)
            row = {}
            for tok in toks[3:]:
                a, p = _parse_pair(tok, lineno, "action")
                if a in row:
                    raise FormatError("duplicate action %r" % a, lineno)
                row[a] = p
            action_map[(n, z)] = row
        elif kw == "upd":
            if len(toks) < 5:
                raise FormatError("upd line needs node, obs, action, and pairs", lineno)
            n = _int(toks[1], lineno, "node")
            z = _int(toks[2], lineno, "observation id")
            a = toks[3]
            if (n, z, a) in memory_update:
                raise FormatError(
                    "duplicate upd line for node %d, obs %d, action %s" % (n, z, a), lineno)
            row = {}
            for tok in toks[4:]:
                t, p = _parse_pair(tok, lineno, "node")
                t = _int(t, lineno, "node")
                if t in row:
                    raise FormatError("duplicate target node %d" % t, lineno)
                row[t] = p
            memory_update[(n, z, a)] = row
        else:
            raise FormatError("cannot parse line %r" % line.strip(), lineno)
    for what, v in (("nodes", num_nodes), ("init", init)):
        if v is None:
            raise FormatError("missing %r line" % what)
    try:
        return Fsc(num_nodes, init, action_map, memory_update)
    except ModelError as e:
        raise FormatError(str(e)) from None


def write_fsc(a: Fsc, comments=()) -> str:
    out = _comment_block(comments)
    out += ["fsc", "nodes %d" % a.num_nodes, "init %d" % a.initial_node]
    for (n, z) in sorted(a.action_map):
        pairs = " ".join("%s:%s" % (act, format_number(p))
                         for act, p in sorted(a.action_map[(n, z)].items()))
        out.append("act %d %d %s" % (n, z, pairs))
    for (n, z, act) in sorted(a.memory_update):
        pairs = " ".join("%d:%s" % (t, format_number(p))
                         for t, p in sorted(a.memory_update[(n, z, act)].items()))
        out.append("upd %d %d %s %s" % (n, z, act, pairs))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# instantiations, regions, parameter groups


_ASSIGN_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*=\s*(\S+)\s*$")
_RANGE_RE = re.compile(r"\s*([A-Za-z_]\w*)\s+in\s+\[\s*([^,\s\]]+)\s*,\s*([^\s\]]+)\s*\]\s*$")


def parse_instantiation(text: str) -> Instantiation:
    values = {}
    for lineno, line in _content_lines(text):
        m = _ASSIGN_RE.match(line)
        if not m:
            raise FormatError("expected 'name = value', got %r" % line.strip(), lineno)
        name = m.group(1)
        if name in values:
            raise FormatError("duplicate assignment for %r" % name, lineno)
        values[name] = parse_number(m.group(2), lineno)
    return Instantiation(values)


def write_instantiation(u: Instantiation, comments=()) -> str:
    out = _comment_block(comments)
    out += ["%s = %s" % (name, format_number(v)) for name, v in sorted(u.items())]
    return "\n".join(out) + "\n"


def parse_region(text: str):
    from .analysis import Region

    intervals = {}
    for lineno, line in _content_lines(text):
        m = _RANGE_RE.match(line)
        if not m:
            raise FormatError("expected 'name in [lo, hi]', got %r" % line.strip(), lineno)
        name = m.group(1)
        if name in intervals:
            raise FormatError("duplicate interval for %r" % name, lineno)
        intervals[name] = (parse_number(m.group(2), lineno),
                           parse_number(m.group(3), lineno))
    try:
        return Region(intervals)
    except ModelError as e:
        raise FormatError(str(e)) from None


def write_region(region, comments=()) -> str:
    out = _comment_block(comments)
    out += ["%s in [%s, %s]" % (name, format_number(lo), format_number(hi))
            for name, (lo, hi) in sorted(region.intervals.items())]
    return "\n".join(out) + "\n"


def parse_param_groups(text: str) -> list:
    groups = []
    seen = set()
    for lineno, line in _content_lines(text):
        toks = line.split()
        if toks[0] != "group" or len(toks) < 2:
            raise FormatError("expected 'group name [name ...]'", lineno)
        names = [_check_name(t, lineno) for t in toks[1:]]
        for n in names:
            if n in seen:
                raise FormatError("parameter %r appears in two groups" % n, lineno)
            seen.add(n)
        groups.append(names)
    return groups


def write_param_groups(groups, comments=()) -> str:
    out = _comment_block(comments)
    out += ["group " + " ".join(g) for g in groups]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# closed-form expression files


def parse_rational_function(text: str) -> RationalFunction:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty expression file")
    if len(lines) > 1:
        raise FormatError("expected a single expression line", lines[1][0])
    lineno, line = lines[0]
    return parse_expression(line, lineno)


def write_rational_function(f: RationalFunction | str, comments=()) -> str:
    """The file text of f, or of its text str(f) where the caller has it."""
    out = _comment_block(comments)
    out.append(str(f))
    return "\n".join(out) + "\n"
