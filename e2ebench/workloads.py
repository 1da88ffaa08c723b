"""The three workloads: their models, the CLI commands of one pass, and the
checks each command's output must pass.

A workload's `setup` generates the models from the seed, writes them, and
runs the `fscsynth transform` commands that turn them into chains (this is
the timed set-up). `prepare` then derives thresholds, instantiations and
regions from the reference computations in `oracle.py` (untimed) and
returns the list of `Op`s that make up one pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import gen
import oracle

MIN_PROB = Fraction(1, 10 ** 4)   # the CLI's default --min-prob
TOL = 1e-9


@dataclass
class Op:
    kind: str                 # CLI subcommand, also the metric it counts towards
    argv: list
    outputs: list = field(default_factory=list)   # files compared across passes
    check: object = None      # check(code, stdout, files) -> list of problems


@dataclass
class Model:
    name: str
    pomdp: gen.ChainPomdp
    k: int


def _fmt(q: float) -> str:
    return "%.6g" % q


def _uniform_joint(m, k):
    joint = {}
    for z, acts in oracle.obs_actions(m).items():
        pairs = [(a, t) for a in acts for t in range(k)]
        for n in range(k):
            joint[(n, z)] = {pair: 1.0 / len(pairs) for pair in pairs}
    return joint


def _groups(path):
    with open(path + ".params") as f:
        return gen.parse_groups(f.read())


def _read(path):
    with open(path) as f:
        return f.read()


def _verdict_problems(code, sat, what):
    want = 0 if sat else 1
    if code != want:
        return ["%s: exit code %s does not match the printed verdict (%s)"
                % (what, code, "yes" if sat else "no")]
    return []


# ---------------------------------------------------------------------------
# search: synthesize (PSO over k = 1..3 chains) + permissive (simple chains)


# (states, observations, bad states, k): product chains of 20, 36 and 48
# states, small enough that the float search outweighs exact certification
SEARCH_SYNTH = [(20, 5, 2, 1), (18, 5, 2, 2), (16, 4, 1, 3)]
# POMDPs made simple with `transform --make-simple`, then `--memory 1`
SEARCH_PERMISSIVE = [(8, 3, 1), (10, 4, 1)]
# one swarm run per command: 40 particles x 61 rounds = 2440 evaluations
SWARM, ITERATIONS = 40, 60


class Search:
    name = "search"

    def setup(self, rng, shapes, run):
        self.synth = [Model("syn%d" % i, gen.chain_pomdp(shapes(i), rng, n, z, b), k)
                      for i, (n, z, b, k) in enumerate(SEARCH_SYNTH)]
        self.perm = [Model("perm%d" % i, gen.chain_pomdp(shapes(10 + i), rng, n, z, b), 1)
                     for i, (n, z, b) in enumerate(SEARCH_PERMISSIVE)]
        for md in self.synth + self.perm:
            with open(md.name + ".pomdp", "w") as f:
                f.write(md.pomdp.text())
        for md in self.perm:
            run(["transform", md.name + ".pomdp", "-o", md.name + ".simple.pomdp",
                 "--make-simple"])
            run(["transform", md.name + ".simple.pomdp", "-o", md.name + ".pmc",
                 "--memory", "1"])

    def prepare(self, rng):
        ops = []
        for i, md in enumerate(self.synth):
            v_unif = oracle.reach_value(md.pomdp, md.k, _uniform_joint(md.pomdp, md.k))
            v_opt = oracle.mdp_upper_bound(md.pomdp)
            frac = (0.2, 0.6, 0.95)[i % 3]
            t = _fmt(v_unif + frac * (v_opt - v_unif))
            argv = ["synthesize", md.name + ".pomdp", "-o", md.name + ".fsc",
                    "--spec", "P>= %s [!bad U goal]" % t, "--memory", str(md.k),
                    "--seed", str(rng.randrange(10 ** 6)), "--swarm", str(SWARM),
                    "--iterations", str(ITERATIONS)]
            ops.append(Op("synthesize", argv, [md.name + ".fsc"],
                          _synthesize_check(md, Fraction(t), v_opt)))
        for md in self.perm:
            simple = oracle.parse_pomdp(_read(md.name + ".simple.pomdp"))
            v_unif = oracle.reach_value(simple, 1, _uniform_joint(simple, 1))
            t = _fmt(max(0.0, v_unif - 0.05))
            spec = "P> %s [!bad U goal]" % t
            argv = ["permissive", md.name + ".pmc", "-o", md.name + ".region",
                    "--spec", spec, "--seed", str(rng.randrange(10 ** 6)),
                    "--swarm", str(SWARM), "--iterations", str(ITERATIONS)]
            ops.append(Op("permissive", argv, [md.name + ".region"],
                          _permissive_check(simple, Fraction(t), rng.randrange(10 ** 6))))
        return ops


def _synthesize_check(md, threshold, v_opt):
    def check(code, out, files):
        problems = []
        value = oracle.printed_value(out)
        nodes, init, joint, act, upd = oracle.joint_from_fsc_text(files[0])
        if nodes != md.k:
            problems.append("controller has %s nodes, asked for %d" % (nodes, md.k))
        ref = oracle.reach_value(md.pomdp, nodes, joint, init)
        if abs(ref - float(value)) > TOL:
            problems.append("printed value %.12g, reference %.12g" % (float(value), ref))
        if ref > v_opt + TOL:
            problems.append("value %.12g above the MDP optimum %.12g" % (ref, v_opt))
        dists = list(act.values()) + list(upd.values())
        low = [p for dist in dists for p in dist.values() if p < MIN_PROB]
        if low:
            problems.append("controller probability %s below --min-prob" % min(low))
        if any(sum(dist.values()) != 1 for dist in dists):
            problems.append("a controller distribution sums to other than one")
        sat = oracle.printed_flag(out, "satisfied")
        if sat != (value >= threshold):
            problems.append("verdict %s for value %s against %s" % (sat, value, threshold))
        return problems + _verdict_problems(code, sat, "synthesize")
    return check


def _witnesses(out):
    ws = []
    for line in out.splitlines():
        if line.startswith("witness "):
            ws.append({})
        elif line.startswith("  ") and ws:
            name, _eq, val = line.strip().partition(" = ")
            ws[-1][name] = Fraction(val)
    return ws


def _printed_region(text):
    box = {}
    for line in text.splitlines():
        if line.startswith("#") or " in [" not in line:
            continue
        name, _, rest = line.partition(" in [")
        lo, hi = rest.rstrip("]").split(", ")
        box[name.strip()] = (Fraction(lo), Fraction(hi))
    return box


def _permissive_check(simple, threshold, sample_seed):
    def check(code, out, files):
        problems = []
        box = _printed_region(files[0])
        ws = _witnesses(out)
        if not ws:
            problems.append("no witness printed")
        for w in ws:
            if any(not box[n][0] <= v <= box[n][1] for n, v in w.items()):
                problems.append("witness outside the region")
            v = oracle.reach_value(simple, 1, oracle.joint_from_params(
                simple, 1, {n: float(x) for n, x in w.items()}, "standard"))
            if not v > float(threshold) - TOL:
                problems.append("witness value %.12g fails > %s" % (v, threshold))
        verified = oracle.printed_flag(out, "verified")
        if verified:
            rng = random.Random(sample_seed)
            for _ in range(8):
                pt = {n: lo + (hi - lo) * rng.random() for n, (lo, hi) in box.items()}
                v = oracle.reach_value(simple, 1, oracle.joint_from_params(
                    simple, 1, {n: float(x) for n, x in pt.items()}, "standard"))
                if not v > float(threshold) - TOL:
                    problems.append("verified region holds a point of value %.12g" % v)
        return problems + _verdict_problems(code, verified, "permissive")
    return check


# ---------------------------------------------------------------------------
# certify: check at full-precision points (k = 2..3) + prove (k = 1..2)


CERTIFY_CHECK = [(40, 6, 3, 2), (30, 5, 2, 3)]
CERTIFY_PROVE = [(12, 4, 1, 1), (16, 5, 2, 1), (10, 3, 1, 2)]
PROVE_DEPTH = 3


class Certify:
    name = "certify"

    def setup(self, rng, shapes, run):
        self.check = [Model("chk%d" % i, gen.chain_pomdp(shapes(i), rng, n, z, b), k)
                      for i, (n, z, b, k) in enumerate(CERTIFY_CHECK)]
        self.prove = [Model("prv%d" % i, gen.chain_pomdp(shapes(10 + i), rng, n, z, b), k)
                      for i, (n, z, b, k) in enumerate(CERTIFY_PROVE)]
        for md in self.check + self.prove:
            with open(md.name + ".pomdp", "w") as f:
                f.write(md.pomdp.text())
            run(["transform", md.name + ".pomdp", "-o", md.name + ".pmc",
                 "--memory", str(md.k)])

    def prepare(self, rng):
        ops = []
        for i, md in enumerate(self.check):
            values = gen.float_instantiation(rng, _groups(md.name + ".pmc"))
            with open(md.name + ".inst", "w") as f:
                f.write(gen.write_instantiation(values))
            v = oracle.reach_value(md.pomdp, md.k, oracle.joint_from_params(
                md.pomdp, md.k, values, "substituted"))
            # just above or just below the point's own value, alternately
            t = _fmt(v + (1 - v) / 10 if i % 2 else v * 0.9)
            argv = ["check", md.name + ".pmc", "--spec", "P>= %s [!bad U goal]" % t,
                    "--instantiation", md.name + ".inst"]
            ops.append(Op("check", argv, [], _check_check(v, Fraction(t))))
        for md in self.prove:
            variant = "standard" if md.k == 1 else "substituted"
            groups = _groups(md.name + ".pmc")
            uniform = {n: 1.0 / (len(g) + 1) for g in groups for n in g}
            v = oracle.reach_value(md.pomdp, md.k, oracle.joint_from_params(
                md.pomdp, md.k, uniform, variant))
            # below the value at the uniform point: the uniform point lies in
            # every left half the refinement takes, so no box on that path
            # refutes and the verdict is inconclusive
            t_lo = _fmt(max(0.0, v - 0.05))
            argv = ["prove", md.name + ".pmc", "--spec", "P> %s [!bad U goal]" % t_lo,
                    "--max-depth", str(PROVE_DEPTH)]
            full = {n: (MIN_PROB, 1 - MIN_PROB) for g in groups for n in g}
            ops.append(Op("prove", argv, [], _prove_check(
                md, variant, groups, Fraction(t_lo), full, True, rng.randrange(10 ** 6))))
            # above it, on a small box around the uniform point: refuted
            half = Fraction(1, 200)
            box = {n: (Fraction(1, len(g) + 1) - half, Fraction(1, len(g) + 1) + half)
                   for g in groups for n in g}
            with open(md.name + ".region", "w") as f:
                f.write(gen.write_region(box))
            t_hi = _fmt(min(0.999, v + 0.05))
            argv = ["prove", md.name + ".pmc", "--spec", "P> %s [!bad U goal]" % t_hi,
                    "--region", md.name + ".region", "--max-depth", str(PROVE_DEPTH)]
            ops.append(Op("prove", argv, [], _prove_check(
                md, variant, groups, Fraction(t_hi), box, False, rng.randrange(10 ** 6))))
        return ops


def _check_check(ref, threshold):
    def check(code, out, files):
        problems = []
        value = oracle.printed_value(out)
        if abs(float(value) - ref) > TOL:
            problems.append("printed value %.12g, reference %.12g" % (float(value), ref))
        sat = oracle.printed_flag(out, "satisfied")
        if sat != (value >= threshold):
            problems.append("verdict %s for value %s against %s" % (sat, value, threshold))
        if not oracle.printed_flag(out, "graph-preserving"):
            problems.append("interior point reported as not graph-preserving")
        return problems + _verdict_problems(code, sat, "check")
    return check


def _left_box(base, depth):
    """The box `prove` refines first: `base` with its widest interval
    halved `depth` times, keeping the lower half each time."""
    box = dict(base)
    for _ in range(depth):
        name = max(sorted(box), key=lambda n: box[n][1] - box[n][0])
        lo, hi = box[name]
        box[name] = (lo, (lo + hi) / 2)
    return box


def _sample_in(groups, box, rng):
    """A valuation inside `box` whose groups leave a residual of at least
    the floor: uniform in a small box, otherwise uniform points of each
    simplex, drawn until one falls inside the box."""
    small = all(hi - lo < Fraction(1, 50) for lo, hi in box.values())
    for _ in range(10000):
        if small:
            pt = {n: float(lo) + float(hi - lo) * rng.random() for n, (lo, hi) in box.items()}
        else:
            pt = {}
            for g in groups:
                w = [rng.expovariate(1.0) for _ in range(len(g) + 1)]
                pt.update((n, wi / sum(w)) for n, wi in zip(g, w))
        if all(box[n][0] <= pt[n] <= box[n][1] for n in pt) and all(
                1 - sum(pt[n] for n in g) >= float(MIN_PROB) for g in groups):
            return pt
    raise RuntimeError("no sample found in the box")


def _prove_check(md, variant, groups, threshold, base, left_path, sample_seed):
    """`left_path`: the threshold lies below the value at the uniform
    point, which sits in every left half, so an inconclusive bound belongs
    to the left-most box at full depth. Otherwise only a refuting bound
    has a known box (the whole region)."""
    def check(code, out, files):
        problems = []
        bound = oracle.printed_value(out, "bound")
        regions = int(out.split("regions checked: ")[1].split()[0])
        if not 1 <= regions <= 2 ** (PROVE_DEPTH + 1) - 1:
            problems.append("%d regions checked at depth %d" % (regions, PROVE_DEPTH))
        refuted = out.startswith("no controller")
        if refuted and bound > threshold:
            problems.append("refuting bound %s above the threshold %s" % (bound, threshold))
        if not refuted and bound <= threshold:
            problems.append("inconclusive with a refuting bound %s" % bound)
        region = base if refuted else _left_box(base, PROVE_DEPTH) if left_path else None
        if region is not None:
            rng = random.Random(sample_seed)
            for _ in range(6):
                pt = _sample_in(groups, region, rng)
                v = oracle.reach_value(md.pomdp, md.k, oracle.joint_from_params(
                    md.pomdp, md.k, pt, variant))
                if v > float(bound) + TOL:
                    problems.append("sample value %.12g above the bound %s" % (v, bound))
                if refuted and v > float(threshold) + TOL:
                    problems.append("sample value %.12g satisfies the refuted spec" % v)
        return problems + _verdict_problems(code, refuted, "prove")
    return check


# ---------------------------------------------------------------------------
# closed-form: state elimination on k = 1 chains, with and without gcd


# (states, shape index): a fixed set of models that finishes. Graph and
# weights are both fixed (weights from a per-model stream, not from the
# run's seed), because the weights decide which models cross
# GCD_TERM_THRESHOLD: with seed-drawn weights the set of gcd calls changed
# from seed to seed. With these weights cf9_902, cf11_1100, cf13_1301,
# cf12_1204 and cf12_1205 call the sympy gcd once each, the other eight
# never do. Shapes were picked by scanning indices 100 * states + 0..5 for
# 8-14 states; the rest either never reach the gcd or run for longer than a
# pass should (up to minutes). The seed draws the check's sample points.
CLOSED_FORM = [(9, 902), (11, 1100), (12, 1203), (13, 1301), (13, 1303), (14, 1404),
               (12, 1204), (12, 1205), (8, 800), (10, 1002), (11, 1101), (12, 1202),
               (14, 1405)]
CF_OBS, CF_BAD = 4, 1
CF_POINTS = 3


class ClosedForm:
    name = "closed-form"

    def setup(self, rng, shapes, run):
        self.models = []
        for n, sh in CLOSED_FORM:
            weights = random.Random("%s/weights/%d" % (self.name, sh))
            m = gen.chain_pomdp(shapes(sh), weights, n, CF_OBS, CF_BAD,
                                actions=(2,), p_back=0.3, p_bad=0.3)
            md = Model("cf%d_%d" % (n, sh), m, 1)
            with open(md.name + ".pomdp", "w") as f:
                f.write(m.text())
            run(["transform", md.name + ".pomdp", "-o", md.name + ".pmc", "--memory", "1"])
            self.models.append(md)

    def prepare(self, rng):
        ops = []
        for md in self.models:
            groups = _groups(md.name + ".pmc")
            argv = ["closed-form", md.name + ".pmc", "-o", md.name + ".fn"]
            ops.append(Op("closed-form", argv, [md.name + ".fn"],
                          _closed_form_check(md, groups, rng.randrange(10 ** 6))))
        return ops


def _closed_form_check(md, groups, sample_seed):
    def check(code, out, files):
        import sympy

        problems = []
        if code != 0:
            problems.append("closed-form exit code %s" % code)
        expr = oracle.read_closed_form(files[0])
        rng = random.Random(sample_seed)
        for _ in range(CF_POINTS):
            point = {}
            for g in groups:
                w = [rng.randint(1, 30) for _ in range(len(g) + 1)]
                for n, wi in zip(g, w):
                    point[n] = Fraction(wi, sum(w))
            got = expr.subs({sympy.Symbol(n): sympy.Rational(v.numerator, v.denominator)
                             for n, v in point.items()})
            want = oracle.reach_value(md.pomdp, 1, oracle.joint_from_params(
                md.pomdp, 1, point, "standard"), exact=True)
            if got != sympy.Rational(want.numerator, want.denominator):
                problems.append("closed form gives %s, exact solve %s" % (got, want))
        return problems
    return check


WORKLOADS = {w.name: w for w in (Search, Certify, ClosedForm)}
