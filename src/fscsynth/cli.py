"""Command-line frontend.

Subcommands cover the full workflow: translate a POMDP into a parametric
chain (transform), evaluate a concrete controller (check), search for one
(synthesize), extract a closed-form value function (closed-form), prove that
no controller clears a threshold (prove), and wrap satisfying controllers
into a verified parameter region (permissive).

Exit codes are a stable contract: 0 success/satisfied, 1 completed but
unsatisfied (or inconclusive), 2 input error, 3 budget exhausted. Every run
writes a JSON manifest (next to its output; for check and prove, which have
none, fscsynth-<command>.manifest.json) recording the command line, the
sha256 of the bytes read from each input, seed, wall time, tool version, and
a result summary; the swarm commands (synthesize, permissive) add a `stats`
block of search counters. Each input file is read once per command.
Apart from wall_time_s, manifests hold no timings, so a seeded run
reproduces its manifest; output files themselves carry a deterministic
provenance header, so re-running the same command reproduces them byte for
byte.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, analysis, formats, synthesis, transforms
from .fsc import FscTopology, fsc_from_instantiation, induced_mc
from .models import (
    Instantiation,
    Mc,
    ModelError,
    PmcT,
    Pomdp,
    _as_fraction,
    format_number,
    fraction_str,
    is_infinite,
    parse_spec,
)

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

STANDARD = "standard"
SUBSTITUTED = "substituted"
ACTION_RESTRICTED = "action-restricted"
NEXT_OBS = "next-obs"

# chain variant -> builder in transforms, looked up when a command runs
_BUILDERS = {
    STANDARD: "induced_pmc",
    SUBSTITUTED: "substituted_pmc",
    ACTION_RESTRICTED: "action_restricted_pmc",
    NEXT_OBS: "next_obs_pmc",
}


def _int_at_least(low):
    """argparse type: an int no smaller than low."""
    def parse(text):
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % text)
        if v < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, v))
        return v
    return parse


def _finite_float(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return v


def _positive_float(text):
    v = _finite_float(text)
    if v <= 0:
        raise argparse.ArgumentTypeError("must be positive, got %r" % text)
    return v


def _swarm_floor(text):
    """argparse type of the swarm commands' --min-prob: a float in (0, 0.5)."""
    v = _finite_float(text)
    if not 0 < v < 0.5:
        raise argparse.ArgumentTypeError(
            "probability floor must lie in (0, 0.5), got %r" % text)
    return v


def _sniff(text: str) -> str:
    for line in text.splitlines():
        s = line.strip()
        if s and not s.startswith("#"):
            return s.split()[0]
    return ""


def _read(args, path: Path) -> str:
    """The text of an input file, read once: its bytes decoded as
    Path.read_text decodes them (default encoding, universal newlines). The
    sha256 of those bytes goes into args._digests, which the output header
    and the manifest read, so they name what the command parsed even when
    it overwrites the file."""
    data = path.read_bytes()
    args._digests[path] = hashlib.sha256(data).hexdigest()
    return io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)).read()


def _load_model(args, path: Path):
    """Reads a model file, dispatching on its header word."""
    text = _read(args, path)
    kind = _sniff(text)
    if kind == "pomdp":
        return "pomdp", formats.parse_pomdp(text)
    if kind == "pmc":
        return "pmc", formats.parse_pmc(text)
    raise ModelError("%s: expected a 'pomdp' or 'pmc' file, found %r"
                     % (path, kind or "<empty>"))


def _load_pomdp(args, path: Path) -> Pomdp:
    kind, m = _load_model(args, path)
    if kind != "pomdp":
        raise ModelError("%s holds a %s; this command needs a POMDP" % (path, kind))
    return m


def _load_pmc(args, path: Path) -> PmcT:
    kind, d = _load_model(args, path)
    if kind != "pmc":
        raise ModelError("%s holds a %s; this command needs a pMC" % (path, kind))
    return d


def _check_names(named, d: PmcT, what):
    """Raises unless `named` holds exactly the parameters of d; the error
    starts with `what` and lists the unknown and the missing names."""
    unknown = sorted(set(named) - set(d.params.names))
    missing = sorted(set(d.params.names) - set(named))
    if unknown or missing:
        raise ModelError("%s (unknown: %s; missing: %s)"
                         % (what, ", ".join(unknown) or "none",
                            ", ".join(missing) or "none"))


def _load_param_groups(args, d: PmcT, path: Path) -> list:
    """Attaches the `<pmc>.params` sidecar that transform writes, when there
    is one, to d; returns the files read (empty without a sidecar).

    The sidecar must name every parameter of the chain exactly once
    (parse_param_groups already rejects a name listed twice).
    """
    side = Path(str(path) + ".params")
    if not side.exists():
        return []
    groups = formats.parse_param_groups(_read(args, side))
    _check_names([n for g in groups for n in g], d,
                 "%s does not group the parameters of %s" % (side, path))
    d.param_groups = groups
    return [side]


def _search_config(args) -> synthesis.SearchConfig:
    return synthesis.SearchConfig(
        swarm_size=args.swarm, max_iterations=args.iterations,
        min_prob=args.min_prob, seed=args.seed, time_budget=args.time_limit)


def _min_prob(args) -> Fraction:
    """--min-prob as an exact floor; raises unless it lies in (0, 1/2]."""
    eps = _as_fraction(args.min_prob)
    if not 0 < eps <= Fraction(1, 2):
        raise ModelError("--min-prob: probability floor must lie in (0, 0.5]")
    return eps


def _number(v) -> str:
    """format_number, or "infinite" for an infinite value."""
    return "infinite" if is_infinite(v) else format_number(v)


def _fmt_value(v) -> str:
    if is_infinite(v):
        return "infinite"
    f = Fraction(v)
    return "%s (~ %.10g)" % (fraction_str(f), float(f))


def _provenance(args, inputs, extras=()):
    """Deterministic header lines for output files (no timestamps)."""
    lines = ["generated by fscsynth %s" % __version__,
             "command: fscsynth %s" % shlex.join(args._argv)]
    lines += ["input %s sha256=%s" % (p.name, args._digests[p]) for p in inputs]
    lines += list(extras)
    return lines


def _write_manifest(args, inputs, out_path, started, seed, result, stats=None):
    manifest = {
        "command": ["fscsynth"] + list(args._argv),
        "inputs": {str(p): args._digests[p] for p in inputs},
        "seed": seed,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "tool_version": __version__,
        "result": result,
    }
    if stats is not None:
        manifest["stats"] = stats
    if args.manifest is not None:
        path = Path(args.manifest)
    elif out_path is not None:
        path = Path(str(out_path) + ".manifest.json")
    else:
        path = Path("fscsynth-%s.manifest.json" % args.command)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_variant(variant, k) -> str:
    if variant is not None:
        return variant
    return SUBSTITUTED if k > 1 else STANDARD


def _build_chain(m: Pomdp, k: int, topology: str, variant: str) -> PmcT:
    return getattr(transforms, _BUILDERS[variant])(m, k, topology)


# ---------------------------------------------------------------------------
# transform


def cmd_transform(args) -> int:
    started = time.perf_counter()
    inp = Path(args.model)
    m = _load_pomdp(args, inp)
    out = Path(args.output)

    k = args.memory
    if args.make_simple:
        if args.unfold or args.variant is not None:
            raise ModelError("--make-simple rewrites the POMDP itself; "
                             "it cannot be combined with --unfold or --variant")
        what, mode = "simple", "make-simple"
        pomdp = transforms.make_simple(transforms.make_binary(m))
    elif k is None:
        raise ModelError("--memory is required unless --make-simple is given")
    elif args.unfold:
        if args.variant is not None and args.variant != STANDARD:
            raise ModelError("unfolding exists only for the standard memory "
                             "construction; --variant %s cannot be unfolded"
                             % args.variant)
        if args.topology != FscTopology.FULL:
            raise ModelError("unfolding exists only for the full topology; "
                             "--topology %s cannot be unfolded" % args.topology)
        what, mode = "unfolded", "unfold, memory %d" % k
        pomdp = transforms.unfold(m, k)
    if args.make_simple or args.unfold:
        header = _provenance(args, [inp], ["mode: " + mode])
        out.write_text(formats.write_pomdp(pomdp, header))
        print("wrote %s POMDP: %d states, %d observations -> %s"
              % (what, pomdp.num_states, pomdp.num_obs, out))
        _write_manifest(args, [inp], out, started, None,
                        {"states": pomdp.num_states, "observations": pomdp.num_obs})
        return EXIT_OK

    variant = _resolve_variant(args.variant, k)
    d = _build_chain(m, k, args.topology, variant)
    extras = ["mode: pmc, memory %d, topology %s, variant %s"
              % (k, args.topology, variant)]
    out.write_text(formats.write_pmc(d, _provenance(args, [inp], extras)))
    groups = d.ensure_param_groups()
    side = Path(str(out) + ".params")
    side.write_text(formats.write_param_groups(
        groups, ["parameter groups for %s" % out.name]))
    print("wrote pMC: %d states, %d parameters in %d groups -> %s (groups: %s)"
          % (d.num_states, len(d.params.names), len(groups), out, side))
    _write_manifest(args, [inp], out, started, None,
                    {"states": d.num_states, "parameters": len(d.params.names),
                     "variant": variant})
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    started = time.perf_counter()
    inp = Path(args.model)
    kind, model = _load_model(args, inp)
    spec = parse_spec(args.spec)
    inputs = [inp]
    eps = _min_prob(args)

    if kind == "pomdp":
        if args.fsc is None:
            raise ModelError("checking a POMDP needs --fsc")
        fsc_path = Path(args.fsc)
        inputs.append(fsc_path)
        controller = formats.parse_fsc(_read(args, fsc_path))
        value = analysis.check_mc(induced_mc(model, controller), spec)
        sat = spec.satisfied_by(value)
        print("value = %s" % _fmt_value(value))
        print("satisfied: %s" % ("yes" if sat else "no"))
    else:
        if args.instantiation is None:
            raise ModelError("checking a pMC needs --instantiation")
        inputs += _load_param_groups(args, model, inp)
        u_path = Path(args.instantiation)
        inputs.append(u_path)
        u = formats.parse_instantiation(_read(args, u_path))
        _check_names(u.values, model,
                     "%s does not value the parameters of %s" % (u_path, inp))
        u, value, sat, well = synthesis.certify(model, spec, u, eps)
        print("value = %s" % _fmt_value(value))
        print("satisfied: %s" % ("yes" if sat else "no"))
        print("graph-preserving: %s" % ("yes" if well.graph_preserving else "no"))
        print("min-probability %s: %s"
              % (format_number(eps), "yes" if well.eps_preserving else "no"))

    _write_manifest(args, inputs, None, started, None,
                    {"value": _number(value), "satisfied": sat})
    return EXIT_OK if sat else EXIT_UNSAT


# ---------------------------------------------------------------------------
# synthesize


def _gap_to_threshold(value, spec) -> str:
    if is_infinite(value):
        return "infinite"
    return format_number(abs(spec.threshold - value))


def _is_fragment_of(mc: Mc, chain: Mc) -> bool:
    """Whether chain agrees with mc on mc's states: the same initial state,
    and per state the same row, reward and goal and bad labels. mc holds
    only states its initial state reaches (as induced_mc builds it, on the
    product numbering fsc.product_state gives every product chain), so
    then chain's value is mc's value, exactly."""
    if mc.initial != chain.initial:
        return False
    return all(mc.row(s) == chain.row(s)
               and mc.rewards.get(s, 0) == chain.rewards.get(s, 0)
               and (s in mc.goal) == (s in chain.goal)
               and (s in mc.bad) == (s in chain.bad)
               for s in mc.states)


def cmd_synthesize(args) -> int:
    started = time.perf_counter()
    inp = Path(args.model)
    m = _load_pomdp(args, inp)
    spec = parse_spec(args.spec)
    k = args.memory
    out = Path(args.output)
    variant = _resolve_variant(args.variant, k)

    if args.method == "brute":
        oracle = synthesis.brute_force_oracle(m, k, spec, args.topology)
        # the oracle's value is check_mc of this controller's induced chain
        controller, certified = oracle.fsc, oracle.value
        note = "exhaustive over %d deterministic controllers" % oracle.candidates
        exhausted = False
        stats = None
    else:
        d = _build_chain(m, k, args.topology, variant)
        res = synthesis.pso_search(d, spec, _search_config(args))
        stats = synthesis.search_stats([res])
        if variant == SUBSTITUTED:
            controller = transforms.fsc_from_substituted(
                m, k, args.topology, res.instantiation)
        else:
            controller = fsc_from_instantiation(
                m, k, args.topology, res.instantiation)
        note = "swarm search, %d evaluations" % res.evaluations
        exhausted = res.budget_exhausted
        # certify through the controller itself: its product chain must have
        # the search's value. Where it is the fragment of the chain certify
        # solved that the initial state reaches, the values are equal;
        # otherwise the product chain is solved and compared.
        certified = res.value
        induced = induced_mc(m, controller)
        if not _is_fragment_of(induced, res.well.model):
            certified = analysis.check_mc(induced, spec)
            if certified != res.value:
                raise ModelError("internal: controller value %s disagrees with "
                                 "search value %s" % (certified, res.value))
    sat = spec.satisfied_by(certified)

    header = _provenance(args, [inp], [
        "memory %d, topology %s, method %s" % (k, args.topology, args.method),
        "seed %d" % args.seed,
        "spec: %s" % spec,
        "certified value: %s" % _number(certified),
        "satisfied: %s" % ("yes" if sat else "no"),
    ])
    out.write_text(formats.write_fsc(controller, header))
    print("method: %s (%s)" % (args.method, note))
    print("value = %s" % _fmt_value(certified))
    if sat:
        print("satisfied: yes -> %s" % out)
    else:
        print("satisfied: no (gap to threshold %s: %s)"
              % (format_number(spec.threshold), _gap_to_threshold(certified, spec)))
        print("best controller so far -> %s" % out)
    _write_manifest(args, [inp], out, started, args.seed,
                    {"value": _number(certified), "satisfied": sat,
                     "method": args.method},
                    stats)
    if sat:
        return EXIT_OK
    return EXIT_BUDGET if exhausted else EXIT_UNSAT


# ---------------------------------------------------------------------------
# closed-form


def cmd_closed_form(args) -> int:
    started = time.perf_counter()
    inp = Path(args.model)
    d = _load_pmc(args, inp)
    out = Path(args.output)
    if args.reward:
        f = analysis.state_eliminate_reward(d)
        what = "expected reward to goal"
    else:
        f = analysis.state_eliminate(d)
        what = "reach-avoid probability"
    text = str(f)
    out.write_text(formats.write_rational_function(
        text, _provenance(args, [inp], ["closed form: %s" % what])))
    print("%s = %s" % (what, text))
    print("wrote %s" % out)
    _write_manifest(args, [inp], out, started, None, {"function": text})
    return EXIT_OK


# ---------------------------------------------------------------------------
# prove


def _default_region(d: PmcT, eps: Fraction):
    """The box [eps, 1 - eps] on every parameter; a point at eps = 1/2."""
    box = {name: (eps, 1 - eps) for name in d.params.names}
    return analysis.Region(box)


def cmd_prove(args) -> int:
    started = time.perf_counter()
    inp = Path(args.model)
    d = _load_pmc(args, inp)
    spec = parse_spec(args.spec)
    inputs = [inp]
    if args.region is not None:
        reg_path = Path(args.region)
        inputs.append(reg_path)
        region = formats.parse_region(_read(args, reg_path))
        _check_names(region.intervals, d,
                     "%s does not bound the parameters of %s" % (reg_path, inp))
    else:
        region = _default_region(d, _min_prob(args))
    res = analysis.prove_absence(d, spec, region, max_depth=args.max_depth)
    if res.no_fsc:
        print("no controller in the region satisfies %s" % spec)
    else:
        print("inconclusive: the region bound does not refute %s" % spec)
    print("bound = %s" % _fmt_value(res.bound))
    print("regions checked: %d" % res.regions_checked)
    _write_manifest(args, inputs, None, started, None,
                    {"no_controller": res.no_fsc,
                     "bound": _number(res.bound),
                     "regions_checked": res.regions_checked})
    return EXIT_OK if res.no_fsc else EXIT_UNSAT


# ---------------------------------------------------------------------------
# permissive


def cmd_permissive(args) -> int:
    started = time.perf_counter()
    inp = Path(args.model)
    d = _load_pmc(args, inp)
    inputs = [inp] + _load_param_groups(args, d, inp)
    spec = parse_spec(args.spec)
    out = Path(args.output)
    cand = synthesis.find_permissive(d, spec, _search_config(args),
                                     num_witnesses=args.witnesses)
    header = _provenance(args, inputs, [
        "spec: %s" % spec,
        "witnesses: %d" % len(cand.witnesses),
        "verified: %s" % ("yes" if cand.verified else "no"),
    ])
    out.write_text(formats.write_region(cand.region, header))
    for i, w in enumerate(cand.witnesses):
        print("witness %d:" % i)
        for name in sorted(w.values):
            print("  %s = %s" % (name, format_number(w[name])))
    for name, (lo, hi) in sorted(cand.region.intervals.items()):
        print("%s in [%s, %s]" % (name, format_number(lo), format_number(hi)))
    print("verified: %s (value bounds [%s, %s])"
          % ("yes" if cand.verified else "no",
             _fmt_value(cand.lower), _fmt_value(cand.upper)))
    print("wrote %s" % out)
    _write_manifest(args, inputs, out, started, args.seed,
                    {"verified": cand.verified, "witnesses": len(cand.witnesses)},
                    cand.stats)
    return EXIT_OK if cand.verified else EXIT_UNSAT


# ---------------------------------------------------------------------------
# parser


def _common(sp, output=True):
    sp.add_argument("model", help="input model file")
    if output:
        sp.add_argument("-o", "--output", required=True, help="output file")
    sp.add_argument("--manifest", default=None,
                    help="manifest path (default: derived from the output)")


def _transform_args(t):
    _common(t)
    t.add_argument("--memory", type=_int_at_least(1), default=None,
                   help="controller memory bound k (at least 1)")
    t.add_argument("--topology", choices=[FscTopology.FULL, FscTopology.COUNTER],
                   default=FscTopology.FULL)
    t.add_argument("--variant",
                   choices=[STANDARD, SUBSTITUTED, ACTION_RESTRICTED, NEXT_OBS],
                   default=None,
                   help="chain construction (default: substituted for k>1, "
                        "standard for k=1)")
    t.add_argument("--unfold", action="store_true",
                   help="write the memory-unfolded POMDP instead of a chain")
    t.add_argument("--make-simple", action="store_true",
                   help="write the binarized, simple POMDP (ignores --memory)")
    t.set_defaults(func=cmd_transform)


def _check_args(c):
    _common(c, output=False)
    c.add_argument("--spec", required=True, help='e.g. "P> 0.6 [!bad U goal]"')
    c.add_argument("--instantiation", default=None,
                   help="parameter values file (pMC input)")
    c.add_argument("--fsc", default=None, help="controller file (POMDP input)")
    c.add_argument("--min-prob", type=_finite_float, default=1e-4,
                   help="floor used for the min-probability verdict")
    c.set_defaults(func=cmd_check)


def _swarm_args(sp):
    """The search options of the swarm commands, synthesize and permissive."""
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--time-limit", type=_positive_float, default=None,
                    help="wall-clock budget in seconds")
    sp.add_argument("--swarm", type=_int_at_least(2), default=40)
    sp.add_argument("--iterations", type=_int_at_least(1), default=500)
    sp.add_argument("--min-prob", type=_swarm_floor, default=1e-4)


def _synthesize_args(s):
    _common(s)
    s.add_argument("--spec", required=True)
    s.add_argument("--memory", type=_int_at_least(1), required=True)
    s.add_argument("--topology", choices=[FscTopology.FULL, FscTopology.COUNTER],
                   default=FscTopology.FULL)
    s.add_argument("--variant", choices=[STANDARD, SUBSTITUTED], default=None,
                   help="search chain (default: substituted for k>1)")
    s.add_argument("--method", choices=["pso", "brute"], default="pso")
    _swarm_args(s)
    s.set_defaults(func=cmd_synthesize)


def _closed_form_args(f):
    _common(f)
    f.add_argument("--reward", action="store_true",
                   help="expected reward instead of reachability")
    f.set_defaults(func=cmd_closed_form)


def _prove_args(pr):
    _common(pr, output=False)
    pr.add_argument("--spec", required=True)
    pr.add_argument("--region", default=None,
                    help="region file (default: the full min-prob box)")
    pr.add_argument("--min-prob", type=_finite_float, default=1e-4)
    pr.add_argument("--max-depth", type=_int_at_least(0), default=0,
                    help="bisection depth for refinement")
    pr.set_defaults(func=cmd_prove)


def _permissive_args(pe):
    _common(pe)
    pe.add_argument("--spec", required=True)
    pe.add_argument("--witnesses", type=_int_at_least(1), default=3)
    _swarm_args(pe)
    pe.set_defaults(func=cmd_permissive)


# subcommand -> (help line, the function that adds its arguments)
_SUBCOMMANDS = {
    "transform": ("POMDP to parametric chain (or unfolded / simple POMDP)",
                  _transform_args),
    "check": ("evaluate a concrete controller or instantiation against a spec",
              _check_args),
    "synthesize": ("search for a satisfying controller", _synthesize_args),
    "closed-form": ("rational value function by state elimination", _closed_form_args),
    "prove": ("prove no controller in a region beats the threshold", _prove_args),
    "permissive": ("verified region around satisfying instantiations",
                   _permissive_args),
}


class _Declined(Exception):
    """A subcommand parser met arguments it would have to print about."""


class _SubcommandParser(argparse.ArgumentParser):
    """One subcommand's parser; raises _Declined where argparse would print
    an error and exit."""

    def error(self, message):
        raise _Declined


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser. When argv starts with a subcommand's name,
    the parser of that subcommand alone (prog `fscsynth <name>`, no -h):
    main parses argv[1:] with it, and where it would print a message or
    leave arguments unparsed, main parses argv with the full parser
    instead, so every message and exit code is the full parser's. Otherwise
    the full parser, every subcommand with its arguments. A command parser
    binds the cmd_* function of this module that is current when it is
    built."""
    if argv and argv[0] in _SUBCOMMANDS:
        sp = _SubcommandParser(prog="fscsynth " + argv[0], add_help=False)
        _SUBCOMMANDS[argv[0]][1](sp)
        sp.set_defaults(command=argv[0])
        return sp
    p = argparse.ArgumentParser(
        prog="fscsynth",
        description="Finite-memory controller synthesis for POMDPs "
                    "through parametric Markov chains.")
    p.add_argument("--version", action="version", version="fscsynth " + __version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, add_args) in _SUBCOMMANDS.items():
        add_args(sub.add_parser(name, help=text))
    return p


def _parse_args(argv) -> argparse.Namespace:
    parser = build_parser(argv)
    if isinstance(parser, _SubcommandParser):
        try:
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                return args
        except _Declined:
            pass
        parser = build_parser()
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    args._argv = list(argv)
    args._digests = {}   # input path -> sha256 of the bytes read, see _read
    try:
        return args.func(args)
    except (ModelError, formats.FormatError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
