"""Spans around fscsynth's layers, recorded from the benchmark's side.

`install(tracer)` wraps the public functions of formats, transforms, fsc,
models, analysis, synthesis, polynomials and _kernels at every name their
callers resolve: a function imported with `from .x import f` is replaced in
each module that holds it, a method on its class. The dense solve inside a
float evaluation is `analysis.np.linalg.solve`; analysis gets a NumPy view
whose `linalg.solve` is wrapped, so no other NumPy user is traced.

A span is (name, start, end, parent). Spans stay in memory in flat arrays
and are written out once, when the run ends. A layer's self time is its
span time minus the time of its direct child spans.
"""

from __future__ import annotations

import time
import types
from array import array
from statistics import median, median_low

import numpy as np

# metric name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    # workflow times of the run's untraced passes, from the benchmark's own clock
    "cli.synthesize_s": ("s", "lower"),
    "cli.evals_per_s": ("1/s", "higher"),
    "cli.permissive_s": ("s", "lower"),
    "cli.check_s": ("s", "lower"),
    "cli.prove_s": ("s", "lower"),
    "cli.closed_form_s": ("s", "lower"),
    "synthesis.decode_s": ("s", "lower"),
    "synthesis.decode_calls": ("count", "lower"),
    "synthesis.search_s": ("s", "lower"),
    "synthesis.evaluations": ("count", "lower"),
    "analysis.float_eval_s": ("s", "lower"),
    "analysis.float_eval_calls": ("count", "lower"),
    "analysis.float_solve_s": ("s", "lower"),
    "analysis.evaluator_init_s": ("s", "lower"),
    "analysis.recomputes": ("count", "lower"),
    "kernels.eval_edges_s": ("s", "lower"),
    "kernels.eval_edges_calls": ("count", "lower"),
    "kernels.solve_linear_calls": ("count", "lower"),
    "analysis.solve_exact_s": ("s", "lower"),
    "analysis.solve_exact_calls": ("count", "lower"),
    "analysis.solve_exact_max_n": ("count", "lower"),
    "analysis.solve_exact_max_bits": ("bits", "lower"),
    "analysis.exact_eval_s": ("s", "lower"),
    "synthesis.certify_s": ("s", "lower"),
    "synthesis.certify_calls": ("count", "lower"),
    "models.well_defined_s": ("s", "lower"),
    "fsc.induced_mc_s": ("s", "lower"),
    "analysis.region_bounds_s": ("s", "lower"),
    "analysis.region_bounds_calls": ("count", "lower"),
    "synthesis.witness_yield": ("ratio", "higher"),
    "analysis.eliminate_s": ("s", "lower"),
    "polynomials.rf_s": ("s", "lower"),
    "polynomials.rf_calls": ("count", "lower"),
    "polynomials.poly_mul_s": ("s", "lower"),
    "polynomials.poly_mul_calls": ("count", "lower"),
    "polynomials.gcd_s": ("s", "lower"),
    "polynomials.gcd_calls": ("count", "lower"),
    "formats.parse_s": ("s", "lower"),
    "formats.parse_calls": ("count", "lower"),
    "formats.write_s": ("s", "lower"),
    "transforms.build_s": ("s", "lower"),
    "transforms.build_calls": ("count", "lower"),
    "analysis.qualitative_s": ("s", "lower"),
    "analysis.qualitative_calls": ("count", "lower"),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # counters read off arguments and results, per span index range
        self.facts = []   # (span index, fact name, value)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, on_result=None):
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, idx, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def fact(self, idx, key, value):
        self.facts.append((idx, key, value))

    def mark(self) -> int:
        return len(self.start)

    def metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics over spans lo..hi-1 (one pass, or the set-up)."""
        n = hi - lo
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = end - start
        inside = (parent >= 0) & (parent < n)
        child = np.zeros(n)
        np.add.at(child, parent[inside], dur[inside])
        self_t = dur - child
        by_name_t = np.bincount(name, weights=self_t, minlength=len(self.names))
        by_name_c = np.bincount(name, minlength=len(self.names))
        t = {nm: float(by_name_t[i]) for i, nm in enumerate(self.names)}
        c = {nm: int(by_name_c[i]) for i, nm in enumerate(self.names)}
        facts = {}
        for idx, key, value in self.facts:
            if lo <= idx < hi:
                facts.setdefault(key, []).append(value)
        out = {}
        for metric in PER_LAYER:
            if metric.startswith("cli."):
                continue   # timed by the benchmark, see run.pass_metrics
            layer, _, what = metric.rpartition("_")
            if what == "s":
                out[metric] = t.get(layer, 0.0)
            elif what == "calls":
                out[metric] = c.get(layer, 0)
        out["synthesis.evaluations"] = sum(facts.get("evaluations", []))
        out["analysis.recomputes"] = c.get("analysis.recomputes", 0)
        out["analysis.solve_exact_max_n"] = max(facts.get("solve_n", [0]))
        out["analysis.solve_exact_max_bits"] = max(facts.get("solve_bits", [0]))
        cands = facts.get("witness", [])
        out["synthesis.witness_yield"] = sum(cands) / len(cands) if cands else 0.0
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def combine(setup: dict, passes: list) -> dict:
    """One set-up plus the median pass, per metric."""
    out = {}
    for metric in passes[0]:
        values = [p[metric] for p in passes]
        mid = median_low(values) if all(isinstance(v, int) for v in values) else median(values)
        if metric.endswith(("_max_n", "_max_bits")):
            out[metric] = max(setup[metric], mid)
        elif metric.endswith("_yield"):
            out[metric] = mid
        else:
            out[metric] = setup[metric] + mid
    return out


# ---------------------------------------------------------------------------
# installation


def _on_solve_exact(tr, idx, args, result):
    tr.fact(idx, "solve_n", len(args[1]))
    tr.fact(idx, "solve_bits", max((x.denominator.bit_length() for x in result), default=0))


def _on_search(tr, idx, args, result):
    tr.fact(idx, "evaluations", result.evaluations)


def _on_certify(tr, idx, args, result):
    # a certify called directly by find_permissive re-checks one float
    # candidate exactly: result = (u, value, satisfied, well)
    par = tr.parent[idx]
    if par >= 0 and tr.names[tr.name[par]] == "synthesis.find_permissive":
        tr.fact(idx, "witness", 1 if result[2] else 0)


def _replace(modules, fn, wrapped):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapped)


class _LinalgView(types.ModuleType):
    def __init__(self, solve):
        super().__init__("numpy.linalg")
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(np.linalg, attr)


class _NumpyView(types.ModuleType):
    def __init__(self, linalg):
        super().__init__("numpy")
        self.linalg = linalg

    def __getattr__(self, attr):
        return getattr(np, attr)


def install(tracer: Tracer):
    import fscsynth._kernels as kernels
    from fscsynth import (analysis, cli, formats, fsc, models, polynomials,
                          synthesis, transforms)

    modules = [kernels, analysis, cli, formats, fsc, models, polynomials,
               synthesis, transforms]
    functions = [
        (kernels, ["eval_edges"], "kernels.eval_edges", None),
        (kernels, ["solve_linear"], "kernels.solve_linear", None),
        (formats, ["parse_pomdp", "parse_pmc", "parse_fsc", "parse_instantiation",
                   "parse_region", "parse_param_groups", "parse_rational_function"],
         "formats.parse", None),
        (formats, ["write_pomdp", "write_pmc", "write_fsc", "write_instantiation",
                   "write_region", "write_param_groups", "write_rational_function"],
         "formats.write", None),
        (transforms, ["induced_pmc", "substituted_pmc", "action_restricted_pmc",
                      "next_obs_pmc", "unfold", "make_binary", "make_simple",
                      "insert_intermediate_states", "pmc_to_pomdp",
                      "fsc_from_substituted"], "transforms.build", None),
        (fsc, ["induced_mc"], "fsc.induced_mc", None),
        (models, ["check_well_defined"], "models.well_defined", None),
        (analysis, ["qualitative_precompute"], "analysis.qualitative", None),
        (analysis, ["solve_exact"], "analysis.solve_exact", _on_solve_exact),
        (analysis, ["state_eliminate", "state_eliminate_reward"], "analysis.eliminate", None),
        (analysis, ["region_bounds"], "analysis.region_bounds", None),
        (analysis, ["prove_absence"], "analysis.prove_absence", None),
        (synthesis, ["pso_search"], "synthesis.search", _on_search),
        (synthesis, ["certify"], "synthesis.certify", _on_certify),
        (synthesis, ["find_permissive"], "synthesis.find_permissive", None),
        (polynomials, ["_sympy_cancel"], "polynomials.gcd", None),
    ]
    for mod, names, span, hook in functions:
        for n in names:
            fn = getattr(mod, n)
            _replace(modules, fn, tracer.wrap(fn, span, hook))
    methods = [
        (synthesis._SimplexCodec, ["decode"], "synthesis.decode"),
        (analysis.FloatPmcEvaluator, ["evaluate_vector"], "analysis.float_eval"),
        (analysis.ExactPmcEvaluator, ["evaluate"], "analysis.exact_eval"),
        (analysis._EvaluatorBase, ["__init__"], "analysis.evaluator_init"),
        (analysis.FloatPmcEvaluator, ["__init__"], "analysis.evaluator_init"),
        (analysis._EvaluatorBase, ["_fresh"], "analysis.recomputes"),
        (polynomials.RationalFunction, ["__add__", "__radd__", "__sub__", "__rsub__",
                                        "__mul__", "__rmul__", "__truediv__",
                                        "__rtruediv__", "__neg__"],
         "polynomials.rf"),
        (polynomials.Polynomial, ["__mul__", "__rmul__"], "polynomials.poly_mul"),
    ]
    for cls, names, span in methods:
        for n in names:
            setattr(cls, n, tracer.wrap(cls.__dict__[n], span))
    analysis.np = _NumpyView(_LinalgView(
        tracer.wrap(np.linalg.solve, "analysis.float_solve")))
    # build_parser binds the command functions each time it runs, so every
    # command gets a root span
    for name in ("transform", "check", "synthesize", "closed_form", "prove", "permissive"):
        setattr(cli, "cmd_" + name, tracer.wrap(getattr(cli, "cmd_" + name), "cli." + name))
