"""End-to-end benchmark of the fscsynth command line.

    python3 e2ebench/run.py --workload search --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports fscsynth from its
`src/`. One run:

1. set-up, seven times: time `import fscsynth.cli` in a fresh interpreter,
   generate the workload's POMDPs from the seed, write them, and run the
   `fscsynth transform` commands (all in-process through cli.main);
2. derive thresholds, instantiations and regions from the benchmark's own
   reference computations (untimed);
3. a warm-up pass over the workload's commands, whose outputs are checked
   against those references;
4. timed passes until --seconds have gone by (at least three untraced);
   every output file and every printed line must equal the warm-up pass's.
   With --trace 1, traced passes alternate with untraced ones: the traced
   passes give the per-layer metrics, the untraced ones the times.

Times are in reference seconds (see Speed): wall time rescaled by a
calibration loop timed around each command and each set-up.

The last line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (--trace 0) or the per-layer metrics of
a traced run (--trace 1). Run files go to `.e2ebench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from statistics import median

import numpy as np

import spans as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".e2ebench-out")
SETUP_REPS = 7
MIN_PASSES = 3

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
WORKFLOWS = ("synthesize", "permissive", "check", "prove", "closed-form")

# Calibration time that defines one reference second, see Speed.
REFERENCE_S = 0.1

# Runs in a fresh interpreter, which may get the other core: it rescales
# its own import time by a calibration of its own.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fscsynth.cli; "
                "t = time.perf_counter() - t; import run; "
                "print(t * run.REFERENCE_S / run.calibration())")


class Runner:
    """Runs CLI commands in-process and keeps the books."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = []

    def __call__(self, argv, expect=(0,)):
        """(exit code, stdout, seconds). A command that raises counts as
        failed with exit code None, like a traceback on the shell."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as e:   # argparse rejects the arguments
                code = e.code
            except Exception:
                code = None
                traceback.print_exc()
        dt = time.perf_counter() - t0
        if code not in expect:
            self.failed.append("%s: exit %s %s" % (" ".join(argv), code, err.getvalue().strip()))
        return code, out.getvalue(), dt


def calibration() -> float:
    """Seconds for a fixed mix of the kinds of work fscsynth does: Python
    bytecode, Fraction (big-integer) arithmetic and small NumPy solves."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 4000):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    a = np.eye(20) * 3 + 0.1
    b = np.ones(20)
    for _ in range(1000):
        np.linalg.solve(a, b)
    x = 0
    for i in range(300000):
        x += i % 13
    return time.perf_counter() - t0


class Speed:
    """Rescales wall times to reference seconds.

    The machine this benchmark was written on changed speed by up to 2x
    within a minute (other tenants share its cores), so raw wall times of
    one commit spread by 25-30% between runs. A fixed calibration
    loop timed just before and just after each measured stretch slows down
    with it; a time in reference seconds is wall time x REFERENCE_S / (the
    mean of those two calibrations). The calibration is benchmark code, so
    a change to fscsynth moves only the wall time."""

    def __init__(self):
        self.factors = []
        self.start()

    def start(self):
        """Calibrates just before a measured stretch."""
        self.before = calibration()

    def factor(self):
        """Reference seconds per wall second of the stretch that just ended;
        its closing calibration opens the next stretch."""
        after = calibration()
        f = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        self.factors.append(f)
        return f


def rescaled(metrics, factor):
    """Times (`_s`) times the factor, rates (`per_s`) divided by it."""
    return {m: v / factor if m.endswith("per_s") else v * factor if m.endswith("_s") else v
            for m, v in metrics.items()}


def time_import():
    """Reference seconds of `import fscsynth.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def snapshot(files):
    out = {}
    for path in files:
        with open(path, "rb") as f:
            out[path] = f.read()
    return out


def setup(workload_cls, seed, run, workdir, reps, speed):
    """`reps` timed set-ups in fresh directories; the first one is kept.
    Returns ((workload, rng, directory), reference seconds per set-up,
    problems)."""
    times = []
    problems = []
    kept = None
    first_files = None
    for rep in range(reps):
        d = os.path.join(workdir, "setup%d" % rep)
        os.makedirs(d)
        os.chdir(d)
        speed.start()
        t_import = time_import()
        t0 = time.perf_counter()
        w = workload_cls()
        rng = random.Random("%s/%d" % (w.name, seed))
        w.setup(rng, lambda i: random.Random("%s/shape/%d" % (w.name, i)), run)
        times.append(t_import + (time.perf_counter() - t0) * speed.factor())
        files = snapshot(sorted(os.listdir(d)))
        files = {p: b for p, b in files.items() if not p.endswith(".manifest.json")}
        if kept is None:
            kept, first_files = (w, rng, d), files
        elif files != first_files:
            problems.append("set-up %d wrote different files than set-up 0" % rep)
    os.chdir(kept[2])
    return kept, times, problems


def run_pass(ops, run, speed=None):
    """One pass; returns [(op, code, stdout, seconds, files)]. With a Speed,
    each command's time is in reference seconds, calibrated around it."""
    results = []
    for op in ops:
        code, out, dt = run(op.argv, expect=(0, 1))
        if speed is not None:
            dt *= speed.factor()
        results.append((op, code, out, dt, snapshot(op.outputs)))
    return results


def check_outputs(results):
    """Problems the ops' checks find in one pass's results."""
    problems = []
    for op, code, out, _dt, files in results:
        if code not in (0, 1):
            continue   # counted as failed by the Runner
        try:
            found = op.check(code, out, [files[p].decode() for p in op.outputs])
        except (ValueError, KeyError, IndexError) as e:
            found = ["output could not be read: %r" % (e,)]
        problems += ["%s: %s" % (" ".join(op.argv), p) for p in found]
    return problems


def differences(results, reference, number):
    """A later pass must reproduce the first one byte for byte: exit codes,
    printed lines and output files."""
    return ["%s: pass %d differs from the first pass" % (" ".join(op.argv), number)
            for (op, code, out, _dt, files), (_op, code0, out0, _dt0, files0)
            in zip(results, reference) if (code, out, files) != (code0, out0, files0)]


def pass_metrics(results):
    """pass_s (all commands of a pass) and the time of each workflow in
    it; swarm evaluations per second of `synthesize` time."""
    m = {"cli.%s_s" % kind.replace("-", "_"): 0.0 for kind in WORKFLOWS}
    evals = 0
    for op, _code, out, dt, _files in results:
        m["cli.%s_s" % op.kind.replace("-", "_")] += dt
        if op.kind == "synthesize":
            evals += int(out.split(" evaluations)")[0].rsplit(" ", 1)[1])
    m["cli.evals_per_s"] = evals / m["cli.synthesize_s"] if evals else 0.0
    m["pass_s"] = sum(dt for _op, _c, _o, dt, _f in results)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fscsynth", "cli.py")):
        print("error: no fscsynth sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from fscsynth import cli

    workdir = os.path.join(OUT, "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    run = Runner(cli)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
    speed = Speed()
    try:
        (w, rng, _d), setup_times, problems = setup(
            workloads.WORKLOADS[args.workload], args.seed, run, workdir,
            1 if args.trace else SETUP_REPS, speed)
        if tracer:
            tracer.enabled = False
            setup_layers = rescaled(tracer.metrics(0, tracer.mark()), speed.factors[0])
        ops = w.prepare(rng)

        # warm-up pass: lazy imports and first-call costs; checked in full
        reference = run_pass(ops, run)
        problems += check_outputs(reference)

        # untraced passes give the times; with --trace 1 every other pass
        # is traced and gives only the per-layer metrics
        passes = []
        traced_passes = []
        layer_passes = []
        speed.start()
        started = time.perf_counter()
        while (len(passes) < MIN_PASSES or (tracer and not layer_passes)
               or time.perf_counter() - started < args.seconds):
            traced = tracer is not None and len(layer_passes) < len(passes)
            mark = tracer.mark() if traced else 0
            n_factors = len(speed.factors)
            if traced:
                tracer.enabled = True
            results = run_pass(ops, run, speed)
            problems += differences(results, reference, len(passes) + len(traced_passes) + 1)
            if traced:
                tracer.enabled = False
                layer_passes.append(rescaled(tracer.metrics(mark, tracer.mark()),
                                             median(speed.factors[n_factors:])))
                traced_passes.append(results)
            else:
                passes.append(results)
        # the typical pass: each command at its median time over the passes
        typical = pass_metrics([(op, code, out, median(p[i][3] for p in passes), files)
                                for i, (op, code, out, _dt, files) in enumerate(reference)])

        if tracer:
            metrics = tracing.combine(setup_layers, layer_passes)
            metrics.update({m: v for m, v in typical.items() if m.startswith("cli.")})
            units = {m: u for m, (u, _b) in tracing.PER_LAYER.items()}
            os.chdir(ROOT)
            tracer.save(os.path.join(OUT, "trace-%s-seed%d.npz" % (args.workload, args.seed)))
        else:
            metrics = {"setup_s": median(setup_times),
                       "pass_s": typical["pass_s"],
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = E2E_UNITS
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    for p in run.failed + problems:
        print("problem: " + p)
    print("passes (ref s): %s; reference s per wall s: median %.3f, range %.3f-%.3f; "
          "set-ups (ref s): %s"
          % (" ".join("%.3f" % sum(r[3] for r in p) for p in passes), median(speed.factors),
             min(speed.factors), max(speed.factors),
             " ".join("%.3f" % t for t in setup_times)))
    if traced_passes:
        untraced = median(sum(r[3] for r in p) for p in passes)
        traced = median(sum(r[3] for r in p) for p in traced_passes)
        print("traced passes (ref s): %s; tracing overhead (median traced pass over "
              "median untraced pass): %+.1f%%"
              % (" ".join("%.3f" % sum(r[3] for r in p) for p in traced_passes),
                 100 * (traced / untraced - 1)))
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
