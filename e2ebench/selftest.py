"""Shows that every output check of the benchmark catches a corrupted output.

    python3 e2ebench/selftest.py

For each workload: set up with seed 0, run one real pass of its commands,
require that the checks accept the real outputs, then corrupt one output at
a time (a printed value, a verdict, an exit code, a controller, a bound, a
region, a closed form, a second pass) and require that the checks reject
it. Exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from fractions import Fraction

import run as bench

sys.path.insert(0, bench.SRC)

from fscsynth import cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def _value_line(out, word, delta):
    def bump(m):
        v = Fraction(m.group(2)) + delta
        return "%s = %s/%s (~ %.10g)" % (m.group(1), v.numerator, v.denominator, float(v))
    return re.sub(r"^(%s) = (-?\d+(?:/\d+)?) \(~ [^)]*\)" % word, bump, out, flags=re.M)


def _flip(out, key):
    return re.sub(r"^%s: (yes|no)" % key,
                  lambda m: "%s: %s" % (key, "no" if m.group(1) == "yes" else "yes"),
                  out, flags=re.M)


def _shift_act(fsc_text, eps, keep_sum=True):
    """Moves probability mass `eps` between the first two actions of the
    first multi-action `act` line (or sets it to eps when eps is tiny);
    without keep_sum the second action keeps its probability."""
    lines = fsc_text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        if toks and toks[0] == "act" and len(toks) >= 5:
            a, pa = toks[3].rsplit(":", 1)
            b, pb = toks[4].rsplit(":", 1)
            pa, pb = Fraction(pa), Fraction(pb)
            new_a = eps if eps < Fraction(1, 1000) else pa - eps
            toks[3] = "%s:%s" % (a, new_a)
            toks[4] = "%s:%s" % (b, pb + (pa - new_a if keep_sum else 0))
            lines[i] = " ".join(toks)
            return "\n".join(lines) + "\n"
    raise ValueError("no multi-action act line")


def corruptions(op, code, out, files):
    """(label, expected problem, code, stdout, files): variants a sound
    check rejects, naming the problem it must report."""
    flip_code = 1 - code
    fsc = files[0] if op.kind == "synthesize" else None
    if op.kind == "synthesize":
        value = _value_line(out, "value", Fraction(1, 1000))
        yield "printed value", "reference", code, value, files
        yield "controller", "reference", code, out, [_shift_act(fsc, Fraction(1, 20))]
        low = _shift_act(fsc, Fraction(1, 10 ** 6))
        yield "min-prob", "below --min-prob", code, out, [low]
        unnormal = _shift_act(fsc, Fraction(1, 20), False)
        yield "distribution", "sums to", code, out, [unnormal]
        yield "verdict", "verdict", code, _flip(out, "satisfied"), files
        yield "exit code", "exit code", flip_code, out, files
    elif op.kind == "check":
        value = _value_line(out, "value", Fraction(1, 10 ** 6))
        yield "printed value", "reference", code, value, files
        yield "verdict", "verdict", code, _flip(out, "satisfied"), files
        yield "exit code", "exit code", flip_code, out, files
    elif op.kind == "prove":
        regions = "regions checked: %d" % 2 ** (workloads.PROVE_DEPTH + 1)
        yield "regions", "regions checked", code, re.sub(
            r"regions checked: \d+", regions, out), files
        yield "exit code", "exit code", flip_code, out, files
        if out.startswith("no controller"):
            # still refutes the threshold, but lies below the sampled values
            lowered = _value_line(out, "bound", -Fraction(1, 5))
            yield "unsound bound", "above the bound", code, lowered, files
        else:
            lowered = _value_line(out, "bound", -Fraction(99, 100))
            yield "unsound bound", "above the bound", code, lowered, files
            refuted = "no controller" + out.split(":", 1)[1]
            yield "verdict", "refuting bound", 0, refuted, files
    elif op.kind == "permissive":
        box = workloads._printed_region(files[0])
        name = sorted(box)[0]
        out_w = re.sub(r"^  %s = .*$" % re.escape(name),
                       "  %s = %s" % (name, box[name][1] + Fraction(1, 1000)),
                       out, count=1, flags=re.M)
        yield "witness outside", "outside the region", code, out_w, files
        yield "exit code", "exit code", flip_code, out, files
        wide = "".join("%s in [0.0001, 0.9999]\n" % n for n in sorted(box))
        yield "unsound region", "verified region holds", 0, re.sub(
            r"^verified: no", "verified: yes", out, flags=re.M), [wide]
    elif op.kind == "closed-form":
        lines = files[0].splitlines()
        lines[-1] = "(%s)*1001/1000" % lines[-1]
        yield "closed form", "closed form gives", code, out, ["\n".join(lines) + "\n"]


def main():
    missed = []
    tried = 0
    for name, cls in workloads.WORKLOADS.items():
        workdir = os.path.join(bench.OUT, "selftest-%s-%d" % (name, os.getpid()))
        os.makedirs(workdir)
        run = bench.Runner(cli)
        try:
            (w, rng, _d), _t, _p = bench.setup(cls, 0, run, workdir, 1, bench.Speed())
            results = bench.run_pass(w.prepare(rng), run)
            real = bench.check_outputs(results) + run.failed
            if real:
                missed.append("%s: real outputs rejected: %s" % (name, real))
            for op, code, out, dt, files in results:
                texts = [files[p].decode() for p in op.outputs]
                for label, want, c2, out2, files2 in corruptions(op, code, out, texts):
                    tried += 1
                    bad = [(op, c2, out2, dt, {p: t.encode() for p, t in zip(op.outputs, files2)})]
                    if not any(want in p for p in bench.check_outputs(bad)):
                        missed.append("%s %s: corrupted %s not reported as %r"
                                      % (name, op.argv[1], label, want))
                if op.kind == "synthesize":
                    # no valid controller beats the fully observable optimum,
                    # so this check is shown against a lowered optimum
                    tried += 1
                    md = next(m for m in w.synth if m.name + ".pomdp" == op.argv[1])
                    value = oracle.printed_value(out)
                    spec = op.argv[op.argv.index("--spec") + 1]
                    low = workloads._synthesize_check(
                        md, Fraction(spec.split()[1]), float(value) - 0.01)
                    if not any("MDP optimum" in p for p in low(code, out, texts)):
                        missed.append("%s %s: value above a lowered optimum passed"
                                      % (name, op.argv[1]))
                changed = [(out + "\n", files)]
                changed += [(out, {**files, p: files[p] + b"\n"}) for p in op.outputs]
                for out2, files2 in changed:
                    tried += 1
                    if not bench.differences([(op, code, out2, dt, files2)],
                                             [(op, code, out, dt, files)], 1):
                        missed.append("%s %s: changed second pass passed" % (name, op.argv[1]))
        finally:
            os.chdir(bench.ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    for m in missed:
        print("MISSED " + m)
    print("%d corruptions tried, %d missed" % (tried, len(missed)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
