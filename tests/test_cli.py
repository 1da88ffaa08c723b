"""End-to-end command line behaviour: exit codes, files, manifests."""

import argparse
import builtins
import hashlib
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

import genmodels as g
from childenv import child_env
from fscsynth import analysis, cli, formats, transforms
from fscsynth.analysis import state_eliminate
from fscsynth.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_UNSAT, _fmt_value, main
from fscsynth.fsc import (
    Fsc,
    FscTopology,
    fsc_from_instantiation,
    induced_mc,
    uniform_fsc,
)
from fscsynth.models import Instantiation, Mc, PmcT, apply_instantiation
from fscsynth.polynomials import Polynomial
from fscsynth.analysis import Region

F = Fraction
C = Polynomial.constant


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _pomdp_file(d: Path, name="model.pomdp") -> Path:
    return _write(d / name, formats.write_pomdp(g.two_coin_pomdp()))


def _pmc_file(d: Path, name="model.pmc") -> Path:
    return _write(d / name, formats.write_pmc(g.biased_choice_pmc()))


def _manifest(path: Path) -> dict:
    return json.loads(path.read_text())


class TestTransform:
    def test_pmc_output_with_sidecars(self, workdir, capsys):
        inp = _pomdp_file(workdir)
        rc = main(["transform", str(inp), "-o", "out.pmc", "--memory", "2"])
        assert rc == EXIT_OK
        d = formats.parse_pmc(Path("out.pmc").read_text())
        assert len(d.params.names) == 8
        groups = formats.parse_param_groups(
            Path("out.pmc.params").read_text())
        assert sorted(n for grp in groups for n in grp) == sorted(d.params.names)
        man = _manifest(Path("out.pmc.manifest.json"))
        assert man["result"]["parameters"] == 8
        assert man["result"]["variant"] == "substituted"
        assert str(inp) in man["inputs"]
        assert "parameters" in capsys.readouterr().out

    def test_memory_one_defaults_to_standard(self, workdir):
        inp = _pomdp_file(workdir)
        rc = main(["transform", str(inp), "-o", "out.pmc", "--memory", "1"])
        assert rc == EXIT_OK
        assert _manifest(Path("out.pmc.manifest.json"))["result"]["variant"] == "standard"

    def test_unfold_writes_a_pomdp(self, workdir):
        inp = _pomdp_file(workdir)
        rc = main(["transform", str(inp), "-o", "unf.pomdp", "--memory", "2",
                   "--unfold"])
        assert rc == EXIT_OK
        unf = formats.parse_pomdp(Path("unf.pomdp").read_text())
        assert unf.mdp.num_states == 6
        assert unf.num_obs == 4

    def test_make_simple(self, workdir):
        inp = _pomdp_file(workdir)
        rc = main(["transform", str(inp), "-o", "simple.pomdp", "--make-simple"])
        assert rc == EXIT_OK
        s = formats.parse_pomdp(Path("simple.pomdp").read_text())
        assert all(len(row) <= 2 for row in s.mdp.trans.values())

    def test_flag_conflicts_are_usage_errors(self, workdir, capsys):
        inp = _pomdp_file(workdir)
        rc = main(["transform", str(inp), "-o", "x", "--make-simple",
                   "--variant", "standard"])
        assert rc == EXIT_INPUT
        assert "cannot be combined" in capsys.readouterr().err
        rc = main(["transform", str(inp), "-o", "x", "--memory", "2",
                   "--unfold", "--variant", "substituted"])
        assert rc == EXIT_INPUT
        rc = main(["transform", str(inp), "-o", "x", "--memory", "2",
                   "--unfold", "--topology", "counter"])
        assert rc == EXIT_INPUT
        assert "full topology" in capsys.readouterr().err
        assert not (workdir / "x").exists()
        rc = main(["transform", str(inp), "-o", "x"])
        assert rc == EXIT_INPUT

    def test_zero_memory_is_rejected_by_the_parser(self, workdir):
        inp = _pomdp_file(workdir)
        with pytest.raises(SystemExit) as e:
            main(["transform", str(inp), "-o", "x", "--memory", "0"])
        assert e.value.code == 2

    def test_wrong_input_kind(self, workdir):
        inp = _pmc_file(workdir)
        rc = main(["transform", str(inp), "-o", "x", "--memory", "1"])
        assert rc == EXIT_INPUT

    def test_same_command_same_bytes(self, tmp_path, monkeypatch):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            _pomdp_file(d)
            rc = main(["transform", "model.pomdp", "-o", "out.pmc",
                       "--memory", "2"])
            assert rc == EXIT_OK
            man = _manifest(d / "out.pmc.manifest.json")
            man.pop("wall_time_s")
            blobs.append(((d / "out.pmc").read_bytes(),
                          (d / "out.pmc.params").read_bytes(), man))
        assert blobs[0] == blobs[1]


class TestCheck:
    def test_pmc_with_instantiation(self, workdir, capsys):
        inp = _pmc_file(workdir)
        upath = _write(workdir / "point.inst",
                       formats.write_instantiation(Instantiation({"p": F(3, 4)})))
        rc = main(["check", str(inp), "--spec", "P> 0.7 [!bad U goal]",
                   "--instantiation", str(upath),
                   "--manifest", "check.manifest.json"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "29/40" in out
        assert "satisfied: yes" in out
        man = _manifest(Path("check.manifest.json"))
        assert man["result"] == {"value": "0.725", "satisfied": True}

    def test_unsatisfied_exits_one(self, workdir):
        inp = _pmc_file(workdir)
        upath = _write(workdir / "point.inst",
                       formats.write_instantiation(Instantiation({"p": F(1, 4)})))
        rc = main(["check", str(inp), "--spec", "P> 0.7 [!bad U goal]",
                   "--instantiation", str(upath)])
        assert rc == EXIT_UNSAT
        assert Path("fscsynth-check.manifest.json").exists()

    def test_entries_past_the_int_to_str_digit_limit(self, workdir, capsys):
        inp = _write(workdir / "long.pmc", formats.write_pmc(g.long_coefficient_pmc()))
        upath = _write(workdir / "point.inst",
                       formats.write_instantiation(Instantiation({"p": F(3, 4)})))
        rc = main(["check", str(inp), "--spec", "P> 0.7 [!bad U goal]",
                   "--instantiation", str(upath)])
        assert rc == EXIT_OK
        assert "satisfied: yes" in capsys.readouterr().out
        # and a parameter value past it: p = 1/(10^5000 + 1) gives about 1/2
        upath = _write(workdir / "tiny.inst", formats.write_instantiation(
            Instantiation({"p": F(1, 10 ** 5000 + 1)})))
        rc = main(["check", str(_pmc_file(workdir)), "--spec",
                   "P> 0.7 [!bad U goal]", "--instantiation", str(upath)])
        assert rc == EXIT_UNSAT
        assert "satisfied: no" in capsys.readouterr().out

    def test_pomdp_with_controller(self, workdir, capsys):
        inp = _pomdp_file(workdir)
        fsc = Fsc(1, 0,
                  {(0, 0): {"a": F(1)}, (0, 1): {"t": F(1)}},
                  {(0, 0, "a"): {0: F(1)}, (0, 1, "t"): {0: F(1)}})
        fpath = _write(workdir / "ctl.fsc", formats.write_fsc(fsc))
        rc = main(["check", str(inp), "--spec", "P>= 0.7 [!bad U goal]",
                   "--fsc", str(fpath)])
        assert rc == EXIT_OK
        assert "4/5" in capsys.readouterr().out

    def test_unknown_spec_label_is_an_input_error(self, workdir, capsys):
        inp = _write(workdir / "fork.pomdp", formats.write_pomdp(g.fork_pomdp()))
        fpath = _write(workdir / "uniform.fsc",
                       formats.write_fsc(uniform_fsc(g.fork_pomdp(), 1)))
        rc = main(["check", str(inp), "--spec", "P> 0.5 [F bad]", "--fsc", str(fpath)])
        assert rc == EXIT_INPUT
        assert "label" in capsys.readouterr().err

    def test_missing_companion_file(self, workdir, capsys):
        rc = main(["check", str(_pomdp_file(workdir)),
                   "--spec", "P> 0.5 [!bad U goal]"])
        assert rc == EXIT_INPUT
        assert "--fsc" in capsys.readouterr().err
        rc = main(["check", str(_pmc_file(workdir)),
                   "--spec", "P> 0.5 [!bad U goal]"])
        assert rc == EXIT_INPUT

    # both actions at state 0 lead to the same successors, so p_0_0_a
    # cancels out of every entry: only the parameter groups see a value
    # above 1
    SAME_SUCCESSORS = """pomdp
states 4
initial 0
observations 2
obs 0 0
obs 1 1
obs 2 1
obs 3 1
trans 0 a 1 0.5
trans 0 a 2 0.5
trans 0 b 1 0.5
trans 0 b 2 0.5
trans 1 t 3 1
trans 2 t 2 1
trans 3 t 3 1
label goal 3
label bad 2
"""

    def test_sidecar_groups_reject_a_point_no_entry_sees(self, workdir, capsys):
        _write(workdir / "m.pomdp", self.SAME_SUCCESSORS)
        assert main(["transform", "m.pomdp", "-o", "m.pmc", "--memory", "1"]) == EXIT_OK
        d = formats.parse_pmc(Path("m.pmc").read_text())
        assert d.params.names == ["p_0_0_a"]
        assert not any(p.variables() for row in d.trans.values() for p in row.values())
        argv = ["check", "m.pmc", "--spec", "P>= 1/2 [!bad U goal]",
                "--instantiation", "u.inst"]
        _write(workdir / "u.inst", "p_0_0_a = 1/5\n")
        assert main(argv) == EXIT_OK
        man = _manifest(Path("fscsynth-check.manifest.json"))
        assert sorted(man["inputs"]) == ["m.pmc", "m.pmc.params", "u.inst"]
        _write(workdir / "u.inst", "p_0_0_a = 6/5\n")
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "not well-defined" in err
        assert "group {p_0_0_a} sums to 6/5" in err

    @pytest.mark.parametrize("floor", ["-1", "0", "0.7"])
    def test_floor_outside_the_range_names_the_flag(self, workdir, capsys, floor):
        inp = _pmc_file(workdir)
        point = _write(workdir / "point.inst",
                       formats.write_instantiation(Instantiation({"p": F(3, 4)})))
        rc = main(["check", str(inp), "--spec", "P> 0.7 [!bad U goal]",
                   "--instantiation", str(point), "--min-prob", floor])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--min-prob" in captured.err
        assert "probability floor must lie in (0, 0.5]" in captured.err
        assert captured.out == ""


class TestParameterNames:
    """A point or region file must name exactly the chain's parameters."""

    @pytest.mark.parametrize("command, body, unknown, missing", [
        ("check", "q = 1/2\n", "q", "p"),
        ("check", "p = 3/4\nq = 1/2\n", "q", "none"),
        ("check", "", "none", "p"),
        ("prove", "p in [1/100, 99/100]\nq in [1/4, 1/2]\n", "q", "none"),
        ("prove", "q in [1/4, 1/2]\n", "q", "p"),
    ])
    def test_unknown_and_missing_names_are_input_errors(
            self, workdir, capsys, command, body, unknown, missing):
        inp = _pmc_file(workdir)
        flag = "--instantiation" if command == "check" else "--region"
        _write(workdir / "names.txt", body)
        rc = main([command, str(inp), "--spec", "P> 0.7 [!bad U goal]",
                   flag, "names.txt"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "(unknown: %s; missing: %s)" % (unknown, missing) in err
        assert "names.txt" in err


class TestSynthesize:
    def test_search_writes_a_working_controller(self, workdir):
        inp = _pomdp_file(workdir)
        rc = main(["synthesize", str(inp), "-o", "best.fsc",
                   "--spec", "P>= 0.7 [!bad U goal]", "--memory", "1",
                   "--seed", "0", "--iterations", "60", "--swarm", "30"])
        assert rc == EXIT_OK
        ctl = formats.parse_fsc(Path("best.fsc").read_text())
        assert ctl.num_nodes == 1
        man = _manifest(Path("best.fsc.manifest.json"))
        assert man["seed"] == 0
        assert man["result"]["satisfied"] is True
        # the emitted controller really achieves the reported value
        rc2 = main(["check", str(inp), "--spec", "P>= 0.7 [!bad U goal]",
                    "--fsc", "best.fsc"])
        assert rc2 == EXIT_OK

    def test_unreachable_threshold(self, workdir):
        inp = _pomdp_file(workdir)
        rc = main(["synthesize", str(inp), "-o", "best.fsc",
                   "--spec", "P>= 0.9 [!bad U goal]", "--memory", "1",
                   "--iterations", "25", "--swarm", "20"])
        assert rc == EXIT_UNSAT
        assert Path("best.fsc").exists()  # best effort still written

    def test_budget_exit_code(self, workdir):
        # far more rounds than fit in the budget, however fast a round runs
        inp = _pomdp_file(workdir)
        rc = main(["synthesize", str(inp), "-o", "best.fsc",
                   "--spec", "P>= 0.9 [!bad U goal]", "--memory", "1",
                   "--iterations", "1000000", "--time-limit", "0.05"])
        assert rc == EXIT_BUDGET

    def test_brute_force_method(self, workdir, capsys):
        inp = _write(workdir / "crafted.pomdp",
                     formats.write_pomdp(g.revisit_pomdp()))
        rc = main(["synthesize", str(inp), "-o", "det.fsc",
                   "--spec", "P>= 0.05 [!bad U goal]", "--memory", "1",
                   "--method", "brute"])
        assert rc == EXIT_OK
        assert "1/10" in capsys.readouterr().out

    def test_seeded_run_is_reproducible(self, tmp_path, monkeypatch):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            _pomdp_file(d)
            rc = main(["synthesize", "model.pomdp", "-o", "out.fsc",
                       "--spec", "P>= 0.7 [!bad U goal]", "--memory", "2",
                       "--seed", "5", "--iterations", "30", "--swarm", "20"])
            assert rc == EXIT_OK
            man = _manifest(d / "out.fsc.manifest.json")
            man.pop("wall_time_s")
            blobs.append(((d / "out.fsc").read_bytes(), man))
        assert blobs[0] == blobs[1]


class TestSynthesizeCrossCheck:
    """synthesize certifies the controller it writes against the chain the
    search certified: equal rows on the controller's reachable product
    chain make a second exact solve unnecessary; any difference falls back
    to solving that chain."""

    @staticmethod
    def _count_solves(monkeypatch):
        # every exact solve, solve_exact or a single value, runs this core
        calls = []
        solve = analysis._solve_integer
        monkeypatch.setattr(analysis, "_solve_integer",
                            lambda d, w: calls.append(len(d)) or solve(d, w))
        return calls

    @pytest.mark.parametrize("memory", ["1", "2"])
    def test_one_exact_solve_per_search(self, workdir, monkeypatch, memory):
        # k = 1 builds the standard chain, k = 2 the substituted one
        inp = _pomdp_file(workdir)
        calls = self._count_solves(monkeypatch)
        rc = main(["synthesize", str(inp), "-o", "best.fsc",
                   "--spec", "P>= 0.7 [!bad U goal]", "--memory", memory,
                   "--seed", "0", "--iterations", "20", "--swarm", "10"])
        assert rc == EXIT_OK
        assert len(calls) == 1

    def test_fragment_check_reads_rows_rewards_and_labels(self):
        rng = random.Random(14)
        layouts = [(1, transforms.induced_pmc, fsc_from_instantiation),
                   (2, transforms.substituted_pmc, transforms.fsc_from_substituted)]
        for k, build, decode in layouts:
            for _ in range(5):
                m = g.random_pomdp(rng, max_states=5, with_rewards=True)
                d = build(m, k)
                u = g.random_instantiation_for(d, rng)
                chain = apply_instantiation(d, u).model
                mc = induced_mc(m, decode(m, k, FscTopology.FULL, u))
                assert cli._is_fragment_of(mc, chain)
                s = mc.states[-1]
                other = next(t for t in chain.states if t != chain.initial)
                row = chain.row(s)
                changed = [
                    {"initial": other},
                    {"trans": {**chain.trans, s: {**row, s: row.get(s, 0) + 1}}},
                    {"rewards": {**chain.rewards, s: chain.rewards.get(s, 0) + 1}},
                    {"goal": chain.goal ^ {s}},
                    {"bad": chain.bad ^ {s}},
                ]
                for change in changed:
                    fields = dict(states=chain.states, initial=chain.initial,
                                  trans=chain.trans, rewards=chain.rewards,
                                  goal=chain.goal, bad=chain.bad)
                    fields.update(change)
                    assert not cli._is_fragment_of(mc, Mc(validate=False, **fields))

    def test_a_different_controller_is_solved_and_rejected(
            self, workdir, monkeypatch, capsys):
        inp = _pomdp_file(workdir)
        monkeypatch.setattr(cli, "fsc_from_instantiation",
                            lambda m, k, topology, u: uniform_fsc(m, k, topology))
        calls = self._count_solves(monkeypatch)
        rc = main(["synthesize", str(inp), "-o", "best.fsc",
                   "--spec", "P>= 0.7 [!bad U goal]", "--memory", "1",
                   "--seed", "0", "--iterations", "20", "--swarm", "10"])
        assert rc == EXIT_INPUT
        assert "disagrees with search value" in capsys.readouterr().err
        assert len(calls) == 2


class TestClosedForm:
    def test_reach_function(self, workdir, capsys):
        inp = _pmc_file(workdir)
        rc = main(["closed-form", str(inp), "-o", "value.fn"])
        assert rc == EXIT_OK
        f = formats.parse_rational_function(Path("value.fn").read_text())
        assert f == state_eliminate(g.biased_choice_pmc())
        assert "(5 + 3*p)/10" in capsys.readouterr().out


class TestProve:
    def test_refutation_exits_zero(self, workdir, capsys):
        inp = _pmc_file(workdir)
        reg = _write(workdir / "box.region",
                     formats.write_region(Region({"p": (F(1, 100), F(99, 100))})))
        rc = main(["prove", str(inp), "--spec", "P> 0.8 [!bad U goal]",
                   "--region", str(reg), "--manifest", "prove.manifest.json"])
        assert rc == EXIT_OK
        assert "no controller" in capsys.readouterr().out
        man = _manifest(Path("prove.manifest.json"))
        assert man["result"] == {"no_controller": True, "bound": "0.797",
                                 "regions_checked": 1}

    def test_default_region_comes_from_the_floor(self, workdir):
        inp = _pmc_file(workdir)
        rc = main(["prove", str(inp), "--spec", "P> 0.8 [!bad U goal]"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("floor", ["0", "0.7"])
    def test_floor_without_a_default_box_names_the_flag(self, workdir, capsys, floor):
        inp = _pmc_file(workdir)
        rc = main(["prove", str(inp), "--spec", "P> 0.8 [!bad U goal]",
                   "--min-prob", floor])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--min-prob" in err and "probability floor must lie in (0, 0.5]" in err

    def test_floor_of_one_half_is_a_point_box(self, workdir, capsys):
        inp = _pmc_file(workdir)
        rc = main(["prove", str(inp), "--spec", "P> 0.6 [!bad U goal]",
                   "--min-prob", "0.5", "--max-depth", "2"])
        assert rc == EXIT_UNSAT
        out = capsys.readouterr().out
        assert "inconclusive" in out and "bound = 13/20" in out

    def test_inconclusive_exits_one(self, workdir, capsys):
        inp = _pmc_file(workdir)
        rc = main(["prove", str(inp), "--spec", "P> 0.6 [!bad U goal]"])
        assert rc == EXIT_UNSAT
        assert "inconclusive" in capsys.readouterr().out

    def test_parameterless_chain_is_inconclusive_not_a_crash(self, workdir, capsys):
        # a constant chain gives an empty box, which cannot be split
        one = C(1)
        d = PmcT(3, 0, {0: {1: C(F(1, 2)), 2: C(F(1, 2))}, 1: {1: one}, 2: {2: one}},
                 goal={1})
        inp = _write(workdir / "const.pmc", formats.write_pmc(d))
        rc = main(["prove", str(inp), "--spec", "P> 0.4 [F goal]",
                   "--max-depth", "2", "--manifest", "prove.manifest.json"])
        assert rc == EXIT_UNSAT
        out = capsys.readouterr().out
        assert out.startswith("inconclusive: the region bound does not refute")
        assert "bound = 1/2" in out
        assert _manifest(Path("prove.manifest.json"))["result"] == {
            "no_controller": False, "bound": "0.5", "regions_checked": 1}

    def test_negative_depth_is_rejected_by_the_parser(self, workdir, capsys):
        inp = _pmc_file(workdir)
        with pytest.raises(SystemExit) as e:
            main(["prove", str(inp), "--spec", "P> 0.8 [!bad U goal]",
                  "--max-depth", "-1"])
        assert e.value.code == 2
        assert "--max-depth: must be at least 0, got -1" in capsys.readouterr().err
        assert main(["prove", str(inp), "--spec", "P> 0.8 [!bad U goal]",
                     "--max-depth", "0"]) == EXIT_OK


class TestPermissive:
    def test_verified_region_file(self, workdir, capsys):
        inp = _pmc_file(workdir)
        rc = main(["permissive", str(inp), "--spec", "P> 0.6 [!bad U goal]",
                   "-o", "good.region", "--seed", "3", "--iterations", "30"])
        assert rc == EXIT_OK
        reg = formats.parse_region(Path("good.region").read_text())
        lo, hi = reg.intervals["p"]
        assert 0 < lo <= hi < 1
        man = _manifest(Path("good.region.manifest.json"))
        assert man["result"]["verified"] is True
        assert "verified: yes" in capsys.readouterr().out

    def test_minimizing_lower_bound_spec_reads_the_lower_bound(self, workdir, capsys):
        # E = 1/p + 1/q; the witnesses' box reaches below 5, so the region
        # holds points that violate "> 5" although the search minimizes
        inp = _write(workdir / "perm.pmc",
                     "pmc\nstates 3\ninitial 0\nparams p q\n"
                     "trans 0 1 p\ntrans 0 0 1 - p\ntrans 1 2 q\ntrans 1 1 1 - q\n"
                     "trans 2 2 1\nreward 0 1\nreward 1 1\nlabel goal 2\n")
        rc = main(["permissive", str(inp), "-o", "r.region", "--spec", "Emin> 5 [F goal]",
                   "--seed", "3", "--swarm", "20", "--iterations", "30"])
        out = capsys.readouterr().out
        assert rc == EXIT_UNSAT
        assert "verified: no (value bounds [" in out
        assert _manifest(Path("r.region.manifest.json"))["result"]["verified"] is False

    def test_unreachable_spec_is_an_input_class_failure(self, workdir):
        inp = _pmc_file(workdir)
        rc = main(["permissive", str(inp), "--spec", "P> 0.9 [!bad U goal]",
                   "-o", "bad.region", "--iterations", "10"])
        assert rc == EXIT_INPUT


class TestNegativeRewards:
    """A reward that goes below 0 makes its point ill-defined, so no command
    reports a value there that another command's bound contradicts."""

    PMC = ("pmc\nstates 3\ninitial 0\nparams p\n"
           "trans 0 1 p\ntrans 0 2 1 - p\ntrans 1 2 1\ntrans 2 2 1\n"
           "reward 0 p - 1/2\nlabel goal 2\n")
    SPEC = "Emin<= -1/4 [F goal]"

    def test_commands_agree(self, workdir, capsys):
        inp = _write(workdir / "neg.pmc", self.PMC)
        point = _write(workdir / "point.inst", "p = 1/8\n")
        rc = main(["check", str(inp), "--spec", self.SPEC, "--instantiation", str(point)])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "satisfied" not in captured.out
        assert "reward of state 0 evaluates to -3/8" in captured.err
        # where the reward is nonnegative the value is too
        point = _write(workdir / "point.inst", "p = 3/4\n")
        rc = main(["check", str(inp), "--spec", self.SPEC, "--instantiation", str(point)])
        assert rc == EXIT_UNSAT
        assert "value = 1/4" in capsys.readouterr().out
        # so no well-defined point satisfies the spec, as prove says
        rc = main(["prove", str(inp), "--spec", self.SPEC])
        assert rc == EXIT_OK
        assert "no controller in the region satisfies" in capsys.readouterr().out
        # and the search finds no well-defined witness to wrap
        rc = main(["permissive", str(inp), "--spec", self.SPEC, "-o", "neg.region",
                   "--seed", "1"])
        assert rc == EXIT_INPUT
        assert "no satisfying instantiation found" in capsys.readouterr().err
        assert not Path("neg.region").exists()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_swarm_skips_points_with_a_negative_reward(self, workdir, capsys, seed):
        # the value p - 1/2 is at most 1/8 at every p up to 5/8, but only
        # p >= 1/2 is well-defined: no witness may lie below it
        inp = _write(workdir / "neg.pmc", self.PMC)
        rc = main(["permissive", str(inp), "--spec", "Emin<= 1/8 [F goal]",
                   "-o", "neg.region", "--seed", str(seed)])
        captured = capsys.readouterr()
        assert "evaluates to" not in captured.err
        assert rc == EXIT_OK
        witnesses = re.findall(r"^  p = (\S+)$", captured.out, re.M)
        assert witnesses
        assert all(F(w) >= F(1, 2) for w in witnesses)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_well_defined_witness_names_no_swarm_point(self, workdir, capsys, seed):
        inp = _write(workdir / "neg.pmc", self.PMC)
        rc = main(["permissive", str(inp), "--spec", self.SPEC, "-o", "neg.region",
                   "--seed", str(seed)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "evaluates to" not in err
        assert "no satisfying instantiation found" in err

    def test_prove_rejects_a_reward_negative_on_the_whole_box(self, workdir, capsys):
        # p - 2 < 0 at every p: no point of the region is well-defined, so
        # there is no bound to report
        inp = _write(workdir / "neg.pmc", self.PMC.replace("p - 1/2", "p - 2"))
        rc = main(["prove", str(inp), "--spec", "Emin<= 5 [F goal]"])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "inconclusive" not in captured.out
        assert "reward of state 0 is negative everywhere in the region" in captured.err

    def test_prove_splits_past_a_sub_box_with_a_negative_reward(self, workdir, capsys):
        # p - 1/2 < 0 on the split box p <= 1/4, but the user's region holds
        # well-defined points (p >= 1/2), and those up to 5/8 satisfy the spec
        inp = _write(workdir / "neg.pmc", self.PMC)
        rc = main(["prove", str(inp), "--spec", "Emin<= 1/8 [F goal]", "--max-depth", "3"])
        assert rc == EXIT_UNSAT
        captured = capsys.readouterr()
        assert "inconclusive" in captured.out
        assert captured.err == ""

    def test_prove_needs_splitting_to_see_no_point_is_well_defined(self, workdir, capsys):
        # p - p^2 - 13/50 < 0 at every p; the root box's interval bound
        # misses that, the depth-12 splits do not
        inp = _write(workdir / "neg.pmc", self.PMC.replace("p - 1/2", "p - p^2 - 13/50"))
        rc = main(["prove", str(inp), "--spec", "Emin<= 5 [F goal]", "--max-depth", "12"])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "inconclusive" not in captured.out
        assert "no point of the region is well-defined" in captured.err

    def test_prove_refutes_a_sub_box_whose_edge_leaves_0_1(self, workdir, capsys):
        # state 3's row is well-defined only for p <= 1/2, where the value
        # p/2 is at most 1/4: the split boxes past 1/2 hold no point at all
        inp = _write(workdir / "half.pmc", (
            "pmc\nstates 4\ninitial 0\nparams p\n"
            "trans 0 1 1/2*p\ntrans 0 2 1 - 1/2*p\ntrans 1 1 1\ntrans 2 2 1\n"
            "trans 3 3 2*p\ntrans 3 2 1 - 2*p\nlabel goal 1\n"))
        rc = main(["prove", str(inp), "--spec", "P> 0.3 [F goal]", "--max-depth", "6"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "no controller in the region satisfies" in captured.out
        assert "bound = 44999/160000" in captured.out
        assert captured.err == ""

    def test_constant_negative_reward_is_rejected(self, workdir, capsys):
        inp = _write(workdir / "neg.pmc", self.PMC.replace("p - 1/2", "-1"))
        point = _write(workdir / "point.inst", "p = 3/4\n")
        rc = main(["check", str(inp), "--spec", self.SPEC, "--instantiation", str(point)])
        assert rc == EXIT_INPUT
        assert "negative reward at state 0" in capsys.readouterr().err


def _sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _header_digests(path: Path) -> dict:
    """input name -> sha256 of the `input <name> sha256=<hex>` header lines."""
    return dict(re.findall(r"input (\S+) sha256=([0-9a-f]{64})", path.read_text()))


class TestInputFiles:
    """Each input is read once; the header and the manifest hash the bytes
    the command parsed."""

    SPEC = "P> 0.5 [!bad U goal]"
    # (argv, input files); every command writes its manifest to man.json
    COMMANDS = [
        (["transform", "model.pomdp", "-o", "out.pmc", "--memory", "1"], ["model.pomdp"]),
        (["transform", "model.pomdp", "-o", "unf.pomdp", "--memory", "2", "--unfold"],
         ["model.pomdp"]),
        (["transform", "model.pomdp", "-o", "simple.pomdp", "--make-simple"],
         ["model.pomdp"]),
        (["check", "model.pomdp", "--spec", SPEC, "--fsc", "ctl.fsc"],
         ["model.pomdp", "ctl.fsc"]),
        (["check", "chain.pmc", "--spec", SPEC, "--instantiation", "point.inst"],
         ["chain.pmc", "chain.pmc.params", "point.inst"]),
        (["synthesize", "model.pomdp", "-o", "out.fsc", "--memory", "1", "--spec", SPEC,
          "--swarm", "4", "--iterations", "5", "--seed", "1"], ["model.pomdp"]),
        (["synthesize", "model.pomdp", "-o", "out.fsc", "--memory", "1", "--spec", SPEC,
          "--method", "brute"], ["model.pomdp"]),
        (["closed-form", "chain.pmc", "-o", "out.fn"], ["chain.pmc"]),
        (["prove", "chain.pmc", "--spec", SPEC, "--region", "box.region"],
         ["chain.pmc", "box.region"]),
        (["permissive", "chain.pmc", "-o", "out.region", "--spec", "P> 0.3 [!bad U goal]",
          "--swarm", "4", "--iterations", "10", "--witnesses", "1", "--seed", "1"],
         ["chain.pmc", "chain.pmc.params"]),
    ]
    IDS = ["transform", "unfold", "make-simple", "check-pomdp", "check-pmc",
           "synthesize", "brute", "closed-form", "prove", "permissive"]

    @staticmethod
    def _inputs(d: Path, newline="\n") -> dict:
        """Writes one file of every input kind to d; name -> bytes written."""
        m = g.two_coin_pomdp()
        chain = transforms.induced_pmc(m, 1)
        groups = chain.ensure_param_groups()
        texts = {
            "model.pomdp": formats.write_pomdp(m),
            "ctl.fsc": formats.write_fsc(uniform_fsc(m, 1)),
            "chain.pmc": formats.write_pmc(chain),
            "chain.pmc.params": formats.write_param_groups(groups),
            "point.inst": formats.write_instantiation(Instantiation(
                {n: F(1, len(grp)) for grp in groups for n in grp})),
            "box.region": formats.write_region(Region(
                {n: (F(1, 10), F(9, 10)) for n in chain.params.names})),
        }
        files = {}
        for name, text in texts.items():
            files[name] = text.replace("\n", newline).encode()
            (d / name).write_bytes(files[name])
        return files

    @staticmethod
    def _run(argv, capsys):
        code = main(argv + ["--manifest", "man.json"])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("argv, inputs", COMMANDS, ids=IDS)
    def test_every_input_is_read_once(self, workdir, monkeypatch, capsys, argv, inputs):
        self._inputs(workdir)
        reads = {}
        real_open = io.open

        def counting_open(file, mode="r", *a, **kw):
            if isinstance(file, (str, Path)) and not set(mode) & set("wax+"):
                path = Path(file).resolve()
                if path.parent == workdir.resolve():
                    reads[path.name] = reads.get(path.name, 0) + 1
            return real_open(file, mode, *a, **kw)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        code, _out = self._run(argv, capsys)
        monkeypatch.undo()
        assert code in (EXIT_OK, EXIT_UNSAT)
        assert reads == {name: 1 for name in inputs}
        assert sorted(_manifest(workdir / "man.json")["inputs"]) == sorted(inputs)

    @pytest.mark.parametrize("argv, inputs", COMMANDS, ids=IDS)
    def test_crlf_inputs_give_the_lf_results(self, tmp_path, monkeypatch, capsys,
                                             argv, inputs):
        runs = {}
        for newline in ("\n", "\r\n"):
            d = tmp_path / ("crlf" if newline == "\r\n" else "lf")
            d.mkdir()
            monkeypatch.chdir(d)
            files = self._inputs(d, newline)
            code, out = self._run(argv, capsys)
            outputs = {f.name: f.read_bytes() for f in d.iterdir()
                       if f.name not in files and f.name != "man.json"}
            runs[newline] = code, out, outputs, files
        code, out, outputs, files = runs["\r\n"]
        lf_code, lf_out, lf_outputs, lf_files = runs["\n"]
        assert b"\r\n" in files[inputs[0]]
        assert (code, out) == (lf_code, lf_out)
        # the outputs differ only in the digests of their headers
        assert set(outputs) == set(lf_outputs)
        for name, data in outputs.items():
            for i in inputs:
                data = data.replace(_sha256_of(files[i]).encode(),
                                    _sha256_of(lf_files[i]).encode())
            assert data == lf_outputs[name]
        # and those are of the raw CRLF bytes
        digests = {name: _sha256_of(files[name]) for name in inputs}
        assert _manifest(tmp_path / "crlf" / "man.json")["inputs"] == digests
        for name in outputs:
            if not name.endswith(".params"):
                assert _header_digests(tmp_path / "crlf" / name) == digests

    @pytest.mark.parametrize("argv, write", [
        (["closed-form", "m.pmc", "-o", "m.pmc"], _pmc_file),
        (["transform", "m.pomdp", "-o", "m.pomdp", "--memory", "1"], _pomdp_file),
        (["transform", "m.pomdp", "-o", "m.pomdp", "--make-simple"], _pomdp_file),
    ], ids=["closed-form", "transform", "make-simple"])
    def test_output_over_its_input_records_the_input_digest(self, workdir, argv, write):
        original = write(workdir, argv[1]).read_bytes()
        assert main(argv) == EXIT_OK
        digest = _sha256_of(original)
        assert _header_digests(workdir / argv[1]) == {argv[1]: digest}
        assert _manifest(workdir / (argv[1] + ".manifest.json"))["inputs"] == {argv[1]: digest}


class TestValueText:
    def test_values_past_the_int_to_str_digit_limit(self):
        # 5002 and 5002 digits: past the interpreter's default limit of 4300
        v = F(10 ** 5001 + 1, 3 * 10 ** 5001)
        limit = sys.get_int_max_str_digits()
        text = _fmt_value(v)
        assert text == "1%s1/3%s (~ 0.3333333333)" % ("0" * 5000, "0" * 5001)
        assert sys.get_int_max_str_digits() == limit


class TestLazySympy:
    def test_search_and_check_never_import_sympy(self, workdir):
        # sympy (about 32 MB resident) is imported only by closed-form,
        # whose final cancel always runs; RationalFunction runs no gcd and
        # polynomials.cancel over ints never calls sympy, so commands
        # without a closed form must not pay for it
        pomdp = _pomdp_file(workdir)
        pmc = _pmc_file(workdir)
        point = _write(workdir / "point.inst",
                       formats.write_instantiation(Instantiation({"p": F(3, 4)})))
        script = "\n".join([
            "import contextlib, io, sys",
            "from fscsynth.cli import main",
            "commands = [",
            "    ['transform', %r, '-o', 'out.pmc', '--memory', '2']," % str(pomdp),
            "    ['check', %r, '--spec', 'P> 0.7 [!bad U goal]',"
            " '--instantiation', %r]," % (str(pmc), str(point)),
            "    ['synthesize', %r, '-o', 'best.fsc', '--spec',"
            " 'P>= 0.7 [!bad U goal]', '--memory', '1', '--seed', '0',"
            " '--iterations', '5', '--swarm', '5']," % str(pomdp),
            "    ['prove', %r, '--spec', 'P> 0.8 [!bad U goal]']," % str(pmc),
            "    ['permissive', %r, '--spec', 'P> 0.6 [!bad U goal]',"
            " '-o', 'good.region', '--seed', '3', '--iterations', '30']," % str(pmc),
            "]",
            "for argv in commands:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) in (0, 1), argv",
            "print('sympy' in sys.modules)",
        ])
        out = subprocess.run([sys.executable, "-c", script], cwd=workdir,
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestLazyNumpy:
    """NumPy is imported by the float layer only: the swarm and
    FloatPmcEvaluator. Each test runs in a fresh interpreter."""

    @staticmethod
    def _files(workdir):
        m = g.random_pomdp(random.Random(35), max_states=6)
        d = transforms.induced_pmc(m, 1)
        pomdp = _write(workdir / "gen.pomdp", formats.write_pomdp(m))
        pmc = _write(workdir / "gen.pmc", formats.write_pmc(d))
        return d, pomdp, pmc

    @staticmethod
    def _run(workdir, lines):
        out = subprocess.run([sys.executable, "-c", "\n".join(lines)], cwd=workdir,
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    def test_only_the_swarm_imports_numpy(self, workdir):
        d, pomdp, pmc = self._files(workdir)
        point = _write(workdir / "point.inst", formats.write_instantiation(
            g.random_instantiation_for(d, random.Random(1))))
        spec = "P>= 1/2 [!bad U goal]"
        exact = [
            ["transform", str(pomdp), "-o", "out.pmc", "--memory", "2"],
            ["check", str(pmc), "--spec", spec, "--instantiation", str(point)],
            ["prove", str(pmc), "--spec", spec, "--max-depth", "2"],
            ["closed-form", str(pmc), "-o", "gen.fn"],
        ]
        search = ["synthesize", str(pomdp), "-o", "best.fsc", "--spec", spec,
                  "--memory", "1", "--swarm", "4", "--iterations", "3"]
        loaded = self._run(workdir, [
            "import contextlib, io, json, sys",
            "seen = {}",
            "import fscsynth",
            "seen['import fscsynth'] = 'numpy' in sys.modules",
            "from fscsynth import cli",
            "seen['import fscsynth.cli'] = 'numpy' in sys.modules",
            "for argv in %r:" % exact,
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(argv) in (0, 1), argv",
            "    seen[argv[0]] = 'numpy' in sys.modules",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(%r) in (0, 1)" % search,
            "seen['synthesize'] = 'numpy' in sys.modules",
            "print(json.dumps(seen))",
        ])
        assert loaded == {"import fscsynth": False, "import fscsynth.cli": False,
                          "transform": False, "check": False, "prove": False,
                          "closed-form": False, "synthesize": True}

    def test_first_float_evaluator_matches_the_exact_one(self, workdir):
        # the first FloatPmcEvaluator of an interpreter binds NumPy and the
        # term tables; its values must be those of a warm one
        d, _pomdp, pmc = self._files(workdir)
        rng = random.Random(2)
        points = [{n: str(v) for n, v in g.random_instantiation_for(d, rng).values.items()}
                  for _ in range(4)]
        got = self._run(workdir, [
            "import json, sys",
            "from fractions import Fraction",
            "from fscsynth import analysis, formats",
            "from fscsynth.models import parse_spec",
            "d = formats.parse_pmc(open(%r).read())" % str(pmc),
            "spec = parse_spec('P>= 1/2 [!bad U goal]')",
            "assert 'numpy' not in sys.modules",
            "fl = analysis.FloatPmcEvaluator(d, spec)",
            "assert fl.query.value is None",
            "ex = analysis.ExactPmcEvaluator(d, spec)",
            "pts = [{n: Fraction(v) for n, v in p.items()} for p in %r]" % points,
            "print(json.dumps([[fl.evaluate_vector([float(u[n]) for n in fl.param_order]),",
            "                   float(ex.evaluate(u))] for u in pts]))",
        ])
        assert len(got) == 4
        for fv, ev in got:
            assert abs(fv - ev) <= 1e-12
        assert len({ev for _fv, ev in got}) > 1


class TestEntryPoint:
    def test_installed_script(self):
        # run the declared console-script entry point the way the script
        # an install generates does, without needing that install
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, func = scripts["fscsynth"].split(":")
        script = ("import sys; sys.argv[0] = 'fscsynth'; "
                  "from %s import %s; sys.exit(%s())" % (module, func, func))
        out = subprocess.run([sys.executable, "-c", script, "--version"],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert out.stdout.startswith("fscsynth ")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--version"], ["--help"], ["-h"], [], ["frobnicate"], ["-", "check"],
        *([name, "--help"] for name in cli._SUBCOMMANDS),
        ["check"], ["--", "check"], ["--help", "check"], ["check", "--version"],
        ["--bogus", "check", "m.pmc"],
        ["synthesize", "m.pomdp", "-o", "x"], ["prove", "m.pmc", "--max-depth", "x"],
        ["transform", "m", "-o", "x", "--memory", "0"],
        ["closed-form", "m", "-o", "x", "--bogus"],
        ["permissive", "m", "-o", "x", "--spec", "s", "--seed", "-1"],
        ["closed-form", "m", "-o", "x", "extra"],
        ["check", "m", "--spec", "s", "-h"],
        ["closed", "m", "-o", "x"],
        ["prove", "--", "m"],
        ["transform"],
    ])
    def test_parser_messages_match_the_full_parser(self, argv, capsys):
        # main parses with the invoked subcommand's parser alone; it must
        # print what the full parser prints, and exit alike
        def run(parse):
            with pytest.raises(SystemExit) as e:
                parse(list(argv))
            out = capsys.readouterr()
            return e.value.code, out.out, out.err
        got = run(main)
        assert got == run(cli.build_parser().parse_args)
        assert got[1] or got[2]

    @pytest.mark.parametrize("argv", [
        ["check", "model.pmc", "--spec", "P> 0.5 [F goal]"],
        ["closed-form", "model.pmc", "-o", "out.fn"],
        ["transform", "model.pomdp", "-o", "out.pmc", "--memory", "2"],
    ])
    def test_a_valid_argv_builds_only_the_invoked_parser(
            self, workdir, monkeypatch, argv):
        # main parses a command's arguments with that command's parser
        # alone; the model is missing, so the command stops at its input
        progs = []
        init = argparse.ArgumentParser.__init__

        def recording_init(parser, *a, **kw):
            init(parser, *a, **kw)
            progs.append(parser.prog)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
        assert main(list(argv)) == EXIT_INPUT
        assert progs == ["fscsynth " + argv[0]]
        monkeypatch.undo()
        # and it parses them as the full parser does
        assert vars(cli._parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("command, flag", [
        ("check", "--min-prob"), ("prove", "--min-prob"),
        ("synthesize", "--min-prob"), ("synthesize", "--time-limit"),
        ("permissive", "--min-prob"), ("permissive", "--time-limit"),
    ])
    def test_non_finite_floats_are_rejected_by_the_parser(
            self, workdir, capsys, command, flag):
        inp = _pomdp_file(workdir)
        argv = [command, str(inp), "--spec", "P> 0.5 [!bad U goal]"]
        if command in ("synthesize", "permissive"):
            argv += ["-o", "x", "--swarm", "2", "--iterations", "1"]
        if command == "synthesize":
            argv += ["--memory", "1"]
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as e:
                main(argv + ["%s=%s" % (flag, value)])
            assert e.value.code == 2
            assert "must be finite" in capsys.readouterr().err
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("synthesize", "--seed", "-1", "must be at least 0"),
        ("permissive", "--seed", "-1", "must be at least 0"),
        ("synthesize", "--time-limit", "0", "must be positive"),
        ("synthesize", "--time-limit", "-1", "must be positive"),
        ("permissive", "--time-limit", "0", "must be positive"),
        ("permissive", "--time-limit", "-1", "must be positive"),
        ("synthesize", "--swarm", "1", "must be at least 2"),
        ("permissive", "--swarm", "1", "must be at least 2"),
        ("synthesize", "--min-prob", "0.7", "probability floor must lie in (0, 0.5)"),
        ("synthesize", "--min-prob", "0.5", "probability floor must lie in (0, 0.5)"),
        ("permissive", "--min-prob", "0", "probability floor must lie in (0, 0.5)"),
        ("permissive", "--min-prob", "0.7", "probability floor must lie in (0, 0.5)"),
    ])
    def test_out_of_range_values_are_rejected_by_the_parser(
            self, workdir, capsys, command, flag, value, message):
        inp = _pomdp_file(workdir)
        argv = [command, str(inp), "--spec", "P> 0.5 [!bad U goal]",
                "-o", "x", "--swarm", "2", "--iterations", "1"]
        if command == "synthesize":
            argv += ["--memory", "1"]
        with pytest.raises(SystemExit) as e:
            main(argv + ["%s=%s" % (flag, value)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and message in err
        assert not (workdir / "x").exists()


class TestPermissiveGroups:
    """permissive reads the parameter groups transform writes next to a
    non-simple chain."""

    def test_non_simple_chain_from_transform(self, workdir, capsys):
        inp = _pomdp_file(workdir)
        assert main(["transform", str(inp), "-o", "k2.pmc", "--memory", "2"]) == EXIT_OK
        assert not formats.parse_pmc(Path("k2.pmc").read_text()).simple
        rc = main(["permissive", "k2.pmc", "--spec", "P> 0.6 [!bad U goal]",
                   "-o", "k2.region", "--iterations", "20", "--swarm", "10"])
        assert rc in (EXIT_OK, EXIT_UNSAT)
        reg = formats.parse_region(Path("k2.region").read_text())
        assert sorted(reg.intervals) == sorted(
            formats.parse_pmc(Path("k2.pmc").read_text()).params.names)
        assert "input k2.pmc.params sha256=" in Path("k2.region").read_text()
        man = _manifest(Path("k2.region.manifest.json"))
        assert "k2.pmc.params" in man["inputs"]

    def test_sidecar_with_unknown_name_is_rejected(self, workdir, capsys):
        inp = _pomdp_file(workdir)
        assert main(["transform", str(inp), "-o", "k2.pmc", "--memory", "2"]) == EXIT_OK
        side = Path("k2.pmc.params")
        side.write_text(side.read_text() + "group nosuch\n")
        rc = main(["permissive", "k2.pmc", "--spec", "P> 0.6 [!bad U goal]",
                   "-o", "k2.region", "--iterations", "5", "--swarm", "4"])
        assert rc == EXIT_INPUT
        assert "nosuch" in capsys.readouterr().err
        assert not Path("k2.region").exists()


class TestSearchStats:
    def test_synthesize_manifest_counts_the_search(self, workdir, capsys):
        inp = _pomdp_file(workdir)
        rc = main(["synthesize", str(inp), "-o", "best.fsc",
                   "--spec", "P>= 0.7 [!bad U goal]", "--memory", "1",
                   "--seed", "0", "--iterations", "20", "--swarm", "10"])
        assert rc == EXIT_OK
        stats = _manifest(Path("best.fsc.manifest.json"))["stats"]
        assert set(stats) == {"evaluations", "first_satisfied_eval", "recomputes",
                              "budget_exhausted"}
        assert stats["evaluations"] == 210
        assert 1 <= stats["first_satisfied_eval"] <= 210
        assert stats["recomputes"] == 0 and stats["budget_exhausted"] is False
        assert "210 evaluations" in capsys.readouterr().out

    def test_permissive_manifest_counts_every_run(self, workdir):
        inp = _pmc_file(workdir)
        rc = main(["permissive", str(inp), "--spec", "P> 0.6 [!bad U goal]",
                   "-o", "good.region", "--seed", "3", "--iterations", "30"])
        assert rc == EXIT_OK
        stats = _manifest(Path("good.region.manifest.json"))["stats"]
        assert stats["evaluations"] % (40 * 31) == 0 and stats["evaluations"] > 0
        assert stats["first_satisfied_eval"] is not None
        assert stats["budget_exhausted"] is False
