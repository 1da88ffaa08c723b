"""End-to-end command line behaviour: exit codes, files, manifests."""

import json
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
from fscsynth import formats
from fscsynth.analysis import state_eliminate
from fscsynth.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_UNSAT, _fmt_value, main
from fscsynth.fsc import Fsc, uniform_fsc
from fscsynth.models import Instantiation, PmcT
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
        inp = _pomdp_file(workdir)
        rc = main(["synthesize", str(inp), "-o", "best.fsc",
                   "--spec", "P>= 0.9 [!bad U goal]", "--memory", "1",
                   "--time-limit", "0.05"])
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


class TestClosedForm:
    def test_reach_function(self, workdir, capsys):
        inp = _pmc_file(workdir)
        rc = main(["closed-form", str(inp), "-o", "value.fn"])
        assert rc == EXIT_OK
        f = formats.parse_rational_function(Path("value.fn").read_text())
        assert f == state_eliminate(g.biased_choice_pmc())
        assert "(5 + 3*p)/10" in capsys.readouterr().out

    def test_order_flag_changes_nothing(self, workdir):
        inp = _pmc_file(workdir)
        main(["closed-form", str(inp), "-o", "a.fn", "--order", "degree"])
        main(["closed-form", str(inp), "-o", "b.fn", "--order", "sequential"])
        assert (formats.parse_rational_function(Path("a.fn").read_text())
                == formats.parse_rational_function(Path("b.fn").read_text()))


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

    def test_unreachable_spec_is_an_input_class_failure(self, workdir):
        inp = _pmc_file(workdir)
        rc = main(["permissive", str(inp), "--spec", "P> 0.9 [!bad U goal]",
                   "-o", "bad.region", "--iterations", "10"])
        assert rc == EXIT_INPUT


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
        # sympy (about 32 MB resident) is imported only by the gcd
        # cancellation of large rational functions; commands that never
        # reach it must not pay for it
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
