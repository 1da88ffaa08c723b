"""The benchmark's tracer still finds every name it wraps in the package."""

import json
import subprocess
import sys
from pathlib import Path

import genmodels as g
from childenv import child_env
from fscsynth import formats

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


def test_tracer_installs_on_this_package():
    # spans.install looks every traced function up by name; a rename or a
    # deletion in the package breaks the traced benchmark run
    script = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % str(E2EBENCH),
        "import spans",
        "spans.install(spans.Tracer())",
        "print('installed')",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "installed"


def test_every_chain_command_records_a_build_span(tmp_path):
    # the tracer rebinds module attributes only, so the CLI must reach the
    # chain builders through the transforms module when a command runs
    (tmp_path / "m.pomdp").write_text(formats.write_pomdp(g.fork_pomdp()))
    commands = [["transform", "m.pomdp", "-o", "%s.pmc" % v, "--memory", "2",
                 "--variant", v]
                for v in ("standard", "substituted", "action-restricted", "next-obs")]
    commands += [["synthesize", "m.pomdp", "-o", "%s.fsc" % v, "--memory", "2",
                  "--variant", v, "--spec", "P>= 1/2 [!bad U goal]",
                  "--swarm", "2", "--iterations", "1"]
                 for v in ("standard", "substituted")]
    script = "\n".join([
        "import json, sys",
        "sys.path.insert(0, %r)" % str(E2EBENCH),
        "import spans",
        "from fscsynth import cli",
        "tr = spans.Tracer()",
        "spans.install(tr)",
        "tr.enabled = True",
        "codes = [cli.main(argv) for argv in %r]" % commands,
        "names = [tr.names[i] for i in tr.name]",
        "print(json.dumps({'codes': codes, 'names': names,",
        "                  'parent': list(tr.parent)}))",
    ])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=child_env(), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    run = json.loads(out.stdout.splitlines()[-1])
    assert run["codes"][:4] == [0, 0, 0, 0]
    assert all(c in (0, 1) for c in run["codes"][4:])
    names, parent = run["names"], run["parent"]

    def under(i, root):
        while i >= 0:
            if i == root:
                return True
            i = parent[i]
        return False

    roots = [i for i, nm in enumerate(names)
             if nm in ("cli.transform", "cli.synthesize")]
    assert len(roots) == len(commands)
    for root in roots:
        assert any(nm == "transforms.build" and under(i, root)
                   for i, nm in enumerate(names)), names[root]
