"""The README's quick start and library use run as documented.

The files the quick start introduces by name ("... (`model.pomdp`):" right
before a plain code block) are written from those blocks, and every
`fscsynth` line of its `sh` blocks runs through `cli.main`, in order, in a
fresh directory. The python block of "Library use" runs there too, next to
the quick start's `model.pomdp`.
"""

import re
import shlex
from pathlib import Path

from fscsynth.cli import EXIT_OK, EXIT_UNSAT, main

README = Path(__file__).resolve().parent.parent / "README.md"

# a fenced block and the text just before it
_BLOCK = re.compile(r"([^\n]*)\n\n```(\w*)\n(.*?)```", re.S)


def _section(title):
    return README.read_text().split("## " + title)[1].split("\n## ")[0]


def _quick_start():
    text = _section("Quick start")
    files, commands, documented = {}, [], {}
    for before, lang, body in _BLOCK.findall(text):
        if lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                if line.startswith("fscsynth "):
                    commands.append(shlex.split(line)[1:])
                elif line.startswith("# ") and " = " in line:
                    what, value = line[2:].split(" = ")
                    documented[what] = value
        else:
            name = re.search(r"\(`([^`]+)`\):$", before)
            assert name, "no file name before the block %r" % body
            files[name.group(1)] = body
    return files, commands, documented


def test_quick_start_runs_as_documented(tmp_path, monkeypatch, capsys):
    files, commands, documented = _quick_start()
    assert sorted(files) == ["model.pomdp", "point.inst"]
    assert documented == {"reach-avoid probability": "(5 + 3*p_0_0_a)/10"}
    assert [argv[0] for argv in commands] == [
        "synthesize", "transform", "closed-form", "check", "prove", "permissive"]
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        Path(name).write_text(body)
    for argv in commands:
        capsys.readouterr()
        rc = main(argv)
        out = capsys.readouterr().out
        if argv[0] in ("check", "prove", "permissive"):
            assert rc in (EXIT_OK, EXIT_UNSAT), (argv, rc)
        else:
            assert rc == EXIT_OK, (argv, rc)
        if argv[0] == "closed-form":
            for what, value in documented.items():
                assert "%s = %s\n" % (what, value) in out


def test_library_use_runs_as_documented(tmp_path, monkeypatch, capsys):
    files, _commands, documented = _quick_start()
    (code,) = [body for _before, lang, body in _BLOCK.findall(_section("Library use"))
               if lang == "python"]
    monkeypatch.chdir(tmp_path)
    Path("model.pomdp").write_text(files["model.pomdp"])
    exec(compile(code, "README.md", "exec"), {})
    searched, closed_form, evaluated = capsys.readouterr().out.splitlines()
    satisfied, value = searched.split()
    assert satisfied == "True"
    assert closed_form == documented["reach-avoid probability"]
    # the exact evaluator reproduces the search's certified value
    assert evaluated == value
