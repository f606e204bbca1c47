"""README.md as written: its library quick start and command-line examples run, and it names only what exists.

The backticked spans outside fenced blocks name no private symbol, every Python name among them resolves
(from ``reserve2d``, the standard library or builtins, or is a word of the CLI), and every ``--flag`` it
cites is an option of a subcommand."""

import argparse
import ast
import builtins
import importlib
import importlib.util
import pkgutil
import re
import shlex
from pathlib import Path

import reserve2d
from reserve2d import cli

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")  # a dotted name, perhaps called
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _text() -> str:
    return README.read_text(encoding="utf-8")


def _section(title: str) -> str:
    found = re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", _text(), re.S | re.M)
    assert found, f"README.md has no '## {title}' section"
    return found.group(1)


def _spans() -> list[str]:
    """Every backticked span outside fenced blocks, its line breaks read as spaces."""
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", FENCED.sub("", _text()))]


def _commands() -> list[list[str]]:
    """The argv of each ``reserve2d`` line of the "Command line" block: comments dropped, continuations joined."""
    block = "".join(body for lang, body in FENCED.findall(_section("Command line")) if lang == "sh")
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("reserve2d ")]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _resolves(name: str) -> bool:
    """Whether a dotted name is a ``reserve2d`` object (a bare one may be a public class's attribute), a
    builtin, a standard-library object, or a subcommand, choice or metavar of the CLI."""
    parts = name.split(".")
    if parts[0] == "reserve2d":
        parts = parts[1:]
    if not parts:
        return True
    if parts[0] in {m.name for m in pkgutil.iter_modules(reserve2d.__path__)}:
        return _chain(importlib.import_module(f"reserve2d.{parts[0]}"), parts[1:])
    if parts[0] in reserve2d.__all__:
        return _chain(reserve2d, parts)
    if hasattr(builtins, parts[0]):
        return _chain(builtins, parts)
    if importlib.util.find_spec(parts[0]) is not None:  # imported only to look an attribute up
        return len(parts) == 1 or _chain(importlib.import_module(parts[0]), parts[1:])
    classes = [obj for obj in map(reserve2d.__dict__.get, reserve2d.__all__) if isinstance(obj, type)]
    words = {*_subcommands()}
    for sub in _subcommands().values():
        for action in sub._actions:
            words |= {*(action.choices or ()), *(action.metavar if isinstance(action.metavar, tuple) else ())}
    return len(parts) == 1 and (name in words or any(hasattr(cls, name) for cls in classes))


def _chain(obj, parts: list[str]) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_library_quick_start_runs(capsys):
    """The python block under "Library quick start" runs unchanged and prints
    one reserved table per period of its three-period problem."""
    text = _text()
    found = re.search(r"^## Library quick start\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert found, "README.md has no python block right under '## Library quick start'"
    exec(compile(found.group(1), str(README), "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3
    for row in rows:
        entries = ast.literal_eval(row)
        assert len(entries) == 4 and all(len(r) == 2 for r in entries)


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """The example files of "File formats", written where the commands run, and every ``reserve2d`` line of
    the "Command line" block, run in order through ``cli.main``: each exits 0."""
    names = {"category,numerator,denominator": "scheme.csv", "department,period,vacancies": "problem.csv",
             "index,category": "roster.csv"}
    for _, body in FENCED.findall(_section("File formats")):
        (tmp_path / names[body.splitlines()[0]]).write_text(body, encoding="utf-8")
    assert len(list(tmp_path.iterdir())) == 3
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert len(commands) == 6
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_names_no_private_symbol():
    """No span has a component (split at anything but a letter, digit or underscore) that starts with an
    underscore, dunders aside; each span that is a Python name, perhaps called, resolves."""
    spans = _spans()
    private = [span for span in spans for part in re.split(r"\W+", span)
               if part.startswith("_") and not (part.startswith("__") and part.endswith("__"))]
    assert private == []
    names = [m.group(1) for span in spans if (m := NAME.fullmatch(span))
             and not re.search(r"\.(csv|py|json|md)$", m.group(1))]  # a file name is no Python name
    assert names and [name for name in names if not _resolves(name)] == []


def test_readme_cites_only_flags_the_cli_has():
    """Every ``--flag`` in a span or a command of the "Command line" block is an option of a subcommand."""
    options = {option for sub in _subcommands().values() for option in sub._option_string_actions}
    cited = {*FLAG.findall(" ".join(_spans())), *(arg for argv in _commands() for arg in argv if FLAG.fullmatch(arg))}
    assert "--seed" in cited and sorted(cited - options) == []
