import ast
import dataclasses
import inspect
import pathlib
import re

import prbench as pb
from prbench import cli
from prbench.harness import ExperimentConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_export_list_matches_imports():
    # every exported name resolves, and every public name the package
    # imports is exported
    missing = [name for name in pb.__all__ if not hasattr(pb, name)]
    assert not missing
    tree = ast.parse(inspect.getsource(pb))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unexported = {name for name in imported if not name.startswith("_")} - set(pb.__all__)
    assert not unexported


def test_readme_layout_lists_modules():
    # the modules the README's Layout block names are the package's modules
    text = README.read_text(encoding="utf-8")
    layout = re.search(r"## Layout\n\n```\n(.*?)```", text, flags=re.S).group(1)
    listed = set(re.findall(r"^\s+(\w+\.py)\s", layout, flags=re.M))
    package = pathlib.Path(pb.__file__).parent
    assert listed == {p.name for p in package.glob("*.py")} - {"__init__.py"}


def test_readme_cli_matches_config():
    # every flag on a `prbench <command>` line of the README is a config key
    # (or --config), and the subcommands the README lists are the CLI's
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    calls = re.findall(r"^\s*prbench (\w+)(.*)$", text, flags=re.M)
    assert calls
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"config"}
    for command, args in calls:
        assert command in cli.COMMANDS
        assert set(re.findall(r"--(\w+)", args)) <= keys, args
    listed = re.search(r"Subcommands: (.*?)\.", text, flags=re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set(cli.COMMANDS)


def test_every_raise_is_a_cli_error_type():
    # cli.main maps ValueError and OSError to exit 2; a raise of any other
    # type would escape it as a traceback
    package = pathlib.Path(pb.__file__).parent
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc) if exc is not None else "bare raise")
    assert raised <= {"ValueError", "OSError"}, raised
