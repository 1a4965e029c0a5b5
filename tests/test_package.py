import ast
import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import pytest

import prbench
from prbench import cdp, cli, pgm
from prbench.harness import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = pathlib.Path(prbench.__file__).parent


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_references_live_only_in_tests():
    # the package binds no names a second time: its one import is the
    # `objective` module itself, for the BLAS pin that importing it makes;
    # and each test-only reference has one home, tests/reference.py
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [ast.dump(n) for n in ast.walk(init) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == [ast.dump(ast.parse("from . import objective").body[0])]
    references = _top_level_names(ROOT / "tests" / "reference.py")
    assert references
    for path in PACKAGE.glob("*.py"):
        assert not _top_level_names(path) & references, path.name


def test_benchmark_hooks_resolve(monkeypatch, tmp_path):
    # the attributes the benchmark patches exist, and its small tasks run
    # through the CLI and yield the per-task results it checks
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import workloads

    recorder = spans.Recorder()
    recorder.tracing = True
    spans.instrument(recorder)
    try:
        summaries = [
            workloads.run_task(task, recorder, cli.main, cdp.fft_call_count).summary
            for task in workloads.build_inputs("sweep", str(tmp_path)).small
        ]
    finally:
        recorder.restore()
    assert len(summaries) == 4
    assert all(summary["exit"] in (0, 1) for summary in summaries)
    carried = set().union(*summaries)
    assert {"power_iters", "runs", "loo_steps", "cdp_power_iters", "cdp_status"} <= carried


def test_readme_layout_lists_modules():
    # the modules the README's Layout block names are the package's modules
    text = README.read_text(encoding="utf-8")
    layout = re.search(r"## Layout\n\n```\n(.*?)```", text, flags=re.S).group(1)
    listed = set(re.findall(r"^\s+(\w+\.py)\s", layout, flags=re.M))
    assert listed == {p.name for p in PACKAGE.glob("*.py")} - {"__init__.py"}


def test_readme_cli_matches_config():
    # every flag on a `prbench <command>` line of the README is a key that
    # command reads (or --config), and the subcommands the README lists are
    # the CLI's
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    calls = re.findall(r"^\s*prbench (\w+)(.*)$", text, flags=re.M)
    assert calls
    for command, args in calls:
        assert command in cli.COMMANDS
        assert set(re.findall(r"--(\w+)", args)) <= {*cli.COMMANDS[command][1], "config"}, args
    listed = re.search(r"Subcommands: (.*?)\.", text, flags=re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set(cli.COMMANDS)


_FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}


class RecordingConfig(ExperimentConfig):
    """A config that notes the name of each field read from it."""

    def __getattribute__(self, name):
        if name in _FIELD_NAMES:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command, runs", [
    ("run", [dict(n_list=(10,), m_list=(60,), methods=("gd",))]),
    ("sweep", [dict(n_list=(10,), m_list=(60,), methods=("gd",))]),
    ("headtohead", [dict(n_list=(16,))]),
    ("slopes", [dict(n_list=(8, 12, 16), max_iters=50)]),
    ("loo", [dict(n_list=(16,), m_list=(32,), methods=("polyak",), max_iters=5)]),
    ("oracle", [{}]),
    ("concentration", [dict(n_list=(10,), m_list=(100,))]),
    # the synthetic image reads its size, a read image does not
    ("cdp", [dict(cdp_size=8, mask_count=2, cdp_iters=2),
             dict(image="image.pgm", mask_count=2, cdp_iters=2)]),
])
def test_each_command_reads_its_row(tmp_path, monkeypatch, command, runs):
    # each command reads exactly its row of `COMMANDS`: a key it reads that
    # the row lacks would be refused as a flag, and a key in the row that it
    # never reads would be accepted and then ignored
    monkeypatch.chdir(tmp_path)
    pgm.write_pgm("image.pgm", cdp.synthetic_image(8, 8))
    function, keys, one_value = cli.COMMANDS[command]
    read = set()
    for idx, values in enumerate(runs):
        cfg = RecordingConfig(out=f"out{idx}", **values)
        cfg.read = set()
        assert function(cfg) in (0, 1)
        read |= cfg.read
    assert read == set(keys)
    assert set(one_value) <= set(keys)


def test_cli_imports_no_scipy():
    # scipy is a test dependency only: it doubles the start-up time of
    # every CLI call; hashlib would load OpenSSL's libcrypto (3.5 MiB)
    # only for BLAKE2, which `_blake2` provides; and `objective.project`'s
    # worker needs only `threading`, which numpy loads, not the thread pool
    # of `concurrent.futures` and its `queue`
    code = ("import sys, prbench.cli; print(sorted(m for m in sys.modules"
            " if m.startswith('scipy') or m in ('hashlib', '_hashlib',"
            " 'concurrent.futures', 'queue')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert result.stdout.strip() == "[]"


_HYPOTHESIS_PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_keeps_the_run_going(tmp_path):
    # under the suite's warning filters a failing property test reports its
    # falsifying example and the tests after it still run
    probe = tmp_path / "probe_test.py"
    probe.write_text(_HYPOTHESIS_PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in result.stdout
    assert "1 failed, 1 passed" in result.stdout


def test_every_raise_is_a_cli_error_type():
    # cli.main maps ValueError and OSError to exit 2; a raise of any other
    # type would escape it as a traceback
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc) if exc is not None else "bare raise")
    assert raised <= {"ValueError", "OSError"}, raised
