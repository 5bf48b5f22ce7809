"""The benchmark in bench/ reaches into qtcov by name: the imports of
bench/run.py, and the functions that bench/tracer.py wraps and whose
arguments bench/run.py's `Captures` reads.  A qtcov change that breaks one
of these fails here, in the test suite, rather than in a benchmark run.
The bench files are only read.
"""

import ast
import importlib
import pathlib
import sys
from dataclasses import replace

import pytest

from qtcov import cli, harness  # noqa: F401  (find_function searches the loaded modules)
from qtcov.doa import DoaScene

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))  # run.py imports its neighbours by bare name
import run as bench_run  # noqa: E402
import tracer  # noqa: E402


def _qtcov_references():
    """(module, name) for every qtcov name bench/run.py imports or reads off
    an imported qtcov module: `from qtcov.m import f` gives ("qtcov.m", "f"),
    and `harness.parse_config` after `from qtcov import harness` gives
    ("qtcov.harness", "parse_config")."""
    tree = ast.parse((BENCH / "run.py").read_text())
    bound, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qtcov":
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qtcov":
            for alias in node.names:
                refs.add((node.module, alias.name))
                if node.module == "qtcov":  # a submodule, or a name off the package
                    bound[alias.asname or alias.name] = f"qtcov.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            refs.add((bound[node.value.id], node.attr))
    return sorted(refs)


REFERENCES = _qtcov_references()


def test_references_were_found():
    assert ("qtcov.harness", "resolve_ruler") in REFERENCES
    assert ("qtcov.harness", "parse_config") in REFERENCES
    assert ("qtcov.cli", "main") in REFERENCES


@pytest.mark.parametrize("module, name", REFERENCES, ids=[".".join(r) for r in REFERENCES])
def test_run_py_qtcov_names_resolve(module, name):
    assert hasattr(importlib.import_module(module), name)


TRACED = sorted({name for names in tracer.LAYERS.values() for name in names}
                | set(tracer.STAT_HOOKS) | set(bench_run.Captures().hooks()))


@pytest.mark.parametrize("name", TRACED)
def test_traced_names_resolve(name):
    assert tracer.find_function(name).__name__ == name


@pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
def test_captures_read_what_the_runner_passes(timed):
    # run.py's checks rebuild each qspa solve from its captured arguments,
    # and read n only as a keyword
    cfg = replace(harness.default_config("custom"), d=8, n_values=(40,), trials=1,
                  deltas=((0.5, 0.5),), estimators=("qspa",), music_grid=64,
                  scene=DoaScene(8, (0.1, 0.4), (1.0, 1.0), 0.1))
    captures = bench_run.Captures()
    with tracer.Tracer(captures.hooks()).installed(timed=timed):
        table = harness.run_experiment(cfg)
    [solve] = captures.solves
    assert (solve["n"], solve["d"], solve["delta_r"], solve["k"]) == (40, 8, 0.5, None)
    [mean] = [row.value for row in table.rows if row.stat == "mean"]
    assert captures.resolved == [True]
    [(_, _, mse)] = captures.mse_calls
    assert mse == mean


@pytest.mark.parametrize("name", sorted(bench_run.WORKLOADS))
def test_each_workload_reaches_its_traced_layers(name, tmp_path):
    # run.py fails a --trace 1 run whose layers record no call; the one-cell
    # warm-up experiment calls into every layer the workload lists
    workload = bench_run.WORKLOADS[name]
    path = bench_run.write(tmp_path / "warmup.cfg", workload.config_text(1, warmup=True))
    trace = tracer.Tracer()
    with trace.installed(timed=True):
        bench_run.experiment(cli, str(path), str(tmp_path))
    assert [layer for layer in workload.layers if trace.stats[layer].calls == 0] == []
