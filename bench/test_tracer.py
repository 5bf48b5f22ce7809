"""The tracer catches a qtcov function however the program reaches it, and
restores every reference afterwards.

    python3 -m pytest bench -q
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qtcov  # noqa: E402
from qtcov import estimators, harness  # noqa: E402

import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tables():
    """A qtcov module that reaches qtscm only through tables built at import."""
    mod = types.ModuleType("qtcov._bench_tables")
    mod.BY_NAME = {"qtscm": estimators.qtscm}
    mod.PAIRS = (("qtscm", estimators.qtscm),)
    mod.NESTED = [{"fns": (estimators.qtscm,)}]

    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


@pytest.fixture
def batch():
    T = qtcov.random_toeplitz_covariance(4, 1)
    raw = qtcov.sample_complex_gaussian(T, qtcov.full_ruler(4), 50, 1)
    return qtcov.quantize_batch(raw, qtcov.QuantizationSpec(0.5, 0.5))


def test_every_route_is_wrapped_and_restored(tables, batch):
    original = estimators.qtscm
    routes = (lambda: harness.qtscm, lambda: estimators.qtscm, lambda: qtcov.qtscm,
              lambda: tables.BY_NAME["qtscm"], lambda: tables.PAIRS[0][1],
              lambda: tables.NESTED[0]["fns"][0])
    t = Tracer()
    with t.installed(timed=True):
        assert all(route() is not original for route in routes)
        for route in routes:
            route()(batch)
    assert all(route() is original for route in routes)
    assert t.stats["estimators"].calls == len(routes)


def test_nested_call_within_a_layer_counts_once(batch):
    t = Tracer()
    with t.installed(timed=True):
        qtcov.qtscm(batch)          # calls quantized_sample_covariance inside
        qtcov.qscm(batch)
    est = t.stats["estimators"]
    assert est.calls == 2
    assert 0.0 < est.busy <= sum(est.durations)


def test_self_time_excludes_nested_layers(batch):
    t = Tracer()
    cfg = harness.ExperimentConfig("custom", d=4, n_values=(50,), trials=2, seed=3)
    with t.installed(timed=True):
        harness.run_experiment(cfg)
    s = t.stats
    assert s["harness"].calls == 1
    assert s["sampling"].calls == 3 and s["quantizer"].calls == 2
    nested = sum(s[layer].busy for layer in tracer.LAYERS if layer != "harness")
    assert abs(s["harness"].busy + nested - s["harness"].durations[0]) < 1e-6


def test_untimed_wrappers_only_capture(batch):
    seen = []
    t = Tracer({"qtscm": lambda args, kwargs, out: seen.append(out)})
    with t.installed(timed=False):
        harness.qtscm(batch)
        qtcov.qscm(batch)
    assert len(seen) == 1 and t.stats["estimators"].calls == 0


def test_a_missing_function_fails_loudly():
    with pytest.raises(LookupError):
        tracer.find_function("no_such_function")
