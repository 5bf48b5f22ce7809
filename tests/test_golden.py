"""Golden CSV digests: every pinned config must reproduce its CSV byte for byte.

The digests are SHA-256 hashes of `run_experiment(cfg).to_csv()`.  They pin
results, not code structure, so a refactor of the runner that changes any
value, row, order or note fails here.  qspa cells stay at d <= 8 to keep the
suite fast.
"""

import hashlib
from dataclasses import replace

import pytest

from qtcov.doa import DoaScene
from qtcov.harness import ExperimentConfig, default_config, run_experiment

SCENE8 = DoaScene(8, (0.12, 0.47, 0.73), (1.0, 0.8, 1.2), 0.2)


def _cov(**kw):
    base = ExperimentConfig("custom", d=6, rulers=("full", "alpha:0.5"),
                            deltas=((1.0, 1.0),), n_values=(60,), trials=3,
                            seed=77, estimators=("qtscm", "qscm"))
    return replace(base, **kw)


GOLDEN_CONFIGS = {
    "all_estimators": _cov(d=8, estimators=("qtscm", "qscm", "qspa"),
                           deltas=((1.5, 0.5),), trials=2),
    "d_sweep": _cov(d_values=(4, 6, 8), n_values=(30, 90)),
    "fixed_bits": _cov(bits=(2, 3, None), deltas=((0.5, 0.5), (1.5, 1.0))),
    "tail_bound": _cov(d=6, bits=(2, 4, None), level_rule="tail_bound",
                       estimators=("qtscm", "qscm", "qspa"), trials=2),
    "datadriven": _cov(bits=(None, 3), level_rule="datadriven", n_values=(40, 120)),
    "emit_trials": _cov(emit_trials=True, trials=4),
    "negative_level": _cov(deltas=((-1.0, -1.0), (0.5, 0.5))),
    "empty_n": _cov(n_values=(0, 20)),
    "doa_d8": _cov(scene=SCENE8, d=8, estimators=("qtscm", "qscm", "qspa"),
                   bits=(2,), deltas=((2.0, 2.0),), n_values=(200, 800),
                   music_grid=512, trials=2),
    "exp1": replace(default_config("exp1"), trials=3),
    "exp2": replace(default_config("exp2"), trials=2),
    "exp5": replace(default_config("exp5"), estimators=("qtscm", "qscm"),
                    n_values=(1000,), trials=2),
    # three delta_i levels (one of them zero), each beside three delta_r
    # levels that repeat the other part's levels: at k = None cells share
    # imaginary planes, while equal levels of another part, bit depth or
    # ruler must not share.  A finite k takes delta_r on both parts, so the
    # delta_r levels are all distinct.
    "shared_planes": _cov(bits=(2, None), n_values=(40, 90), emit_trials=True,
                          deltas=((1.0, 0.0), (1.5, 0.0), (2.0, 0.0),
                                  (0.5, 1.0), (2.5, 1.0), (3.0, 1.0),
                                  (0.75, 1.5), (1.25, 1.5), (1.75, 1.5))),
}

DIGESTS = {
    "all_estimators": "5b5eae713b78c36009842f11e01d66e7ed080060888f889e177b15b0134d1117",
    "d_sweep": "9e70fa559f66e2d43d8ec459b67cb65b9fd358b8ec6b040d3418f628a114fb32",
    "datadriven": "34a52993c8710b2dd2fa1bfa8a027d765429b7d1a97dbe411e9077188d155106",
    "doa_d8": "e4718f623da67b1d0739a31620ea8b76a20f7d75c0a06f8cc2c11954cbf8ad88",
    "emit_trials": "55c4e0262ab94bd8b633a90587d1678408c650d978596d91b00072f62d6106bd",
    "empty_n": "eba87a7afb3c86b0acf8e748bc785700b88954b33e3407a419a2c2d6c1c0839b",
    "exp1": "6bb8296d2be5f7a42a73d933a58c0599757a6916370669722e8c4fc05cd46e23",
    "exp2": "6950bdf102e590a0dfd9ab360ce68a080e7846341b030423f6754d51a65ad3f8",
    "exp5": "9a8bb7799a3c1d600a18ed0c9633fe487456e65c64c074eb2437f59434c0c73a",
    "fixed_bits": "0eeeae63b3c885fda9a6a5dbf08ea68deb18549221c01bcb00df6a93e6b27695",
    "negative_level": "87e5d7271aa91b6716b4fc6c274c2f4cbdf0669bc174f7df96403191dcbd11b2",
    "shared_planes": "3962cf23c884cb5d370d7c64a77b9297ab56bd669ffef2ac4e3fd59b6a861d29",
    "tail_bound": "720928786047c206a34ac6736ffed35ca14474cb34a91bd4b73a0a2fa083567a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_csv_digest(name):
    csv_text = run_experiment(GOLDEN_CONFIGS[name]).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == DIGESTS[name]
