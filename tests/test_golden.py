"""Golden CSV and SVG digests: every pinned config must reproduce its CSV,
and every pinned plot its SVG, byte for byte.

The digests are SHA-256 hashes of `run_experiment(cfg).to_csv()` and of
`emit_plot` on that table.  They pin results, not code structure, so a
refactor of the runner that changes any value, row, order or note, or of the
plotter that changes any byte of a plot, fails here.  qspa cells stay at
d <= 8 to keep the suite fast.
"""

import hashlib
from dataclasses import replace

import pytest

from qtcov.doa import DoaScene
from qtcov.harness import PRESETS, ExperimentConfig, default_config, run_experiment
from qtcov.svgplot import emit_plot

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
    "emit_trials": _cov(emit_trials=True, trials=4),
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
    "all_estimators": "4ab6f287a29109a2caa8b765477d78531802798678b611434317d0a17cc34e03",
    "d_sweep": "9e70fa559f66e2d43d8ec459b67cb65b9fd358b8ec6b040d3418f628a114fb32",
    "doa_d8": "9b3234f6fb2e0733afb8cf15a20afaf057ae37a3d58fc5ef8cf79869c620af85",
    "emit_trials": "55c4e0262ab94bd8b633a90587d1678408c650d978596d91b00072f62d6106bd",
    "exp1": "6bb8296d2be5f7a42a73d933a58c0599757a6916370669722e8c4fc05cd46e23",
    "exp2": "6950bdf102e590a0dfd9ab360ce68a080e7846341b030423f6754d51a65ad3f8",
    "exp5": "9a8bb7799a3c1d600a18ed0c9633fe487456e65c64c074eb2437f59434c0c73a",
    "fixed_bits": "0eeeae63b3c885fda9a6a5dbf08ea68deb18549221c01bcb00df6a93e6b27695",
    "shared_planes": "3962cf23c884cb5d370d7c64a77b9297ab56bd669ffef2ac4e3fd59b6a861d29",
    "tail_bound": "3ff410deddd4151becdcdb2a1785407264d0935a8bdafdc03b42e68ab8d7a9f9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_csv_digest(name):
    csv_text = run_experiment(GOLDEN_CONFIGS[name]).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == DIGESTS[name]


# a heatmap, and a line plot whose unclipped series are dashed lines across
# the bit depth axis
PLOT_CONFIGS = {
    "exp1": GOLDEN_CONFIGS["exp1"],
    "exp4": replace(default_config("exp4"), estimators=("qtscm",), trials=2),
}

PLOT_DIGESTS = {
    "exp1": "47c066cb5b97f39bfaeb9f765809afab84a2783e1a115eb028c4271b98960c11",
    "exp4": "1899740a348eb62e39cc7b345dda52f513b3dcd265d9f50bcb47f50ac18e8b9e",
}


@pytest.mark.parametrize("name", sorted(PLOT_CONFIGS))
def test_golden_svg_digest(name):
    cfg = PLOT_CONFIGS[name]
    svg = emit_plot(run_experiment(cfg), PRESETS[cfg.experiment][0])
    assert hashlib.sha256(svg.encode()).hexdigest() == PLOT_DIGESTS[name]
