"""The benchmark's workloads: the config each one hands to `qtcov experiment`.

A workload is a qtcov experiment config plus the layers a run of it must
reach.  The seed is the only input that varies between runs; it becomes the
config's `seed` key and so drives the ground-truth covariance and every trial
draw.  The program receives nothing but the config file.
"""

from dataclasses import dataclass

LEVELS = tuple(0.5 + i for i in range(8))          # exp1 level grid
SCENE_FREQS = (0.08, 0.21, 0.37, 0.68, 0.81)      # exp5 five-source scene


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: tuple      # (key, value) config lines, seed excluded
    warmup: tuple    # key overrides for the one-cell set-up experiment
    layers: tuple    # traced layers a run must reach

    def config_text(self, seed, warmup=False):
        keys = dict(self.keys)
        if warmup:
            keys.update(self.warmup)
        lines = ["qtcov-config 1"] + [f"{k} = {v}" for k, v in keys.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    def key(self, name):
        return dict(self.keys)[name]

    @property
    def csv_name(self):
        """The table `qtcov experiment` writes, named after the experiment."""
        return f"{self.key('experiment')}.csv"


_COMMON_LAYERS = ("rulers", "sampling", "quantizer", "estimators", "harness", "output")

WORKLOADS = {w.name: w for w in (
    Workload(
        "level_grid",
        "exp1 level grid, 64 cells x 10 trials of qtscm: sampling and "
        "quantization dominate and cells could share one draw per trial",
        (("experiment", "exp1"), ("d", 16), ("rulers", "full"),
         ("deltas", ", ".join(f"{a!r}:{b!r}" for a in LEVELS for b in LEVELS)),
         ("n_values", 500), ("trials", 10), ("estimators", "qtscm"),
         ("level_rule", "fixed"), ("profile", "ci")),
        (("deltas", "0.5:0.5"), ("trials", 1)),
        _COMMON_LAYERS),
    Workload(
        "qspa_fit",
        "exp3b-style sweep, qspa at d=16 and 32 on two rulers: the Newton "
        "barrier solve takes nearly all the time, sampling is negligible",
        (("experiment", "exp3b"), ("d", 16), ("d_values", "16, 32"),
         ("rulers", "full, alpha:0.5"), ("deltas", "5.0:5.0"),
         ("n_values", 500), ("trials", 1),
         ("estimators", "qtscm, qscm, qspa"), ("level_rule", "fixed"),
         ("profile", "ci")),
        (("d_values", 16), ("rulers", "full"), ("trials", 1)),
        _COMMON_LAYERS + ("qspa",)),
    Workload(
        "doa_scene",
        "exp5 five-source scene at n=1e3 and 1e4 with a clipping 2-bit "
        "quantizer: MUSIC shares the time with large draws, no qspa",
        (("experiment", "exp5"), ("d", 16), ("rulers", "full, alpha:0.5"),
         ("deltas", "2.0:2.0"), ("bits", 2), ("level_rule", "fixed"),
         ("n_values", "1000, 10000"), ("trials", 10),
         ("estimators", "qtscm, qscm"), ("music_grid", 4096),
         ("scene_freqs", ", ".join(repr(f) for f in SCENE_FREQS)),
         ("scene_powers", "1.0, 1.0, 1.0, 1.0, 1.0"),
         ("scene_noise_var", 0.1), ("profile", "ci")),
        (("rulers", "full"), ("n_values", 1000), ("trials", 1)),
        _COMMON_LAYERS + ("doa", "doa_scoring")),
)}
