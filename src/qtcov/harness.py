"""Monte Carlo experiment runner: configs, trials, CSV tables, SVG plots.

Protocol shared by all experiments: one ground-truth covariance is drawn from
the config seed per dimension (or taken from the DOA scene), and `trials`
independent trials are run with trial t seeded as seed XOR t.  Trials are the
outer loop: for each (d, n, trial) the full-dimension raw sample block is
drawn once, and every (ruler, bits, level) grid cell of that (d, n) works from
its ruler columns, so grid cells are compared under common random numbers
while trials stay independent.  The dither is drawn once per (trial, ruler)
as a level-free unit pair and shared by every level of that ruler; each
quantization spec is applied once and its batch and Gram matrix shared by the
estimators of that cell.  Each quantized real plane, keyed by (part, level,
bit depth), is formed once per (trial, ruler) and shared by every spec that
needs it, then dropped after its last use: the 8 x 8 level grid of exp1 forms
16 planes per trial, not 128, and holds at most one real and eight imaginary
planes at a time.  One runner serves both metrics; only the truth and
the scoring function (relative spectral error, or MUSIC frequency MSE) differ.
The estimates of one (d, n, trial), from all its rulers and cells, are scored
together once the trial's estimators have run: one stacked SVD call gives
their spectral errors, while MUSIC runs on each estimate alone.  Only the
estimates wait for scoring, never their batches or Gram matrices.
Every trial of a (d, n) group writes into the same memory: one slab per
dimension, allocated for its largest n, whose views (`_group_views`) hold
the sample block, the normals and then each quantized batch, the unit pair,
and one float buffer for the dither draw, the quantizer's scratch and the
conjugated batch of each Gram matrix.  A sparse ruler's columns are gathered
from the block one real part at a time.  So a trial allocates no array of n
rows, and the slab is no larger than the four arrays of n x d values that a
trial held at once before.
Each grid cell is one `_Cell` record, which gathers its trial values, its
degraded-trial counts and its first error, and writes its own rows.  `_grid`
alone makes the cells, and `validate` builds the run's grid, so a config that
validates is a grid that runs.  A cell whose qspa solves stop unconverged or
whose MUSIC spectra are unresolved keeps its value and says so in its note.
Runs are sequential and deterministic: re-running a config byte-reproduces
its CSV.
"""

import contextlib
import csv
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import groupby, product
from typing import Optional

import numpy as np

from . import rng
from .doa import DoaScene, estimate_frequencies, frequency_mse
from .errors import EmptyTable, QtcovError
from .estimators import qscm, qtscm, quantized_sample_covariance, spectral_norm
from .quantizer import (QuantizationSpec, _check_depth, quantize_batch, select_level_tail_bound,
                        unit_dither)
from .qspa import qspa_solve
from .rulers import full_ruler, resolve_ruler
from .sampling import random_toeplitz_covariance, sample_complex_gaussian
from .svgplot import emit_plot
from .toeplitz import as_dense_stack

CONFIG_FORMAT = "qtcov-config 1"

FIVE_SOURCE_SCENE = DoaScene(16, (0.08, 0.21, 0.37, 0.68, 0.81), (1.0,) * 5, 0.1)


def _qspa(batch, gram):
    sol = qspa_solve(gram, batch.ruler, batch.spec, n=batch.count)
    return sol.T_breve, sol


# name -> fn(quantized batch, its quantized_sample_covariance) -> (covariance
# estimate, solver record): the QspaSolution for qspa, None for the closed
# forms.  The Gram matrix is computed once per batch and shared by its
# estimators
ESTIMATORS = {
    "qtscm": lambda batch, gram: (qtscm(batch, gram=gram), None),
    "qscm": lambda batch, gram: (qscm(batch, gram=gram), None),
    "qspa": _qspa,
}

# profile -> the largest sample size its configs may run
PROFILE_CAPS = {"ci": 10_000, "full": 1_000_000}

# a preset's n_values are cut at its profile's cap, so this is each profile's n sweep
_N_SWEEP = (100, 316, 1000, 3162, 10_000, 100_000, 1_000_000)

_LEVELS = tuple(0.5 + i for i in range(8))
_TWO_RULERS = ("full", "alpha:0.5")

# experiment id -> (plot kind, the ExperimentConfig fields its preset sets)
PRESETS = {
    "exp1": ("heatmap", dict(deltas=tuple((a, b) for a in _LEVELS for b in _LEVELS))),
    "exp2": ("line-loglog", dict(rulers=("A", "B", "alpha:0.5"), n_values=_N_SWEEP)),
    "exp3a": ("line-loglog", dict(rulers=_TWO_RULERS, deltas=((5.0, 5.0),), n_values=_N_SWEEP,
                                  estimators=tuple(ESTIMATORS))),
    "exp3b": ("line-linear", dict(d_values=(4, 8, 12, 16, 24, 32), rulers=_TWO_RULERS,
                                  deltas=((5.0, 5.0),), estimators=tuple(ESTIMATORS))),
    "exp4": ("line-linear", dict(rulers=_TWO_RULERS, bits=(2, 3, 4, 5, 6, None),
                                 level_rule="tail_bound", estimators=("qtscm", "qspa"))),
    "exp4b": ("line-loglog", dict(rulers=_TWO_RULERS, bits=(2,), level_rule="tail_bound",
                                  n_values=_N_SWEEP, estimators=tuple(ESTIMATORS))),
    "exp5": ("line-loglog", dict(rulers=_TWO_RULERS, deltas=((2.0, 2.0),), bits=(2,),
                                 n_values=(1000, 10000), trials=50,
                                 estimators=tuple(ESTIMATORS), scene=FIVE_SOURCE_SCENE)),
    "custom": ("line-linear", {}),
}


@dataclass
class ExperimentConfig:
    experiment: str
    d: int = 16
    d_values: tuple = ()              # dimension sweep (overrides d per point)
    rulers: tuple = ("full",)
    deltas: tuple = ((1.0, 1.0),)     # (delta_r, delta_i) pairs
    bits: tuple = ()                  # finite bit depths; None entry = unclipped reference
    level_rule: str = "fixed"         # fixed | tail_bound
    n_values: tuple = (500,)
    trials: int = 100
    seed: int = 1234
    estimators: tuple = ("qtscm",)
    scene: Optional[DoaScene] = None
    music_grid: int = 4096
    emit_trials: bool = False
    outdir: str = "results"
    profile: str = "ci"

    def validate(self):
        self._grids()
        return self

    def _grids(self):
        """(d, truth, {rspec: ruler}, cells) per dimension the run covers, once
        the config passes its checks: a config that validates is a grid that
        runs, built before the first draw."""
        if self.experiment not in PRESETS:
            raise QtcovError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise QtcovError("trials must be >= 1")
        for name in ("rulers", "deltas", "n_values", "estimators"):
            if not getattr(self, name):
                raise QtcovError(f"{name} must list at least one entry")
        for name in ("d_values", "rulers", "deltas", "bits", "n_values", "estimators"):
            values = list(getattr(self, name))
            for i, value in enumerate(values):
                if value in values[:i]:  # a repeated entry would run its cells twice
                    raise QtcovError(f"{name} lists {_entry(name, value)} twice")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise QtcovError(f"unknown estimator {est!r}")
        if self.level_rule not in ("fixed", "tail_bound"):
            raise QtcovError(f"unknown level rule {self.level_rule!r}")
        for k in self.bits:
            if k is not None:
                _check_depth(k)
        if self.scene is not None and self.d_values:
            raise QtcovError(f"d_values cannot sweep a scene config; "
                             f"the scene fixes d = {self.scene.d}")
        if self.scene is not None and self.music_grid < 8 * self.scene.d:
            raise QtcovError(f"music_grid {self.music_grid} < 8d = {8 * self.scene.d}")
        if self.profile not in PROFILE_CAPS:
            raise QtcovError(f"unknown profile {self.profile!r}")
        if min(self.n_values) < 1:
            raise QtcovError(f"n_values lists {min(self.n_values)}; a cell needs n >= 1 samples")
        if max(self.n_values) > PROFILE_CAPS[self.profile]:
            raise QtcovError(f"n up to {max(self.n_values)} exceeds the {self.profile} "
                             f"profile cap of {PROFILE_CAPS[self.profile]}")
        truths = {d: _truth(self, d) for d in self.dims()}
        return [(d, T, *_grid(self, d, T.generators[0].real)) for d, T in truths.items()]

    def dims(self):
        """The dimensions a run covers: the scene's, or the d sweep."""
        return (self.scene.d,) if self.scene is not None else self.d_values or (self.d,)


@dataclass
class Row:
    experiment: str
    estimator: str
    d: int
    n: int
    delta_r: float
    delta_i: float
    k: Optional[int]
    ruler: str
    stat: str       # "mean" | "stderr" | "trial:<t>"
    metric: str
    value: float
    note: str = ""


class ResultTable:
    """Result rows with a deterministic CSV form."""

    HEADER = ("experiment", "estimator", "d", "n", "delta_r", "delta_i",
              "k", "ruler", "stat", "metric", "value", "note")

    def __init__(self, rows=None):
        self.rows = list(rows or [])

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.HEADER)
        for r in self.rows:
            w.writerow([r.experiment, r.estimator, r.d, r.n, repr(r.delta_r),
                        repr(r.delta_i), "" if r.k is None else r.k, r.ruler,
                        r.stat, r.metric, repr(r.value), r.note])
        return buf.getvalue()


# --- config file format -------------------------------------------------------
#
# Each key maps to (parse text, format value), in print order.  A scene_<field>
# key sets that DoaScene field (printed only for a config with a scene), any
# other key the ExperimentConfig field of its name.

def _list_of(codec):
    parse, fmt = codec
    return (lambda text: tuple(parse(s.strip()) for s in text.split(",") if s.strip()),
            lambda values: ", ".join(map(fmt, values)))


def _or_none(codec, word):
    """The codec with `word` standing for None."""
    parse, fmt = codec
    return (lambda text: None if text.lower() == word else parse(text),
            lambda value: word if value is None else fmt(value))


def _parse_bool(text):
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    if text.lower() not in words:
        raise ValueError("expected one of " + "/".join(words))
    return words[text.lower()]


def parse_level_pair(text):
    """(delta_r, delta_i) from "r:i", or from one level that serves both parts."""
    levels = [float(s) for s in text.split(":")]
    if len(levels) > 2:
        raise ValueError(f"{text!r} is not an r:i pair")
    return levels[0], levels[-1]


_INT, _FLOAT, _TEXT = (int, str), (float, str), (str, str)
# an index-list ruler is written "1 2 4" in a list and kept as the spec "1,2,4"
_RULER = (lambda text: ",".join(text.split()), lambda spec: " ".join(spec.split(",")))

CONFIG_KEYS = {
    "d": _INT, "d_values": _list_of(_INT), "rulers": _list_of(_RULER),
    "deltas": _list_of((parse_level_pair, "{0[0]}:{0[1]}".format)),
    "bits": _list_of(_or_none(_INT, "inf")), "level_rule": _TEXT, "n_values": _list_of(_INT),
    "trials": _INT, "seed": _INT, "estimators": _list_of(_TEXT), "music_grid": _INT,
    "emit_trials": (_parse_bool, str), "outdir": _TEXT, "profile": _TEXT,
    "scene_freqs": _list_of(_FLOAT), "scene_powers": _list_of(_FLOAT),
    "scene_noise_var": _FLOAT,
}


def _entry(key, value):
    """One entry of a list-valued config key, written in config syntax."""
    return CONFIG_KEYS[key][1]((value,))


def _target(key):
    """(owner, field) a config key sets; owner "scene" or "" for the config."""
    owner, _, name = key.partition("_")
    return (owner, name) if owner == "scene" else ("", key)


def parse_config(text):
    """Parse the flat key=value experiment config format."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != CONFIG_FORMAT:
        raise QtcovError(f"config must start with the schema line {CONFIG_FORMAT!r}")
    kv = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise QtcovError(f"expected key = value, got {ln!r}")
        key, val = (s.strip() for s in ln.split("=", 1))
        if key in kv:
            raise QtcovError(f"config key {key!r} is set twice")
        kv[key] = val

    if "experiment" not in kv:
        raise QtcovError("config needs an experiment id")
    cfg = default_config(kv.pop("experiment"))
    values = {"": {}, "scene": {}}
    for key, val in kv.items():
        if key not in CONFIG_KEYS:
            raise QtcovError(f"unknown config key {key!r}")
        try:
            value = CONFIG_KEYS[key][0](val)
        except ValueError as err:
            raise QtcovError(f"config key {key!r}: cannot parse {val!r} ({err})") from None
        owner, name = _target(key)
        values[owner][name] = value
    cfg = replace(cfg, **values[""])
    if values["scene"]:
        for name in ("freqs", "powers"):
            if name not in values["scene"]:
                raise QtcovError(f"scene config needs scene_{name}")
        cfg = replace(cfg, scene=DoaScene(cfg.d, **{"noise_var": 0.1, **values["scene"]}))
    return cfg.validate()


def config_to_text(cfg):
    """The config in the format parse_config reads."""
    out = [CONFIG_FORMAT, f"experiment = {cfg.experiment}"]
    for key, (_, fmt) in CONFIG_KEYS.items():
        owner, name = _target(key)
        obj = getattr(cfg, owner) if owner else cfg
        if obj is not None:
            out.append(f"{key} = {fmt(getattr(obj, name))}")
    return "\n".join(out) + "\n"


def default_config(experiment, profile="ci"):
    """Preset config of a built-in experiment (desk scale), its n_values cut at
    the profile's cap."""
    if experiment not in PRESETS:
        raise QtcovError(f"unknown experiment {experiment!r}")
    cfg = ExperimentConfig(experiment, profile=profile, **PRESETS[experiment][1])
    cap = PROFILE_CAPS.get(profile, math.inf)  # validate names an unknown profile
    return replace(cfg, n_values=tuple(n for n in cfg.n_values if n <= cap)).validate()


# --- runners -------------------------------------------------------------------

def _cell_spec(cfg, k, pair, n, ruler, gamma0):
    """QuantizationSpec of the cells of bit depth k (None: unclipped), level
    pair `pair` and size n on `ruler` under the configured level rule: a
    k-bit cell uses delta_r for both parts, and tail_bound sets the level from
    gamma_0, n and |ruler| at every depth once any depth is finite (a None
    depth takes the largest depth's level, and only an overflow raises)."""
    if cfg.level_rule == "tail_bound" and any(b is not None for b in (k, *cfg.bits)):
        ref_k = k if k is not None else max(b for b in cfg.bits if b is not None)
        return QuantizationSpec(*(select_level_tail_bound(gamma0, n, ruler.size, ref_k),) * 2, k)
    try:
        return QuantizationSpec(*(pair if k is None else (pair[0], pair[0])), k)
    except QtcovError as err:
        raise QtcovError(f"deltas {_entry('deltas', pair)} at bits = {_entry('bits', k)}: "
                         f"{err}") from None


def _truth(cfg, d):
    """The truth of dimension d: the scene's, or one drawn from the config seed."""
    return random_toeplitz_covariance(d, cfg.seed) if cfg.scene is None else cfg.scene.covariance()


def _scorer(cfg, truth):
    """score(estimates) -> one (value, resolved) per estimate: the MUSIC
    frequency MSE of the DOA scene, which runs on each estimate alone, or the
    relative spectral error, where the errors of all the estimates come from
    one SVD call on their stacked dense differences from the truth, whose
    norm is computed once."""
    if cfg.scene is not None:
        scene = cfg.scene

        def freq_mse(ests):
            scored = []
            for est in ests:
                resolved, freqs = estimate_frequencies(est, scene.k_sources, cfg.music_grid)
                scored.append((frequency_mse(freqs, scene.freqs), resolved))
            return scored
        return freq_mse
    dense = truth.dense
    norm = spectral_norm(dense)

    def rel_errors(ests):
        errors = spectral_norm(as_dense_stack(ests) - dense) / norm
        return [(float(e), True) for e in errors]
    return rel_errors


@dataclass
class _Cell:
    """One grid cell of a run: its prototype row and spec (built with the grid,
    before its first draw), one value per trial, the counts of trials whose
    qspa solve stopped unconverged or whose MUSIC spectrum was unresolved,
    and its first error's note, after which it runs no more trials."""
    row: Row
    spec: QuantizationSpec
    values: list = field(default_factory=list)
    nonconverged: int = 0
    unresolved: int = 0
    error: Optional[str] = None

    def fail(self, err):
        self.error = f"{type(err).__name__}: {err}"

    @np.errstate(over="ignore")  # values near the float limit get an inf stderr
    def rows(self, emit_trials):
        """Its mean and stderr rows, then one row per trial if asked; a cell
        that failed is one nan row carrying its error's note."""
        if self.error is not None:
            return [replace(self.row, value=math.nan, note=self.error)]
        vals = np.asarray(self.values, dtype=float)
        note = "; ".join(f"{kind} {count}/{len(vals)}" for kind, count in
                         (("nonconverged", self.nonconverged), ("unresolved", self.unresolved))
                         if count)
        proto = replace(self.row, note=note)
        stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        stats = [("mean", float(np.mean(vals))), ("stderr", stderr)]
        if emit_trials:
            stats += [(f"trial:{t}", float(v)) for t, v in enumerate(vals)]
        return [replace(proto, stat=stat, value=value) for stat, value in stats]


def _grid(cfg, d, gamma0):
    """({rspec: ruler}, cells) of dimension d, whose truth has lag-0 generator
    gamma0: one `_Cell` per (ruler, bit depth, level pair, n) and estimator,
    with qscm on a full ruler only.  Entries that give one cell twice, levels
    a spec cannot use and a dimension with no cell raise QtcovError."""
    rulers = {rspec: resolve_ruler(rspec, d) for rspec in cfg.rulers}
    metric = "rel_error_spectral" if cfg.scene is None else "freq_mse"
    cells, made = [], {}
    for (rspec, ruler), k, pair, n in product(rulers.items(), cfg.bits or (None,),
                                              cfg.deltas, cfg.n_values):
        spec = _cell_spec(cfg, k, pair, n, ruler, gamma0)  # shared by its estimators
        key = (ruler, spec.delta_r, spec.delta_i, spec.bits_k, n)
        if key in made:
            first, first_pair = made[key]
            if first != rspec:
                raise QtcovError(f"rulers {_entry('rulers', first)} and "
                                 f"{_entry('rulers', rspec)} are the same ruler at d = {d}")
            raise QtcovError(f"deltas {_entry('deltas', first_pair)} and "
                             f"{_entry('deltas', pair)} give the same cells under level_rule = "
                             f"{cfg.level_rule} at bits = {_entry('bits', k)}")
        made[key] = rspec, pair
        cells += (_Cell(Row(cfg.experiment, est, d, n, spec.delta_r, spec.delta_i, k, rspec,
                            "mean", metric, 0.0), spec)
                  for est in cfg.estimators if est != "qscm" or ruler.is_full())
    if not cells:
        raise QtcovError(f"no grid cell at d = {d}: qscm needs a full ruler")
    return rulers, cells


_CELL_ERRORS = (QtcovError, np.linalg.LinAlgError, FloatingPointError)


def _group_views(slab, n, d, rulers):
    """(block, w, {rspec: (unit pair, float buffer, quantized batch,
    conjugated batch)}): the views of `slab` that every trial of a (d, n)
    group writes.

    The slab holds, in turn, the block that receives each trial's
    full-dimension draw and w for its standard normals, then each quantized
    batch (n x d complex values each), and the ruler's float buffer and unit
    pair (n x |ruler| complex values each).  The float buffer holds the
    ruler's dither draw, then the quantizer's scratch planes, then the
    conjugated batch of each Gram matrix.
    """
    nd = n * d
    block, w = slab[:nd].reshape(n, d), slab[nd:2 * nd]
    views = {}
    for rspec, ruler in rulers.items():
        shape, size = (n, ruler.size), n * ruler.size
        conj, pair = (slab[2 * nd + i * size:2 * nd + (i + 1) * size] for i in (0, 1))
        views[rspec] = (pair.view(np.float64).reshape((2,) + shape),
                        conj.view(np.float64).reshape((2,) + shape), w[:size].reshape(shape),
                        conj.reshape(shape))
    return block, w.reshape(n, d), views


def _run_ruler(ruler, raw, group, pending, views):
    """One trial of the live cells `group` of one ruler, drawn from the
    full-ruler raw batch `raw`; appends (cell, estimate, converged) to
    `pending` for each estimate made.  `views` are the ruler's views of the
    run's buffers (see _group_views).

    The unit dither pair is drawn once (n >= 1 is validated).  Cells with
    equal specs are adjacent (they differ only in the estimator), and each
    run of them shares one quantized batch and Gram matrix.  A quantized
    real plane that several runs need is formed once and kept until its
    last run.
    """
    pair, floats, quantized, conj = views
    unit = unit_dither(pair.shape[1:], raw.seed, out=pair, scratch=floats)
    # (spec, its cells), in cell order
    runs = [(spec, list(run)) for spec, run in groupby(group, key=lambda cell: cell.spec)]
    uses = Counter(key for spec, _ in runs for key in spec.plane_keys)
    planes = {key: None for key, count in uses.items() if count > 1}
    for spec, run in runs:
        batch = gram = None  # the last run's, released before this one's is built
        try:
            batch = quantize_batch(raw, spec, unit=unit, planes=planes, ruler=ruler,
                                   out=quantized, scratch=floats)
            gram = quantized_sample_covariance(batch, scratch=conj)
        except _CELL_ERRORS as err:
            for cell in run:
                cell.fail(err)
            continue
        finally:
            for key in spec.plane_keys:
                uses[key] -= 1
                if not uses[key]:
                    planes.pop(key, None)
        for cell in run:
            try:
                est, record = ESTIMATORS[cell.row.estimator](batch, gram)
            except _CELL_ERRORS as err:
                cell.fail(err)
                continue
            pending.append((cell, est, record is None or record.converged))


def _score(pending, score):
    """Score the (cell, estimate, converged) triples of one (d, n, trial) in
    one call.  Where that call raises, each estimate is scored alone, so an
    error fails only the cell whose estimate caused it (MUSIC then runs again
    on the estimates before that one)."""
    try:
        scored = score([est for _, est, _ in pending])
    except _CELL_ERRORS:
        scored = None
    for i, (cell, est, converged) in enumerate(pending):
        try:
            value, resolved = scored[i] if scored is not None else score([est])[0]
        except _CELL_ERRORS as err:
            cell.fail(err)
            continue
        cell.values.append(value)
        if not converged:
            cell.nonconverged += 1
        if not resolved:
            cell.unresolved += 1


@np.errstate(over="raise", divide="raise", invalid="raise")
def run_experiment(cfg):
    """Run a config; returns the ResultTable (deterministic in the config).

    A cell's first QtcovError, numpy LinAlgError or floating-point overflow,
    division by zero or invalid operation makes it one nan row carrying that
    error's note; an error in the shared (d, n, trial) draw does so for
    every cell of that (d, n).  A cell with unconverged qspa solves or
    unresolved MUSIC spectra keeps its value, and its note counts them, e.g.
    "nonconverged 3/100".
    """
    rows = []
    for d, truth, rulers, cells in cfg._grids():
        score = _scorer(cfg, truth)
        full = full_ruler(d)
        # the four arrays of n x d values that a trial holds at once, at the
        # largest n: one allocation, so that it is made and freed in one piece
        slab = np.empty(max(cfg.n_values) * 2 * (d + max(r.size for r in rulers.values())),
                        np.complex128)
        for n in cfg.n_values:
            block, w, views = _group_views(slab, n, d, rulers)  # every trial of n writes these
            cells_of_n = [cell for cell in cells if cell.row.n == n]
            for t in range(cfg.trials):
                ts = rng.trial_seed(cfg.seed, t)
                live = [cell for cell in cells_of_n if cell.error is None]
                try:
                    raw = sample_complex_gaussian(truth, full, n, ts, out=block, scratch=w)
                except _CELL_ERRORS as err:
                    for cell in live:
                        cell.fail(err)
                    continue
                pending = []
                # cells of one ruler are adjacent in `cells`
                for rspec, group in groupby(live, key=lambda cell: cell.row.ruler):
                    _run_ruler(rulers[rspec], raw, list(group), pending, views[rspec])
                if pending:
                    _score(pending, score)
        del slab  # released before the next dimension's is made
        rows += (row for cell in cells for row in cell.rows(cfg.emit_trials))
    return ResultTable(rows)


def write_outputs(cfg, table):
    """Write <experiment>.csv and <experiment>.svg to cfg.outdir; returns the paths.

    A table with nothing to plot writes no SVG, removes any earlier one, and
    returns None as its path.
    """
    os.makedirs(cfg.outdir, exist_ok=True)
    csv_path = os.path.join(cfg.outdir, f"{cfg.experiment}.csv")
    with open(csv_path, "w") as fh:
        fh.write(table.to_csv())
    svg_path = os.path.join(cfg.outdir, f"{cfg.experiment}.svg")
    try:
        svg = emit_plot(table, PRESETS[cfg.experiment][0])
    except EmptyTable:
        # a stale plot would not belong to the CSV just written
        with contextlib.suppress(FileNotFoundError):
            os.remove(svg_path)
        return csv_path, None
    with open(svg_path, "w") as fh:
        fh.write(svg)
    return csv_path, svg_path
