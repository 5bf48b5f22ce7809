"""Fuzzed command lines: whatever the input, `qtcov experiment --config` and
`qtcov simulate` return 0 or 1 and never raise, and every nan row of a
written table names its error in the note.

A config that runs has passed `validate`, so no row may fail on a level, a
bit depth or a sample size: those are fixed before the first draw, and a
row's note names numerical trouble only.  `validate` builds the grid that
runs, so `--show-config` fails exactly where the run fails.

Sizes stay tiny (d <= 6, trials <= 2, n <= 50) so that each example runs in
milliseconds.  A config example is a sensible config with at most two keys
set to boundary, nan, +-inf, negative, huge, empty or malformed texts.  The
examples are derandomized so that the suite is repeatable; raise
max_examples and drop derandomize to search wider.
"""

import contextlib
import csv
import io
import math
import os
import tempfile

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qtcov import cli, load_batch
from qtcov.harness import CONFIG_FORMAT, CONFIG_KEYS

# odd texts tried for every key
BAD = ("", "nan", "inf", "-inf", "-1", "abc", "1e400")

# per config key, (sensible texts, odd texts besides BAD): boundary, negative,
# huge and malformed values
VALUES = {
    "d": (("2", "4", "6"), ("0", "1")),
    "d_values": (("", "4, 6", "2"), ("1", "0, 4", "6, -2")),
    "rulers": (("full", "alpha:0.5", "full, alpha:0.5"), ("alpha:0", "alpha:2", "alpha:nan", "A")),
    "deltas": (("0.5:0.5", "1", "0:0", "0.5, 2:1"),
               ("2.3e-308:1", "1e-310:1", "-1:1", "nan:1", "inf:inf", "1e300:1e300", "1:2:3",
                "1::2")),
    "bits": (("2", "1", "3, inf", "63"), ("64", "2000", "0")),
    "level_rule": (("fixed", "tail_bound"), ("datadriven", "bogus")),
    "n_values": (("2", "50", "10, 50"), ("1", "0", "-5")),
    "trials": (("1", "2"), ("0",)),
    "seed": (("0", "7"), ("18446744073709551616", "-18446744073709551617", "1e3")),
    "estimators": (("qtscm", "qscm", "qspa", "qtscm, qspa", "qscm, qspa"), ("magic",)),
    "music_grid": (("48", "64"), ("8", "47", "0", "100000")),
    "emit_trials": (("1", "0", "true", "No", "YES"), ("maybe",)),
    "profile": (("ci", "full"), ("bogus",)),
    "scene_freqs": (("0.1", "0.1, 0.4", "0.9, 0.1"), ("0", "0.99999", "2.3", "1.0", "0.1, 0.1")),
    "scene_powers": (("1", "1, 1", "2, 0.5"), ("0", "1e-300", "1e300")),
    "scene_noise_var": (("0.1", "1"), ("0", "1e-300", "1e300")),
}
# errors of a level, bit depth or sample size that `validate` rejects
REJECTED_NOTES = ("quantization level", "finite-bit quantization", "need n >= 1",
                  "batch has no samples")
# the sizes are always set, so that no example falls back to a preset's
SIZE_KEYS = ("d", "d_values", "trials", "n_values")
SCENE_KEYS = ("scene_freqs", "scene_powers", "scene_noise_var")
# outdir is left out: --outdir on the command line decides where tables go
OPTIONAL_KEYS = tuple(k for k in CONFIG_KEYS if k not in SIZE_KEYS + SCENE_KEYS + ("outdir",))
# presets of each plot kind whose other sizes are small; exp5 brings its d = 16 scene
EXPERIMENTS = (("custom", "exp1", "exp3a", "exp4b"), ("bogus", "", "exp0"))


def mostly(sensible, odd):
    """One of `sensible` four times in five, else one of `odd`."""
    return st.sampled_from((sensible,) * 4 + (odd,)).flatmap(st.sampled_from)


@st.composite
def config_texts(draw):
    """(experiment id, config text): sensible values, at most two of them odd."""
    keys = SIZE_KEYS + tuple(draw(st.lists(st.sampled_from(OPTIONAL_KEYS), max_size=4,
                                           unique=True)))
    if draw(st.booleans()):
        keys += SCENE_KEYS
    values = {key: draw(st.sampled_from(VALUES[key][0])) for key in keys}
    for key in draw(st.lists(st.sampled_from(tuple(VALUES)), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from(VALUES[key][1] + BAD))
    experiment = draw(mostly(*EXPERIMENTS))
    lines = [CONFIG_FORMAT, f"experiment = {experiment}"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    return experiment, "\n".join(lines) + "\n"


def test_values_cover_every_config_key():
    # a key missing here is never fuzzed, and a stale one only feeds
    # "unknown config key" examples
    assert set(VALUES) == set(CONFIG_KEYS) - {"outdir"}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1)
    event(f"rc {rc}: {err.getvalue()[:40]}")
    if rc == 1:
        assert err.getvalue().startswith("error: ")
    return rc


def custom_case(lines):
    """A custom config example of d = 4 and one trial, plus `lines`."""
    return "custom", f"{CONFIG_FORMAT}\nexperiment = custom\nd = 4\ntrials = 1\n{lines}\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config_texts())
@example(custom_case("n_values = 20, 0"))
@example(custom_case("n_values = 20\ndeltas = 0.5, -1:1"))
@example(custom_case("n_values = 20\nbits = 2\ndeltas = 0:0"))
@example(custom_case("n_values = 20\nscene_freqs = 0.1, 0.1\nscene_powers = 1, 1"))
@example(custom_case("n_values = 20\nscene_freqs = 0.1, 0.3\nscene_powers = 8e307, 8e307\n"
                     "level_rule = tail_bound\nbits = 2"))
def test_experiment_config_fails_cleanly_or_notes_every_nan(case):
    experiment, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["experiment", "--config", path, "--outdir", tmp]
        rc = run_main(argv)
        assert run_main(argv + ["--show-config"]) == rc  # no config error shows only in the run
        if rc == 0:
            with open(os.path.join(tmp, f"{experiment}.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert all(row["note"] for row in rows if math.isnan(float(row["value"])))
            assert not [row["note"] for row in rows
                        if any(word in row["note"] for word in REJECTED_NOTES)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=mostly((2, 4, 6), (-5, -1, 0, 1)), n=mostly((1, 2, 50), (-5, 0)),
       ruler=mostly(("full", "alpha:0.5"), ("1,2", "1,2,4", "A", "alpha:abc", "", "0,1")),
       delta=mostly(("1,1", "0.5", "0", "2,1"),
                    ("2.3e-308", "1e-310", "1e300", "-1", "nan", "inf", "1,2,3", "abc", "")),
       bits=mostly((None, 1, 2, 63), (64, 2000, 0, -1)),
       seed=mostly((0, 7), (-1, 2 ** 64)), cov_seed=mostly((1, 2, 3), (-1, 2 ** 64)))
def test_simulate_flags_fail_cleanly_or_write_a_loadable_batch(d, n, ruler, delta, bits, seed,
                                                               cov_seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "b.qtb")
        argv = ["simulate", f"--d={d}", f"--n={n}", f"--ruler={ruler}", f"--delta={delta}",
                f"--seed={seed}", f"--cov-seed={cov_seed}", "-o", path]
        if bits is not None:
            argv.append(f"--bits={bits}")
        if run_main(argv) == 0:
            batch = load_batch(path)
            assert batch.count == n and batch.spec.bits_k == bits
