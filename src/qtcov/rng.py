"""Deterministic random-stream derivation.

All randomness in qtcov flows through counter-based Philox generators keyed
by a 64-bit seed plus a small integer path:

    stream(seed, purpose)            e.g. stream(42, GAUSS)
    stream(seed, purpose, index)     e.g. per-trial or per-coordinate streams

Distinct paths give statistically independent streams for the same seed, so
Monte Carlo trials can be generated in any order (or concurrently) without
changing the values drawn.  The Monte Carlo harness derives the seed of trial
t as ``seed ^ t`` and then uses purpose-separated streams inside the trial.
"""

import numpy as np

# Purpose tags; values are arbitrary but frozen for reproducibility.
GAUSS = 1        # complex Gaussian sample draws
DITHER = 2       # quantization dither draws
COVARIANCE = 3   # random covariance synthesis

_MASK64 = (1 << 64) - 1


def trial_seed(seed, trial):
    """Seed of Monte Carlo trial `trial` derived from the base seed by XOR."""
    return (int(seed) ^ int(trial)) & _MASK64


def stream(seed, *path):
    """A Philox generator for (seed, path), independent across distinct paths."""
    key = np.random.SeedSequence(int(seed) & _MASK64,
                                 spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(key))
