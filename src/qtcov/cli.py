"""Command-line interface: simulate, estimate, experiment, doa, ruler."""

import argparse
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .doa import estimate_frequencies, frequency_mse
from .errors import QtcovError
from .estimators import quantized_sample_covariance, relative_spectral_error
from .harness import (ESTIMATORS, FIVE_SOURCE_SCENE, PRESETS, PROFILE_CAPS, config_to_text,
                      default_config, parse_config, parse_level_pair, run_experiment,
                      write_outputs)
from .quantizer import QuantizationSpec, quantize_batch
from .rulers import coverage_coefficient, resolve_ruler
from .sampling import (load_batch, random_toeplitz_covariance,
                       sample_complex_gaussian, save_batch)
from .toeplitz import HermitianToeplitz


def _parse_delta(text):
    try:
        return parse_level_pair(text.replace(",", ":"))
    except ValueError:
        raise QtcovError(f"--delta expects delta_r,delta_i or one value, got {text!r}") from None


def _load_truth(path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is named below
            gens = np.loadtxt(path, dtype=complex, ndmin=1)
    except ValueError as err:
        raise QtcovError(f"truth file {path} is not a list of complex generators: {err}") from None
    if gens.size == 0:
        raise QtcovError(f"truth file {path} holds no generators")
    if not np.isfinite(gens).all():
        raise QtcovError(f"truth file {path} holds a non-finite generator")
    return HermitianToeplitz(gens)


def _estimate(name, batch, gram):
    """ESTIMATORS[name]'s (estimate, record), warning on stderr if it did not converge."""
    est, record = ESTIMATORS[name](batch, gram)
    if record is not None and not record.converged:
        print(f"warning: {name} did not converge", file=sys.stderr)
    return est, record


def cmd_ruler(args):
    ruler = resolve_ruler(args.ruler, args.d)
    print(f"ruler {ruler.to_string()} (d={ruler.dim}, |ruler|={ruler.size})")
    print(f"coverage coefficient phi = {coverage_coefficient(ruler):.6f}")
    for s in range(ruler.dim):  # phi sums 1 / count over the lags
        print(f"  lag {s:3d}: {ruler.lag_sizes[s]} pairs")
    return 0


def _simulate(T, args):
    """Quantized batch of args.n draws from CN(0, T) on args.ruler."""
    raw = sample_complex_gaussian(T, resolve_ruler(args.ruler, T.dim), args.n, args.seed)
    return quantize_batch(raw, QuantizationSpec(*_parse_delta(args.delta), args.bits))


def cmd_simulate(args):
    T = random_toeplitz_covariance(args.d, args.cov_seed)
    batch = _simulate(T, args)
    save_batch(batch, args.out)
    print(f"wrote {args.out}: n={args.n}, ruler={batch.ruler.to_string()}, {batch.spec}")
    if args.truth_out:
        np.savetxt(args.truth_out, T.generators)
        print(f"wrote ground-truth generators to {args.truth_out}")
    return 0


def cmd_estimate(args):
    if args.qspa_trace and "qspa" not in args.estimator:
        raise QtcovError("--qspa-trace writes the qspa solver's trace; add qspa to --estimator")
    batch = load_batch(args.batch)
    truth = _load_truth(args.truth) if args.truth else None
    rows = ["estimator,d,n,ruler,delta_r,delta_i,k,seed,rel_error_spectral"]
    gram = quantized_sample_covariance(batch)
    for name in args.estimator:
        # the estimator runs first: it rejects a raw batch, which has no spec
        est, record = _estimate(name, batch, gram)
        if name == "qspa" and args.qspa_trace:
            with open(args.qspa_trace, "w") as fh:
                fh.write(record.trace_csv())
        err = "" if truth is None else repr(relative_spectral_error(est, truth))
        spec = batch.spec
        k = "" if spec.bits_k is None else spec.bits_k
        rows.append(f"{name},{batch.dim},{batch.count},\"{batch.ruler.to_string()}\","
                    f"{spec.delta_r!r},{spec.delta_i!r},{k},{batch.seed},{err}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_config(path):
    """The config in the UTF-8 text file `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as err:
        raise QtcovError(f"config file {path} is not UTF-8 text: {err}") from None


def cmd_experiment(args):
    if args.config:
        cfg = _read_config(args.config)
    else:
        cfg = default_config(args.preset, profile=args.profile or "ci")
    # the flags override the config's keys, and the result is what prints and runs
    overrides = {"profile": args.profile, "seed": args.seed, "outdir": args.outdir}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None}).validate()
    if args.show_config:
        sys.stdout.write(config_to_text(cfg))
        return 0
    table = run_experiment(cfg)
    csv_path, svg_path = write_outputs(cfg, table)
    print(f"wrote {csv_path}" + (f" and {svg_path}" if svg_path else ""))
    return 0


def cmd_doa(args):
    if args.scene:
        scene = _read_config(args.scene).scene
        if scene is None:
            raise QtcovError("scene config lacks scene_* keys")
    else:
        scene = FIVE_SOURCE_SCENE
    batch = _simulate(scene.covariance(), args)
    est, _ = _estimate(args.estimator, batch, quantized_sample_covariance(batch))
    resolved, freqs = estimate_frequencies(est, scene.k_sources, args.grid)
    print("estimated frequencies:", " ".join(f"{f:.6f}" for f in freqs))
    if not resolved:
        print("warning: degenerate spectrum, output padded with largest grid points",
              file=sys.stderr)
    print("true frequencies:     ", " ".join(f"{f:.6f}" for f in scene.freqs))
    print(f"frequency mse: {frequency_mse(freqs, scene.freqs):.6e}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="qtcov",
                                description="Toeplitz covariance estimation from "
                                            "quantized sparse observations")
    p.add_argument("--version", action="version", version=f"qtcov {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("ruler", help="inspect or validate a ruler")
    pr.add_argument("--d", type=int, required=True)
    pr.add_argument("--ruler", required=True,
                    help='"full", "alpha:X", "A", "B", or a comma list of indices')
    pr.set_defaults(func=cmd_ruler)

    ps = sub.add_parser("simulate", help="generate and quantize a sample batch")
    ps.add_argument("--d", type=int, default=16)
    ps.add_argument("--ruler", default="full")
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--cov-seed", type=int, default=0,
                    help="seed of the random ground-truth covariance")
    ps.add_argument("--delta", default="1,1", help="delta_r,delta_i (or one value)")
    ps.add_argument("--bits", type=int, default=None)
    ps.add_argument("--out", "-o", required=True)
    ps.add_argument("--truth-out", default=None,
                    help="also write the true generators to this file")
    ps.add_argument("--seed", type=int, default=1234)
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("estimate", help="estimate a covariance from a batch file")
    pe.add_argument("--batch", required=True)
    pe.add_argument("--estimator", nargs="+", default=["qtscm"],
                    choices=list(ESTIMATORS))
    pe.add_argument("--truth", default=None, help="file of true generators")
    pe.add_argument("--out", "-o", default=None)
    pe.add_argument("--qspa-trace", default=None,
                    help="write the fitting solver's per-iteration trace CSV here")
    pe.set_defaults(func=cmd_estimate)

    px = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    group = px.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=[e for e in PRESETS if e != "custom"])
    group.add_argument("--config", help="config file path")
    px.add_argument("--profile", choices=list(PROFILE_CAPS), default=None)
    px.add_argument("--show-config", action="store_true",
                    help="print the resolved config and exit")
    px.add_argument("--seed", type=int, default=None)
    px.add_argument("--outdir", default=None)
    px.set_defaults(func=cmd_experiment)

    pd = sub.add_parser("doa", help="estimate source frequencies from one batch")
    pd.add_argument("--scene", default=None,
                    help="experiment config file whose scene_* keys set the scene")
    pd.add_argument("--ruler", default="alpha:0.5")
    pd.add_argument("--n", type=int, default=1000)
    pd.add_argument("--delta", default="2,2")
    pd.add_argument("--bits", type=int, default=2)
    pd.add_argument("--estimator", default="qspa", choices=list(ESTIMATORS))
    pd.add_argument("--grid", type=int, default=4096)
    pd.add_argument("--seed", type=int, default=1234)
    pd.set_defaults(func=cmd_doa)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (QtcovError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
