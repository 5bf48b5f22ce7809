"""Benchmark of qtcov: one workload, run in-process through `qtcov experiment`.

    python3 bench/run.py --workload level_grid --seed 1 --seconds 40 --trace 0

Run from the root of a qtcov checkout; qtcov is imported from its `src`.
The seed goes into the workload's config file, which `qtcov.cli.main` then
runs in whole rounds until --seconds are (as nearly as whole rounds allow)
used up.  Every round must write the same CSV.  The run then checks the
outputs (bench/checks.py) outside the timed region and prints, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: `setup_s` (median of several
fresh-process set-ups), `run_s` (median round) and `peak_rss_mb`.  --trace 1
first runs one untraced round, then traced rounds, and reports the per-layer
metrics (bench/tracer.py) as medians over the traced rounds.  BLAS and OpenMP thread
variables are recorded, never set.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_SAMPLES = 3          # this process plus two fresh ones
PROBE_TIMEOUT_S = 120
RECOMPUTED_CELLS = 3       # level_grid cells recomputed by the checks
MSE_SAMPLES = 20           # doa_scene frequency_mse calls matched by brute force
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS", "OMP_DYNAMIC", "OMP_PROC_BIND", "OMP_PLACES",
               "OMP_WAIT_POLICY", "OPENBLAS_CORETYPE")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def experiment(cli, cfg_path, outdir):
    """One `qtcov experiment --config` call, its own stdout swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["experiment", "--config", cfg_path, "--outdir", outdir])
    if rc != 0:
        raise BenchError(f"qtcov experiment exited with {rc} on {cfg_path}")


def timed_setup(workload, seed, workdir):
    """Seconds to import qtcov, parse the config and run the one-cell warm-up
    experiment, which calls once into every layer the workload uses."""
    os.makedirs(workdir, exist_ok=True)
    text = workload.config_text(seed)
    warm_path = write(os.path.join(workdir, "warmup.cfg"), workload.config_text(seed, warmup=True))
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import qtcov
    from qtcov import cli, harness
    harness.parse_config(text)
    experiment(cli, warm_path, workdir)
    seconds = perf_counter() - t0
    if os.path.dirname(os.path.abspath(qtcov.__file__)) != os.path.join(SRC, "qtcov"):
        raise BenchError(f"qtcov imported from {qtcov.__file__}, not from {SRC}")
    return seconds, cli


def probe_setup(workload, seed, workdir):
    """timed_setup in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
           "--seed", str(seed), "--setup-probe", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def machine_record():
    import numpy
    import scipy
    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }


class Captures:
    """Results of qtcov calls that the checks need, from the latest round."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.solves, self.resolved, self.mse_calls = [], [], []

    @staticmethod
    def _arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    def _qspa_solve(self, args, kwargs, out):
        ruler, spec = self._arg(args, kwargs, 1, "ruler"), self._arg(args, kwargs, 2, "spec")
        self.solves.append({
            "Rhat": self._arg(args, kwargs, 0, "Rhat"), "d": ruler.dim,
            "indices": tuple(int(i) for i in ruler.indices), "n": kwargs.get("n"),
            "delta_r": spec.delta_r, "delta_i": spec.delta_i, "k": spec.bits_k,
            "u": out.u, "breve": out.T_breve.generators, "converged": bool(out.converged)})

    def _estimate_frequencies(self, args, kwargs, out):
        self.resolved.append(bool(out[0]))

    def _frequency_mse(self, args, kwargs, out):
        self.mse_calls.append((self._arg(args, kwargs, 0, "estimates"),
                               self._arg(args, kwargs, 1, "truth"), out))

    def hooks(self):
        return {"qspa_solve": self._qspa_solve,
                "estimate_frequencies": self._estimate_frequencies,
                "frequency_mse": self._frequency_mse}


def _split(value):
    return [s.strip() for s in str(value).split(",") if s.strip()]


def expected_cells(workload):
    """The grid cells the workload's config asks for, in checks.Cell form."""
    from checks import Cell
    keys = dict(workload.keys)
    ds = [int(x) for x in _split(keys.get("d_values") or keys["d"])]
    pairs = [tuple(float(x) for x in tok.split(":")) for tok in _split(keys["deltas"])]
    bits = [int(b) for b in _split(keys.get("bits", ""))] or [None]
    cells = []
    for d in ds:
        for rspec in _split(keys["rulers"]):
            for k in bits:
                for dr, di in pairs:
                    for n in (int(x) for x in _split(keys["n_values"])):
                        for est in _split(keys["estimators"]):
                            if est == "qscm" and rspec != "full":
                                continue
                            cells.append(Cell(est, d, n, dr, di if k is None else dr, k, rspec))
    return cells


def run_checks(workload, seed, csv_text, captures):
    """Verdict of bench/checks.py on the last round's outputs."""
    import random

    import checks
    from qtcov.harness import resolve_ruler
    from qtcov.quantizer import QuantizationSpec, quantize_batch
    from qtcov.sampling import random_toeplitz_covariance, sample_complex_gaussian

    table = checks.parse_table(csv_text)
    expected = expected_cells(workload)
    trials = int(workload.key("trials"))
    pick = random.Random(seed)
    if workload.name == "level_grid":
        d, n = int(workload.key("d")), int(workload.key("n_values"))
        truth = random_toeplitz_covariance(d, seed)
        ruler = resolve_ruler("full", d)
        recomputed = {}
        for cell in pick.sample(expected, RECOMPUTED_CELLS):
            spec = QuantizationSpec(cell.delta_r, cell.delta_i)
            draws = (quantize_batch(sample_complex_gaussian(truth, ruler, n, seed ^ t), spec).data
                     for t in range(trials))
            recomputed[cell] = checks.recompute_mean(draws, truth.generators, ruler.indices.tolist(),
                                                     cell.delta_r, cell.delta_i)
        from workloads import LEVELS
        return checks.check_level_grid(table, expected, LEVELS, recomputed)
    if workload.name == "qspa_fit":
        names = {}
        for d in {c.d for c in expected}:
            for rspec in {c.ruler for c in expected}:
                names[(d, tuple(resolve_ruler(rspec, d).indices.tolist()))] = rspec
        return checks.check_qspa_fit(table, expected, captures.solves, names, trials, seed)
    sampled = pick.sample(captures.mse_calls, min(MSE_SAMPLES, len(captures.mse_calls)))
    return checks.check_doa_scene(table, expected, captures.resolved, sampled,
                                  int(workload.key("d")), trials)


def layer_metrics(stats):
    """Per-layer metrics of one traced round, name -> (value, unit)."""
    s = stats
    qspa = s["qspa"].durations
    return {
        "rulers.builds": (s["rulers"].calls, "count"),
        "rulers.busy_s": (s["rulers"].busy, "s"),
        "sampling.calls": (s["sampling"].calls, "count"),
        "sampling.busy_s": (s["sampling"].busy, "s"),
        "sampling.drawn_mb": (s["sampling"].counts.get("drawn_bytes", 0) / 2 ** 20, "MiB"),
        "quantizer.calls": (s["quantizer"].calls, "count"),
        "quantizer.busy_s": (s["quantizer"].busy, "s"),
        "estimators.calls": (s["estimators"].calls, "count"),
        "estimators.busy_s": (s["estimators"].busy, "s"),
        "qspa.solves": (s["qspa"].calls, "count"),
        "qspa.busy_s": (s["qspa"].busy, "s"),
        "qspa.solve_p50_ms": (1e3 * statistics.median(qspa) if qspa else 0.0, "ms"),
        "qspa.newton_iters": (s["qspa"].counts.get("newton_iters", 0), "count"),
        "qspa.nonconverged": (s["qspa"].counts.get("nonconverged", 0), "count"),
        "doa.calls": (s["doa"].calls, "count"),
        "doa.busy_s": (s["doa"].busy, "s"),
        "doa.unresolved": (s["doa"].counts.get("unresolved", 0), "count"),
        "doa.scoring_s": (s["doa_scoring"].busy, "s"),
        "harness.self_s": (s["harness"].busy, "s"),
        "output.write_s": (s["output"].busy, "s"),
        "output.bytes": (s["output"].counts.get("bytes", 0), "bytes"),
    }


def run(workload, seed, seconds, trace, workdir):
    setups = []
    seconds_main, cli = timed_setup(workload, seed, os.path.join(workdir, "setup-0"))
    setups.append(seconds_main)
    for i in range(1, SETUP_SAMPLES):
        setups.append(probe_setup(workload, seed, os.path.join(workdir, f"setup-{i}")))
    print("machine: " + json.dumps(machine_record()))

    cfg_path = write(os.path.join(workdir, "workload.cfg"), workload.config_text(seed))
    outdir = os.path.join(workdir, "out")
    csv_path = os.path.join(outdir, workload.csv_name)
    captures = Captures()
    tracer = Tracer(captures.hooks())
    digests, plain, traced, layers = set(), [], [], []

    def one_round(timed):
        captures.clear()
        tracer.reset()
        with tracer.installed(timed):
            t0 = perf_counter()
            experiment(cli, cfg_path, outdir)
            dt = perf_counter() - t0
        with open(csv_path, "rb") as fh:
            digests.add(hashlib.sha256(fh.read()).hexdigest())
        print(f"round {len(plain) + len(traced)}: {dt:.3f} s{' traced' if timed else ''}",
              flush=True)
        if timed:
            blind = [name for name in workload.layers if tracer.stats[name].calls == 0]
            if blind:
                raise BenchError(f"traced layers recorded no calls: {', '.join(blind)}")
            layers.append(layer_metrics(tracer.stats))
        return dt

    start = perf_counter()
    if trace:
        plain.append(one_round(False))
    rounds = traced if trace else plain
    while True:
        rounds.append(one_round(trace))
        # stop where the measured time lands closest to --seconds
        if perf_counter() - start + rounds[-1] / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(csv_path) as fh:
        verdict = run_checks(workload, seed, fh.read(), captures)
    if len(digests) != 1:
        verdict.problem(f"rounds wrote {len(digests)} different CSVs from one config")
    for cell, why in sorted(verdict.failed.items()):
        print(f"failed cell {cell}: {why}")
    for why in verdict.problems:
        print(f"check failed: {why}")

    n_rounds = len(plain) + len(traced)
    if trace:
        metrics = {name: {"value": statistics.median_low(m[name][0] for m in layers),
                          "unit": unit} for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(plain),
                                       "unit": "s"}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "run_s": {"value": statistics.median(plain), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    return {"correct": verdict.correct,
            "attempted": len(expected_cells(workload)) * n_rounds,
            "failed": len(verdict.failed) * n_rounds,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    try:
        if not os.path.isfile(os.path.join(SRC, "qtcov", "__init__.py")):
            raise BenchError(f"no qtcov sources under {SRC}; run from a qtcov checkout")
        if args.setup_probe:
            print(timed_setup(workload, args.seed, args.setup_probe)[0])
            return 0
        os.makedirs(RUN_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUN_DIR)
        try:
            result = run(workload, args.seed, args.seconds, args.trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, LookupError, subprocess.SubprocessError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
