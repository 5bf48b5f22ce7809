"""Wrappers around qtcov's public functions, installed from outside the program.

`Tracer.installed` replaces each named function by a wrapper everywhere the
program could reach it: the attribute of every `qtcov` module that binds it
(so both `module.func` and `from .module import func` are caught) and the
entries of module-level tables (dicts, lists and tuples, nested up to three
deep).  Leaving the context restores every reference.

A timed wrapper charges its call to a layer.  A call into a layer that is
already active on the call stack (qtscm calling quantized_sample_covariance)
belongs to the outer call and is neither counted nor timed separately.  A
layer's busy time is self time: nested calls into other traced layers are
subtracted from it.  Untimed wrappers only hand the result to a hook, which
the benchmark uses to capture outputs for its checks.
"""

import contextlib
import functools
import os
import sys
from time import perf_counter

# layer -> functions charged to it, found by name in the qtcov modules
LAYERS = {
    "rulers": ("resolve_ruler", "full_ruler"),
    "sampling": ("sample_complex_gaussian", "random_toeplitz_covariance"),
    "quantizer": ("quantize_batch", "select_level_tail_bound", "select_level_datadriven"),
    "estimators": ("quantized_sample_covariance", "qtscm", "qscm"),
    "qspa": ("qspa_solve",),
    "doa": ("estimate_frequencies",),
    "doa_scoring": ("frequency_mse",),
    "harness": ("run_experiment",),
    "output": ("write_outputs",),
}

_MAX_DEPTH = 3


class LayerStats:
    __slots__ = ("calls", "busy", "durations", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.durations = []   # inclusive seconds per call
        self.counts = {}      # extra counters filled by hooks

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


def _hook_sampling(stats, out):
    # sample_complex_gaussian draws n x d standard normals for each of the
    # real and imaginary parts, float64 each
    if hasattr(out, "count"):
        stats.add("drawn_bytes", 16 * out.count * out.dim)


def _hook_qspa(stats, out):
    stats.add("newton_iters", out.iterations)
    stats.add("nonconverged", int(not out.converged))


def _hook_doa(stats, out):
    stats.add("unresolved", int(not out[0]))


def _hook_output(stats, out):
    stats.add("bytes", sum(os.path.getsize(p) for p in out if p))


STAT_HOOKS = {
    "sample_complex_gaussian": _hook_sampling,
    "qspa_solve": _hook_qspa,
    "estimate_frequencies": _hook_doa,
    "write_outputs": _hook_output,
}


def qtcov_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qtcov" or name.startswith("qtcov."))]


def find_function(name):
    """The qtcov function called `name`; fails loudly if there is none."""
    found = {id(val): val for mod in qtcov_modules()
             for key, val in vars(mod).items()
             if key == name and callable(val)
             and getattr(val, "__module__", "").startswith("qtcov")}
    if len(found) != 1:
        raise LookupError(f"expected one qtcov function {name!r}, found {len(found)}")
    return next(iter(found.values()))


def _patched(value, swap, undo, depth=0):
    """Replacement for `value`; mutable containers are patched in place."""
    new = swap.get(id(value))
    if new is not None:
        return new
    if depth >= _MAX_DEPTH:
        return value
    if isinstance(value, dict):
        for key, item in list(value.items()):
            new = _patched(item, swap, undo, depth + 1)
            if new is not item:
                value[key] = new
                undo.append(functools.partial(value.__setitem__, key, item))
        return value
    if isinstance(value, list):
        for i, item in enumerate(list(value)):
            new = _patched(item, swap, undo, depth + 1)
            if new is not item:
                value[i] = new
                undo.append(functools.partial(value.__setitem__, i, item))
        return value
    if isinstance(value, tuple):
        items = [_patched(item, swap, undo, depth + 1) for item in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return value._make(items) if hasattr(value, "_make") else type(value)(items)
    return value


def install_everywhere(swap):
    """Swap functions (id(original) -> wrapper) in every qtcov module.

    Returns the list of undo actions, to be run in reverse.
    """
    undo = []
    for mod in qtcov_modules():
        for key, val in list(vars(mod).items()):
            if key == "__builtins__":
                continue
            new = _patched(val, swap, undo)
            if new is not val:
                setattr(mod, key, new)
                undo.append(functools.partial(setattr, mod, key, val))
    return undo


class Tracer:
    """Per-layer call counts and self times, plus result capture hooks.

    `captures` maps a function name to a hook called with (args, kwargs,
    result) on every call; those functions are wrapped even when untimed.
    """

    def __init__(self, captures=None):
        self.captures = dict(captures or {})
        self._stack = []
        self.reset()

    def reset(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}

    def _timed(self, layer, name, fn):
        stack = self._stack
        stat_hook = STAT_HOOKS.get(name)
        capture = self.captures.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == layer for frame in stack):
                out = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    stats = tracer.stats[layer]
                    stats.calls += 1
                    stats.busy += dt - frame[1]
                    stats.durations.append(dt)
                if stat_hook is not None:
                    stat_hook(tracer.stats[layer], out)
            if capture is not None:
                capture(args, kwargs, out)
            return out
        return wrapper

    def _untimed(self, fn, capture):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            capture(args, kwargs, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self, timed):
        """Wrap the layer functions (timed) or only the captured ones."""
        originals, swap = [], {}
        if timed:
            for layer, names in LAYERS.items():
                for name in names:
                    fn = find_function(name)
                    originals.append(fn)
                    swap[id(fn)] = self._timed(layer, name, fn)
        else:
            for name, capture in self.captures.items():
                fn = find_function(name)
                originals.append(fn)
                swap[id(fn)] = self._untimed(fn, capture)
        undo = install_everywhere(swap)
        try:
            yield self
        finally:
            for action in reversed(undo):
                action()
