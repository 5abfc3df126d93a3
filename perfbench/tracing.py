"""Span recorder and the wrappers that place spans at ipcnn's layer boundaries.

Spans are recorded from the benchmark's side only: each public function is
replaced, for the duration of the traced work phase, at the attribute its
caller looks it up through (``ipcnn.hybrid.forward_batch`` for the hybrid
path, ``model.layers[i].forward`` for each network layer, ...).  The program
itself is not edited.  Spans are kept in memory and written out at the end.

This module imports only the standard library, and ``unittest.mock`` only
once a traced run starts, so importing it adds little to the set-up time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
import tracemalloc
from contextlib import ExitStack, contextmanager

LAYER_NAMES = ("conv1", "relu1", "pool1", "conv2", "relu2", "pool2",
               "flatten", "dense1", "relu3", "dense2")

# (module, attribute, span name): the function is patched on the module that
# calls it, and the span is named after the module that defines it.
MODULE_SPANS = (
    ("hybrid", "build_photonic_setups", "hybrid.build_photonic_setups"),
    ("hybrid", "program_weights", "analog.program_weights"),
    ("hybrid", "sample_imbalance", "analog.sample_imbalance"),
    ("hybrid", "calibrate", "analog.calibrate"),
    ("hybrid", "apply_calibration", "analog.apply_calibration"),
    ("hybrid", "infer_hybrid", "hybrid.infer_hybrid"),
    ("hybrid", "sweep_imbalance", "hybrid.sweep_imbalance"),
    ("network", "train", "network.train"),
    ("verify", "run_equivalence_suite", "verify.run_equivalence_suite"),
    ("verify", "build_delayed_matrix", "conv_math.build_delayed_matrix"),
    ("verify", "im2col_oracle", "conv_math.im2col_oracle"),
    ("verify", "conv2d_reference", "conv_math.conv2d_reference"),
    ("verify", "gemm_conv", "conv_math.gemm_conv"),
    ("design_space", "scale_grid", "design_space.scale_grid"),
    ("design_space", "speed_curve", "design_space.speed_curve"),
    ("design_space", "energy_budget_comparative",
     "design_space.energy_budget_comparative"),
)


SETUP_SPANS = ("config.load_config", "synth.make_synthetic_dataset",
               "network.load_checkpoint")


def span_names() -> set[str]:
    """Every span name a traced run can record, reached or not."""
    return (set(SETUP_SPANS)
            | {name for _, _, name in MODULE_SPANS}
            | {"network.predict", "network.loss_and_backward"}
            | {f"analog.forward_batch.{n}" for n in LAYER_NAMES
               if n.startswith("conv")}
            | {f"layers.{n}.{m}" for n in LAYER_NAMES
               for m in ("forward", "backward")})


class Tracer:
    """In-memory spans: (id, parent id, name, thread, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name,
                               threading.get_ident(), start, end))

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def summary(self) -> dict:
        """Per span name: total seconds, call count and self seconds."""
        child_time: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[str, dict] = {}
        for span_id, _, name, _, start, end in self.spans:
            agg = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            agg["s"] += end - start
            agg["calls"] += 1
            agg["self_s"] += end - start - child_time.get(span_id, 0.0)
        return out

    def dump(self, path) -> None:
        keys = ("id", "parent", "name", "thread", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def span_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one span wrapper adds to a call, timed around a no-op.

    The tracing overhead of a run is this times its span count, measured in
    the traced run itself rather than as the difference of two runs.
    """
    def noop():
        return None

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    wrapped = Tracer().wrap(noop, "probe")
    return max(best(wrapped) - best(noop), 0.0) / calls


class CountingRng:
    """Proxy around a numpy Generator that counts every element it draws."""

    def __init__(self, rng, on_draw):
        self._rng = rng
        self._on_draw = on_draw

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._on_draw(getattr(out, "size", 1))
            return out
        return counted


def conv_names(model) -> dict:
    """Map a conv layer's (c_in, c_out, kernel) to conv1, conv2, ..."""
    return {(c.c_in, c.c_out, c.kernel): f"conv{i + 1}"
            for i, c in enumerate(model.conv_layers)}


def _conv_name(names: dict, spec) -> str:
    key = (spec.c_in, spec.c_out, spec.sigma)
    if key not in names:
        raise KeyError(f"forward_batch called for conv shape {key}, which "
                       f"is none of the model's conv layers {sorted(names)}")
    return names[key]


def patched(patches) -> ExitStack:
    """Set (object, attribute, value) triples; restore the originals after."""
    from unittest.mock import patch  # 70 ms to import: kept out of set-up

    stack = ExitStack()
    for obj, attr, value in patches:
        stack.enter_context(patch.object(obj, attr, value))
    return stack


def instrument(tracer: Tracer, ipcnn_modules: dict, models: list):
    """Patches that put a span at every measured boundary.

    ``ipcnn_modules`` maps short module names to the imported modules.  A
    function the package no longer has raises AttributeError, so a renamed
    boundary fails the run instead of reading zero.
    """
    patches = [(ipcnn_modules[mod_name], attr, tracer.wrap(
        getattr(ipcnn_modules[mod_name], attr), span_name))
        for mod_name, attr, span_name in MODULE_SPANS]
    hybrid = ipcnn_modules["hybrid"]
    patches.append((hybrid, "forward_batch", _traced_forward_batch(
        tracer, hybrid.forward_batch, conv_names(models[0]))))
    for model in models:
        for method in ("predict", "loss_and_backward"):
            patches.append((model, method, tracer.wrap(
                getattr(model, method), f"network.{method}")))
        for layer_name, layer in zip(LAYER_NAMES, model.layers, strict=True):
            for method in ("forward", "backward"):
                patches.append((layer, method, tracer.wrap(
                    getattr(layer, method), f"layers.{layer_name}.{method}")))
    return patched(patches)


def _traced_forward_batch(tracer: Tracer, fn, names: dict):
    signature = inspect.signature(fn)

    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        params = bound.arguments
        name = _conv_name(names, params["spec"])
        if params.get("rng") is not None:
            params["rng"] = CountingRng(
                params["rng"], lambda n: tracer.count("noise_draws", n))
        tracer.count(f"{name}.samples", len(params["images"]))
        with tracer.span(f"analog.forward_batch.{name}"):
            return fn(*bound.args, **bound.kwargs)
    return traced


def forward_batch_peaks(hybrid, model, images, setups, rng) -> dict:
    """Tracemalloc peak (MiB) inside each analog conv call of one batch.

    Runs ``hybrid.hybrid_forward`` once over ``images`` with every
    ``forward_batch`` call measured on its own, in the calling thread.
    """
    names = conv_names(model)
    peaks: dict[str, float] = {}
    original = hybrid.forward_batch
    signature = inspect.signature(original)

    def measured(*args, **kwargs):
        spec = signature.bind(*args, **kwargs).arguments["spec"]
        tracemalloc.start()
        try:
            out = original(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        key = f"analog.forward_batch.{_conv_name(names, spec)}.peak_mib"
        peaks[key] = max(peaks.get(key, 0.0), peak / 2 ** 20)
        return out

    with patched([(hybrid, "forward_batch", measured)]):
        hybrid.hybrid_forward(model, images, setups, rng,
                              batch_size=len(images))
    return peaks
