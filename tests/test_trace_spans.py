"""The benchmark's traced runs against the model's layer list.

``perfbench/tracing.py`` wraps each layer of ``NetworkModel.layers`` under
a fixed list of names, one span per layer and method.  A model whose layer
list no longer matches that list fails every traced benchmark run; this
test makes it fail here first.
"""

import collections
import importlib.util
import sys
from pathlib import Path

import numpy as np

from ipcnn import design_space, hybrid, network, verify
from ipcnn.network import NetworkModel

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """perfbench's tracing module, imported without writing bytecode next
    to it (it needs only the standard library)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_calls_record_every_layer_span(monkeypatch):
    tracing = load_tracing(monkeypatch)
    model = NetworkModel(seed=0)
    rng = np.random.default_rng(0)
    x = rng.random((16, 1, 28, 28))
    labels = rng.integers(0, 10, size=16)
    setups = hybrid.build_photonic_setups(model, neop_dbc=-10.0)
    modules = {"hybrid": hybrid, "network": network, "verify": verify,
               "design_space": design_space}
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, modules, [model]):
        model.predict(x[:2])
        model.loss_and_backward(x, labels)
        hybrid.hybrid_forward(model, x[:4, 0], setups,
                              np.random.default_rng(1))
    recorded = set(tracer.summary())
    # a 16-image step runs backward through every layer, conv1 included
    expected = {f"layers.{name}.{method}" for name in tracing.LAYER_NAMES
                for method in ("forward", "backward")}
    assert expected <= recorded, sorted(expected - recorded)
    # and runs both of its 8-image parts through the model's own layers
    threads = collections.defaultdict(set)
    for _, _, name, thread, _, _ in tracer.spans:
        threads[name].add(thread)
    assert sorted(name for name in expected if len(threads[name]) != 2) == []
    assert {"network.predict", "network.loss_and_backward",
            "analog.forward_batch.conv1",
            "analog.forward_batch.conv2"} <= recorded


def test_traced_noise_draws_count_every_value(monkeypatch):
    # the traced run counts the values each call on forward_batch's
    # generator returns; a sampler that went round those calls would read
    # zero here instead of one uint64 step per two noisy output elements:
    # half the sum over the convs of V_k^2 * C_O, 28^2 * 32 + 14^2 * 32 =
    # 31,360
    tracing = load_tracing(monkeypatch)
    model = NetworkModel(seed=0)
    images = np.random.default_rng(0).random((5, 28, 28))
    setups = hybrid.build_photonic_setups(model, neop_dbc=-10.0)
    per_image = sum(s.spec.valid_width ** 2 * s.spec.c_out for s in setups)
    assert per_image == 31_360
    modules = {"hybrid": hybrid, "network": network, "verify": verify,
               "design_space": design_space}
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, modules, [model]):
        hybrid.hybrid_forward(model, images, setups, np.random.default_rng(1),
                              batch_size=2)
    assert tracer.counts["noise_draws"] == len(images) * per_image // 2
