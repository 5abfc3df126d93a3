"""The benchmark's traced runs against the model's layer list.

``perfbench/tracing.py`` wraps each layer of ``NetworkModel.layers`` under
a fixed list of names, one span per layer and method.  A model whose layer
list no longer matches that list fails every traced benchmark run; this
test makes it fail here first.
"""

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
    assert {"network.predict", "network.loss_and_backward",
            "analog.forward_batch.conv1",
            "analog.forward_batch.conv2"} <= recorded
