import tracemalloc

import numpy as np
import pytest

from ipcnn.errors import DimensionError
from ipcnn.layers import cross_entropy_loss
from ipcnn.network import (
    ARCH_VERSION,
    NetworkModel,
    load_checkpoint,
    save_checkpoint,
)


class TestArchitecture:
    def test_parameter_count(self):
        model = NetworkModel(seed=0)
        shapes = [p.shape for p in model.parameters()]
        assert shapes == [
            (32, 1, 3, 3), (32,),
            (32, 32, 3, 3), (32,),
            (1568, 512), (512,),
            (512, 10), (10,),
        ]

    def test_logit_shape(self):
        model = NetworkModel(seed=0)
        out = model.forward(np.zeros((3, 1, 28, 28)))
        assert out.shape == (3, 10)

    def test_empty_batch_logit_shape(self):
        out = NetworkModel(seed=0).forward(np.zeros((0, 1, 28, 28)))
        assert out.shape == (0, 10)

    def test_conv_layer_handles(self):
        model = NetworkModel(seed=0)
        convs = model.conv_layers
        assert [c.c_in for c in convs] == [1, 32]
        assert [c.c_out for c in convs] == [32, 32]
        assert all(c.kernel == 3 and c.pad == 1 for c in convs)

    def test_init_deterministic(self):
        assert NetworkModel(seed=5).model_hash() == \
            NetworkModel(seed=5).model_hash()
        assert NetworkModel(seed=5).model_hash() != \
            NetworkModel(seed=6).model_hash()


class TestTrainingStep:
    @staticmethod
    def batch(n=64):
        rng = np.random.default_rng(21)
        return rng.random((n, 1, 28, 28)), rng.integers(0, 10, size=n)

    def test_gradients_match_full_backward(self):
        x, y = self.batch(16)
        model = NetworkModel(seed=0)
        loss = model.loss_and_backward(x, y)
        lean = [g.copy() for g in model.gradients()]
        # every layer, the first included, computes its input gradient
        logits = model.forward(x, train=True)
        full_loss, grad = cross_entropy_loss(logits, y)
        for layer in reversed(model.layers):
            grad = layer.backward(grad)
        assert grad.shape == x.shape
        assert loss == full_loss
        for g, ref in zip(lean, model.gradients(), strict=True):
            np.testing.assert_array_equal(g, ref)

    def test_step_memory_peak(self):
        # one 64-image step takes about 75 MiB; lowering conv1's unused
        # input gradient and copying pool tiles takes it past 170 MiB
        x, y = self.batch()
        model = NetworkModel(seed=0)
        model.loss_and_backward(x, y)
        tracemalloc.start()
        try:
            model.loss_and_backward(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestCheckpoint:
    def test_lossless_round_trip(self, tmp_path):
        model = NetworkModel(seed=7)
        model.metadata["note"] = "round trip"
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)
        assert loaded.model_hash() == model.model_hash()
        assert loaded.metadata == model.metadata

    def test_predictions_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.random((5, 1, 28, 28))
        model = NetworkModel(seed=2)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(model.forward(x), loaded.forward(x))

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        model = NetworkModel(seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        bad_meta = json.dumps({"arch_version": ARCH_VERSION + 1,
                               "metadata": {}})
        np.savez_compressed(
            path, __meta__=np.frombuffer(bad_meta.encode(), dtype=np.uint8),
            **arrays)
        with pytest.raises(DimensionError, match="arch version"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        import json

        model = NetworkModel(seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        arrays["param_0"] = arrays["param_0"][:16]  # truncated tensor
        meta = json.dumps({"arch_version": ARCH_VERSION, "metadata": {}})
        np.savez_compressed(
            path, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8),
            **arrays)
        with pytest.raises(DimensionError, match="param_0"):
            load_checkpoint(path)
