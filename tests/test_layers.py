import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ipcnn.errors import DimensionError, TrainingError
from ipcnn.layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2,
    ReLU,
    cross_entropy_loss,
    im2col,
    softmax,
)
from ipcnn.network import Hyperparams, NetworkModel, train

SRC = Path(__file__).resolve().parent.parent / "src" / "ipcnn"


def reference_pool_forward(x):
    """Tile route: copy each 2x2 tile into a last axis, take max and argmax."""
    b, c, h, w = x.shape
    tiles = x.reshape(b, c, h // 2, 2, w // 2, 2)
    tiles = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
    return tiles.max(axis=-1), tiles.argmax(axis=-1)


def reference_pool_backward(grad, argmax, shape):
    """Tile route: put each gradient at its tile's argmax, untranspose."""
    b, c, h, w = shape
    out = np.zeros((b, c, h // 2, w // 2, 4))
    np.put_along_axis(out, argmax[..., None], grad[..., None], axis=-1)
    out = out.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return out.reshape(b, c, h, w)


def reference_conv_dx(layer, grad):
    """Full correlation of grad padded by k-1, cropped by the layer's pad."""
    k, p = layer.kernel, layer.pad
    gp = np.pad(grad, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    gcols, (b, bh, bw) = im2col(gp, k)
    w_mat = layer.w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(
        -1, layer.c_in)
    dxp = (gcols @ w_mat).reshape(b, bh, bw, layer.c_in).transpose(0, 3, 1, 2)
    return dxp[:, :, p:bh - p, p:bw - p]


def finite_difference_check(layer, x, seed=0, eps=1e-6):
    """Central finite differences vs analytic gradients for one layer.

    Checks dL/dx and every parameter gradient against a random linear
    loss L = sum(g * forward(x)).
    """
    rng = np.random.default_rng(seed)
    out = layer.forward(x, train=True)
    g = rng.standard_normal(out.shape)
    dx = layer.backward(g)

    def loss(inp):
        return float(np.sum(g * layer.forward(inp)))

    # input gradient
    num_dx = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        num_dx[idx] = (loss(xp) - loss(xm)) / (2 * eps)
    err = np.max(np.abs(num_dx - dx)) / max(np.max(np.abs(num_dx)), 1.0)
    assert err < 1e-4, f"input gradient mismatch: {err}"

    # parameter gradients (recompute analytic grads on the same signal)
    layer.forward(x, train=True)
    layer.backward(g)
    for p, analytic in zip(layer.params, layer.grads):
        num = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            lp = loss(x)
            p[idx] = orig - eps
            lm = loss(x)
            p[idx] = orig
            num[idx] = (lp - lm) / (2 * eps)
        err = np.max(np.abs(num - analytic)) / max(np.max(np.abs(num)), 1.0)
        assert err < 1e-4, f"parameter gradient mismatch: {err}"


class TestGradients:
    def test_conv2d_padded(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(2, 3, kernel=3, pad=1, rng=rng)
        finite_difference_check(layer, rng.standard_normal((2, 2, 5, 5)))

    def test_conv2d_unpadded(self):
        rng = np.random.default_rng(2)
        layer = Conv2D(1, 2, kernel=3, pad=0, rng=rng)
        finite_difference_check(layer, rng.standard_normal((2, 1, 6, 6)))

    def test_dense(self):
        rng = np.random.default_rng(3)
        layer = Dense(7, 4, rng=rng)
        finite_difference_check(layer, rng.standard_normal((3, 7)))

    def test_relu(self):
        rng = np.random.default_rng(4)
        # keep values away from the kink so finite differences are valid
        x = rng.standard_normal((3, 4, 5))
        x[np.abs(x) < 0.05] = 0.1
        finite_difference_check(ReLU(), x)

    def test_maxpool(self):
        rng = np.random.default_rng(5)
        # well-separated values avoid argmax flips under the epsilon
        x = rng.permutation(np.arange(2 * 2 * 4 * 4, dtype=float)).reshape(
            2, 2, 4, 4)
        finite_difference_check(MaxPool2(), x)

    def test_flatten(self):
        rng = np.random.default_rng(6)
        finite_difference_check(Flatten(), rng.standard_normal((2, 3, 4, 4)))

    def test_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((5, 10))
        labels = rng.integers(0, 10, size=5)
        _, analytic = cross_entropy_loss(logits, labels)
        eps = 1e-6
        num = np.zeros_like(logits)
        for i in range(5):
            for j in range(10):
                lp, lm = logits.copy(), logits.copy()
                lp[i, j] += eps
                lm[i, j] -= eps
                num[i, j] = (cross_entropy_loss(lp, labels)[0]
                             - cross_entropy_loss(lm, labels)[0]) / (2 * eps)
        assert np.max(np.abs(num - analytic)) < 1e-4


class TestForwardShapes:
    def test_conv_output_shape(self):
        layer = Conv2D(1, 8, kernel=3, pad=1, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((4, 1, 28, 28)))
        assert out.shape == (4, 8, 28, 28)

    def test_conv_wrong_channels(self):
        layer = Conv2D(2, 3, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            layer.forward(np.zeros((1, 1, 8, 8)))

    def test_pool_halves(self):
        out = MaxPool2().forward(np.zeros((2, 3, 28, 28)))
        assert out.shape == (2, 3, 14, 14)

    def test_pool_odd_rejected(self):
        with pytest.raises(DimensionError):
            MaxPool2().forward(np.zeros((1, 1, 7, 8)))

    def test_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2().forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    @pytest.mark.parametrize("ties", [False, True])
    def test_pool_inference_matches_tile_path(self, ties):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 8, 6))
        if ties:
            x = np.round(x)
            x[0, 0] = 0.0
        np.testing.assert_array_equal(MaxPool2().forward(x),
                                      reference_pool_forward(x)[0])

    def test_dense_width_checked(self):
        layer = Dense(7, 4, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            layer.forward(np.zeros((2, 8)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        probs = softmax(rng.standard_normal((6, 10)) * 50)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(probs >= 0)


def tied_pool_input(rng):
    """Small integers, so most tiles hold several equal maxima; the first
    image is all zeros and the second has all-zero tiles on every other
    row of tiles."""
    x = rng.integers(-1, 2, size=(3, 4, 8, 6)).astype(float)
    x[0] = 0.0
    x[1, :, ::4] = x[1, :, 1::4] = 0.0
    return x


class TestExactRoutes:
    """The training routes give the same bits as the textbook ones."""

    @pytest.mark.parametrize("ties", [False, True])
    def test_pool_train_matches_tile_route(self, ties):
        rng = np.random.default_rng(12)
        x = tied_pool_input(rng) if ties else rng.standard_normal((3, 4, 8, 6))
        grad = rng.standard_normal((3, 4, 4, 3))
        pool = MaxPool2()
        out = pool.forward(x, train=True)
        ref_out, argmax = reference_pool_forward(x)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(
            pool.backward(grad), reference_pool_backward(grad, argmax, x.shape))

    def test_pool_ties_go_to_first_maximum(self):
        pool = MaxPool2()
        pool.forward(np.zeros((1, 1, 2, 2)), train=True)
        np.testing.assert_array_equal(pool.backward(np.ones((1, 1, 1, 1))),
                                      [[[[1.0, 0.0], [0.0, 0.0]]]])

    @pytest.mark.parametrize("position", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_pool_nan_tile_routes_no_gradient(self, position):
        # no element equals a NaN maximum, so the first tile's gradient
        # goes nowhere and its input gradient stays +0.0; the second tile
        # routes as usual
        x = np.array([[[[1.0, 2.0, 1.0, 3.0], [2.0, 1.0, 2.0, 0.0]]]])
        x[0, 0][position] = np.nan
        pool = MaxPool2()
        out = pool.forward(x, train=True)
        assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 3.0
        dx = pool.backward(np.array([[[[5.0, -7.0]]]]))
        np.testing.assert_array_equal(dx, [[[[0.0, 0.0, 0.0, -7.0],
                                              [0.0, 0.0, 0.0, 0.0]]]])
        assert not np.signbit(dx[0, 0, :, :2]).any()

    def test_pool_parts_share_corners_across_threads(self):
        # six parts of one batch through one pool, each on its own thread,
        # all filling or reading the same corner entry at once
        rng = np.random.default_rng(14)
        x = tied_pool_input(np.random.default_rng(15)).repeat(16, axis=0)
        grad = rng.standard_normal((len(x), 4, 4, 3))
        parts = [slice(start, start + 8) for start in range(0, len(x), 8)]
        pool, dx = MaxPool2(), [None] * len(parts)

        def run(i):
            part = parts[i]
            pool.forward(x[part], train=True, first=part.start)
            dx[i] = pool.backward(grad[part], first=part.start)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(parts))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        _, argmax = reference_pool_forward(x)
        np.testing.assert_array_equal(
            np.concatenate(dx), reference_pool_backward(grad, argmax, x.shape))
        assert len(pool.corners) == 1 and pool.state == {}

    def test_pool_corners_keyed_by_memory_order(self):
        # one layer, one shape, the input in C order and then channel-major
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4, 8, 6))
        grad = rng.standard_normal((3, 4, 4, 3))
        _, argmax = reference_pool_forward(x)
        expected = reference_pool_backward(grad, argmax, x.shape)
        pool = MaxPool2()
        for layout in (x, x.transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3)):
            pool.forward(layout, train=True)
            np.testing.assert_array_equal(pool.backward(grad), expected)
        assert len(pool.corners) == 2

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    def test_conv_dx_matches_cropped_full_correlation(self, pad):
        rng = np.random.default_rng(13 + pad)
        layer = Conv2D(3, 5, kernel=3, pad=pad, rng=rng)
        x = rng.standard_normal((4, 3, 9, 7))
        grad = rng.standard_normal(layer.forward(x, train=True).shape)
        dx = layer.backward(grad)
        assert dx.shape == x.shape
        np.testing.assert_array_equal(dx, reference_conv_dx(layer, grad))

    def test_param_grads_only_call(self):
        rng = np.random.default_rng(17)
        layer = Conv2D(1, 4, kernel=3, pad=1, rng=rng)
        x = rng.standard_normal((5, 1, 8, 8))
        grad = rng.standard_normal((5, 4, 8, 8))
        layer.forward(x, train=True)
        layer.backward(grad)
        full = [g.copy() for g in layer.grads]
        layer.forward(x, train=True)
        assert layer.backward(grad, input_grad=False) is None
        for g, ref in zip(layer.grads, full, strict=True):
            np.testing.assert_array_equal(g, ref)


class TestTraining:
    def test_tiny_overfit(self):
        # 32 distinct samples must be memorized perfectly
        rng = np.random.default_rng(9)
        x = rng.random((32, 1, 28, 28))
        y = np.tile(np.arange(10), 4)[:32]
        model = NetworkModel(seed=0)
        train(model, x, y, Hyperparams(epochs=30, learning_rate=0.02,
                                       batch_size=8, seed=0))
        assert model.accuracy(x, y) == 1.0

    def test_divergence_raises(self):
        rng = np.random.default_rng(10)
        x = rng.random((16, 1, 28, 28))
        y = rng.integers(0, 10, size=16)
        model = NetworkModel(seed=0)
        with pytest.raises(TrainingError), np.errstate(all="ignore"):
            train(model, x, y, Hyperparams(epochs=10, learning_rate=1e30,
                                           batch_size=16, seed=0))

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(epochs=0).validate()
        with pytest.raises(ValueError):
            Hyperparams(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            Hyperparams(momentum=1.0).validate()
        with pytest.raises(ValueError):
            Hyperparams(batch_size=0).validate()

    def test_training_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.random((40, 1, 28, 28))
        y = rng.integers(0, 10, size=40)
        hashes = []
        for _ in range(2):
            model = NetworkModel(seed=3)
            train(model, x, y, Hyperparams(epochs=2, batch_size=16, seed=3))
            hashes.append(model.model_hash())
        assert hashes[0] == hashes[1]

    def test_training_bytes_pinned(self):
        # recorded from the NCHW-layout code; a change in the order of any
        # reduction moves it, though both runs above would still agree.
        # Summation order is the BLAS library's: recorded with OpenBLAS
        # 0.3.31 on an AVX-512 x86-64 CPU.
        rng = np.random.default_rng(11)
        x = rng.random((40, 1, 28, 28))
        y = rng.integers(0, 10, size=40)
        model = NetworkModel(seed=3)
        train(model, x, y, Hyperparams(epochs=2, batch_size=16, seed=3))
        assert model.model_hash() == (
            "e1d99b4346dce11bb630747cb671f57e64ffe59078ad952650ac5a4e56de59ff"
        ), ("pinned on OpenBLAS 0.3.31, AVX-512 x86-64: on another BLAS "
            "build or CPU a mismatch may be the environment, not the code")


def test_one_lowering_site():
    # every conv lowering, digital or analog, forward or input gradient,
    # goes through the chunked GEMM, which makes no whole-batch lowering
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "im2col" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    sites.add((path.stem, getattr(top, "name", None)))
    assert sites == {("layers", "conv_gemm")}
