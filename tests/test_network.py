import ast
import collections
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ipcnn.errors import DimensionError, InvalidSpecError, TrainingError
from ipcnn.hybrid import build_photonic_setups, hybrid_forward
from ipcnn.layers import Conv2D, cross_entropy_loss, im2col, pad_hw
from ipcnn.network import (
    ARCH_VERSION,
    Hyperparams,
    NetworkModel,
    load_checkpoint,
    map_on_threads,
    save_checkpoint,
    train,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "ipcnn"

# one-part batches (up to 9 images: a one-image part's dense GEMMs round
# differently), the smallest split (8 + 2), even and uneven parts, and the
# last batch of an epoch
STEP_BATCH_SIZES = [1, 2, 3, 7, 8, 9, 10, 12, 16, 17, 18, 24, 33, 36, 40, 50,
                    63, 64, 65, 99, 100]


def serial_step(model, x, labels):
    """Reference step: every layer over the whole batch on one thread.

    Each conv's parameter gradients are computed here, as the one-thread
    step computed them: one GEMM of the output gradient against the conv's
    own lowering of the whole batch, and one sum of the C-order gradient.
    """
    conv_inputs = {}
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            conv_inputs[layer] = x
        x = layer.forward(x, train=True)
    loss, grad = cross_entropy_loss(x, labels)
    for layer in reversed(model.layers):
        if isinstance(layer, Conv2D):
            cols, _ = im2col(pad_hw(conv_inputs[layer], layer.pad),
                             layer.kernel)
            grad_rows = grad.transpose(1, 0, 2, 3).reshape(layer.c_out, -1)
            w_grad = (grad_rows @ cols).reshape(layer.w.shape)
            b_grad = np.ascontiguousarray(grad).sum(axis=(0, 2, 3))
        grad = layer.backward(grad)
        if isinstance(layer, Conv2D):
            layer.grads[0][...], layer.grads[1][...] = w_grad, b_grad
    return loss


def step_mismatches(sizes) -> list:
    """The batch sizes at which ``loss_and_backward`` differs from the
    serial step in loss or gradient bits."""
    x, y = train_data()
    bad = []
    for n in sizes:
        model, ref = NetworkModel(seed=0), NetworkModel(seed=0)
        same = model.loss_and_backward(x[:n], y[:n]) == serial_step(
            ref, x[:n], y[:n])
        if not (same and all(np.array_equal(g, r) for g, r in zip(
                model.gradients(), ref.gradients(), strict=True))):
            bad.append(n)
    return bad


def train_data(n=100, seed=5):
    rng = np.random.default_rng(seed)
    return rng.random((n, 1, 28, 28)), rng.integers(0, 10, size=n)


def run_on_blas_threads(code: str, threads: int) -> str:
    """The standard output of ``python -c code`` run with this directory
    importable and ``threads`` BLAS threads; fails on a non-zero exit."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(tests), "src"), tests]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           **{var: str(threads) for var in ("OPENBLAS_NUM_THREADS",
                                            "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")}}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout


# sha256 of logits computed where no noise is drawn, one set per BLAS thread
# count: conv2 on an odd number of images rounds by the thread count.
NO_NOISE_PINS = {
    1: {"logits_7": "02bb2b8895c37baeb63f1a009396adef"
                    "0fa474d815744e386ffa0e814fc60c04",
        "logits_32": "f7fa4d1d4cdd2d6db77e62633b040ee2"
                     "4571f42dfbaef00d90db7f06b526dc2c",
        "hybrid": "67d34b6b363149181923dd74ae645c8e"
                  "abaf65cd1c80c5b5aedea3b107171271"},
    2: {"logits_7": "0753c2fbf2058de9902509348be6a430"
                    "c1842779f50137a5532af3604b426b94",
        "logits_32": "504f64577c24d5db0d86d93f55521c5b"
                     "70305d7de2c614c296dcab3ca229f9e3",
        "hybrid": "b91485105cb939582baea29625412f35"
                  "0dd1918703dd125efeb72078d7f455c4"},
}


def no_noise_digests() -> dict:
    """sha256 of the logits of 37 random images: digital
    (``NetworkModel.logits``) at batch sizes 7 and 32, and hybrid
    (``hybrid_forward``) with calibration at 6 dB of imbalance, noise off.
    The model's biases are random, so no bias is zero."""
    model = NetworkModel(seed=8)
    rng = np.random.default_rng(9)
    for layer in model.layers:
        if layer.params:
            layer.b[...] = rng.normal(0.0, 0.1, size=layer.b.shape)
    images = np.random.default_rng(10).random((37, 28, 28))
    logits = {f"logits_{n}": model.logits(images[:, None], batch_size=n)
              for n in (7, 32)}
    setups = build_photonic_setups(model, imbalance_db=6.0,
                                   calibration=True, seed=11)
    logits["hybrid"] = hybrid_forward(model, images, setups,
                                      np.random.default_rng(12))
    return {name: hashlib.sha256(out.tobytes()).hexdigest()
            for name, out in logits.items()}


def started_threads(monkeypatch):
    """A list that records every Thread started from now on."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


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
        for layer in reversed(model.walk):
            grad = layer.backward(grad)
        assert grad.shape == x.shape
        assert loss == full_loss
        for g, ref in zip(lean, model.gradients(), strict=True):
            np.testing.assert_array_equal(g, ref)

    def test_step_memory_peak(self):
        # one 64-image step takes 78-90 MiB, by which thread makes each
        # full-batch array first (the one-thread step took about 72 MiB);
        # lowering conv1's unused input gradient and copying pool tiles
        # takes it past 170 MiB
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

    def test_train_keeps_no_arrays(self):
        # train keeps each step's full-batch conv arrays (15 MiB at batch
        # 16) for the next step only while it runs
        x, y = train_data(40)
        hyper = Hyperparams(epochs=1, batch_size=16, seed=0)
        model = train(NetworkModel(seed=0), x, y, hyper)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(model, x, y, hyper)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 2**20, f"{(after - before) / 2**20:.1f} MiB"

    @pytest.mark.parametrize("batch_size", STEP_BATCH_SIZES)
    def test_step_matches_serial_step(self, batch_size):
        x, y = train_data()
        x, y = x[:batch_size], y[:batch_size]
        model, ref = NetworkModel(seed=0), NetworkModel(seed=0)
        assert model.loss_and_backward(x, y) == serial_step(ref, x, y)
        for g, r in zip(model.gradients(), ref.gradients(), strict=True):
            np.testing.assert_array_equal(g, r)

    @pytest.mark.parametrize("batch_size", STEP_BATCH_SIZES)
    def test_trained_bytes_match_serial_step(self, batch_size):
        x, y = train_data()
        hyper = Hyperparams(epochs=1, batch_size=batch_size, seed=2)
        ref = NetworkModel(seed=0)
        ref.loss_and_backward = (
            lambda xb, yb, arrays, helper: serial_step(ref, xb, yb))
        train(ref, x, y, hyper)
        model = train(NetworkModel(seed=0), x, y, hyper)
        assert model.model_hash() == ref.model_hash()

    def test_step_matches_serial_step_on_one_blas_thread(self):
        # one BLAS thread, as perfbench runs: a cut after an odd number of
        # images changed conv2's forward bits there, and not on two threads
        code = ("import test_network; "
                f"print(test_network.step_mismatches({STEP_BATCH_SIZES}))")
        assert run_on_blas_threads(code, 1).strip() == "[]"

    def test_small_batch_starts_no_thread(self, monkeypatch):
        x, y = train_data(10)
        started = started_threads(monkeypatch)
        for n in (1, 8, 9):
            NetworkModel(seed=0).loss_and_backward(x[:n], y[:n])
        assert started == []
        NetworkModel(seed=0).loss_and_backward(x, y)
        # one helper runs the second part forward, one backward, and one
        # the largest weight gradient
        assert len(started) == 3

    def test_train_keeps_one_helper(self, monkeypatch):
        # a helper thread per stage and step may take a malloc arena of its
        # own; train's steps share one, joined when it returns
        x, y = train_data(40)
        started = started_threads(monkeypatch)
        train(NetworkModel(seed=0), x, y,
              Hyperparams(epochs=1, batch_size=8, seed=0))
        assert started == []
        train(NetworkModel(seed=0), x, y,
              Hyperparams(epochs=2, batch_size=16, seed=0))
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_nan_image_raises_with_helper_joined(self, monkeypatch):
        x, y = train_data()
        x[57, 0, 3, 4] = np.nan
        started = started_threads(monkeypatch)
        model = NetworkModel(seed=0)
        with pytest.raises(TrainingError, match="epoch 0"):
            train(model, x, y, Hyperparams(epochs=1, batch_size=16, seed=0))
        assert started
        assert not any(t.is_alive() for t in started)

    def test_helper_keeps_callers_error_state(self):
        x, y = train_data(16)
        x[12, 0, 5, 5] = np.inf  # an image of the helper's half
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="raise"), pytest.raises(FloatingPointError):
                NetworkModel(seed=0).loss_and_backward(x, y)
        assert caught == []

    def test_concurrent_trains_match_lone_runs(self):
        x, y = train_data(40)
        seeds = range(4)

        def run(seed):
            model = NetworkModel(seed=seed)
            train(model, x, y, Hyperparams(epochs=1, batch_size=16,
                                           seed=seed))
            return model.model_hash()

        alone = [run(seed) for seed in seeds]
        together = [None] * len(seeds)

        def worker(i):
            together[i] = run(seeds[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert together == alone

    def test_wrapped_layer_methods_train_the_same(self):
        # a traced run replaces forward and backward on each layer instance
        # with a pass-through, which both parts of a step then call; each
        # must still reach the layer's own method with its part's ``first``
        x, y = train_data(40)
        hyper = Hyperparams(epochs=1, batch_size=16, seed=1)
        plain = train(NetworkModel(seed=0), x, y, hyper)
        wrapped = NetworkModel(seed=0)
        for layer in wrapped.layers:
            for name in ("forward", "backward"):
                method = getattr(layer, name)
                setattr(layer, name,
                        lambda *a, _m=method, **k: _m(*a, **k))
        train(wrapped, x, y, hyper)
        assert wrapped.model_hash() == plain.model_hash()

    @pytest.mark.parametrize("n, calls", [(64, 2), (9, 1)])
    def test_parts_share_the_model_layers(self, n, calls):
        # wrapped on the instance, as a traced run wraps them: a split step
        # reaches each layer once per part, a one-part step once
        x, y = train_data(n)
        model = NetworkModel(seed=0)
        reached = []
        for i, layer in enumerate(model.layers):
            for name in ("forward", "backward"):
                def counted(*a, _m=getattr(layer, name), _key=(i, name), **k):
                    reached.append(_key)
                    return _m(*a, **k)
                setattr(layer, name, counted)
        model.loss_and_backward(x, y)
        assert collections.Counter(reached) == {
            (i, name): calls for i in range(len(model.layers))
            for name in ("forward", "backward")}

    def test_layers_keep_no_state_after_backward(self):
        x, y = train_data(64)
        model = NetworkModel(seed=0)
        model.loss_and_backward(x, y)
        assert [layer.state for layer in model.layers] == [{}] * 10
        logits = model.forward(x[:5], train=True)
        assert [list(layer.state) for layer in model.layers] == [[0]] * 10
        _, grad = cross_entropy_loss(logits, y[:5])
        for layer in reversed(model.walk):
            grad = layer.backward(grad)
        assert [layer.state for layer in model.layers] == [{}] * 10

    def test_layers_keep_no_state_after_a_raise(self):
        # relu2 fails on the helper's part (images 8-15) after the caller's
        # part has passed every layer: without the clean-up conv1 - pool2
        # kept entries [0, 8] and the later layers [0]
        x, y = train_data(16)
        model = NetworkModel(seed=0)
        relu2 = model.layers[4]

        def forward(x, train=False, *, first=0, _forward=relu2.forward):
            if first == 8:
                raise RuntimeError("cut")
            return _forward(x, train, first=first)
        relu2.forward = forward
        with pytest.raises(RuntimeError, match="cut"):
            model.loss_and_backward(x, y)
        assert [layer.state for layer in model.layers] == [{}] * 10


def awkward_images():
    """Images and a model whose ReLU and pool inputs hold ties, NaN, -0.0
    and all-negative tiles: image 0 is all 0.0, image 1 all -0.0, image 2
    constant, image 3 integer-valued, the others random with zero and
    -0.0 patches, and image 5 holds one NaN.  Five conv1 and five conv2
    channels have a bias of -0.5 and one of each -0.0."""
    rng = np.random.default_rng(31)
    x = rng.random((12, 1, 28, 28))
    x[0], x[1], x[2] = 0.0, -0.0, 0.5
    x[3] = rng.integers(0, 2, size=(1, 28, 28))
    x[6:, :, 4:12, 4:12] = 0.0
    x[7:, :, 16:, 16:] = -0.0
    x[5, 0, 9, 20] = np.nan
    model = NetworkModel(seed=3)
    for conv in model.conv_layers:
        conv.b[...] = rng.normal(0.0, 0.1, size=conv.b.shape)
        conv.b[:5], conv.b[5] = -0.5, -0.0
    return model, x


class TestWalk:
    """Every pass runs each ReLU that feeds a pool after the pool."""

    def test_walk_order(self):
        model = NetworkModel(seed=0)
        walk = model.walk
        assert [type(layer).__name__ for layer in walk] == [
            "Conv2D", "MaxPool2", "ReLU", "Conv2D", "MaxPool2", "ReLU",
            "Flatten", "Dense", "ReLU", "Dense"]
        assert sorted(map(id, walk)) == sorted(map(id, model.layers))
        assert [type(layer).__name__ for layer in model.layers][:3] == [
            "Conv2D", "ReLU", "MaxPool2"]

    def test_forward_matches_list_order(self):
        # every input outside a ReLU-pool pair as values (NaN equal to
        # NaN; a pooled -0.0 may come out +0.0), the logits as bytes
        model, x = awkward_images()
        seen = {}
        for layer in model.layers:
            def record(y, *args, _layer=layer, _forward=layer.forward,
                       **kwargs):
                seen[_layer] = y
                return _forward(y, *args, **kwargs)
            layer.forward = record
        with np.errstate(invalid="ignore"):
            logits = model.forward(x)
            y, ref = x, {}
            for layer in model.layers:
                ref[layer] = y
                y = type(layer).forward(layer, y)
        paired = {layer for pair in zip(model.layers, model.walk)
                  for layer in pair if pair[0] is not pair[1]}
        assert len(paired) == 4
        for layer in model.layers:
            if layer not in paired:
                assert np.array_equal(seen[layer], ref[layer],
                                      equal_nan=True)
        assert np.isnan(logits[5]).all() and np.isfinite(logits[:5]).all()
        assert logits.tobytes() == y.tobytes()

    def test_step_matches_list_order(self):
        # the same images without the NaN one through a training step:
        # serial_step walks the listed order
        model, x = awkward_images()
        ref, _ = awkward_images()
        x = np.delete(x, 5, axis=0)
        labels = np.arange(len(x)) % 10
        assert model.loss_and_backward(x, labels) == serial_step(
            ref, x, labels)
        for g, r in zip(model.gradients(), ref.gradients(), strict=True):
            assert np.array_equal(g, r)


class TestExactWhereNoNoise:
    @pytest.mark.parametrize("threads", sorted(NO_NOISE_PINS))
    def test_logits_bytes_pinned(self, threads):
        # each thread count in a process of its own, whatever the suite's
        # own BLAS setting
        code = ("import json, test_network; "
                "print(json.dumps(test_network.no_noise_digests()))")
        digests = json.loads(run_on_blas_threads(code, threads))
        assert digests == NO_NOISE_PINS[threads], (
            "pinned on OpenBLAS 0.3.31, numpy 2.4, AVX-512 x86-64: on "
            "another BLAS or numpy build or CPU a mismatch may be the "
            "environment, not the code")


class TestMapOnThreads:
    """``map_on_threads``, the one function that starts helper threads."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n_items", [0, 1, 5, 7])
    def test_results_in_item_order(self, threads, n_items):
        caller = threading.current_thread()
        ran = map_on_threads(lambda i: (i, threading.current_thread()),
                             range(n_items), threads, "ipcnn-test")
        assert [i for i, _ in ran] == list(range(n_items))
        # item i runs in share i mod n, and share 0 on the calling thread
        n = min(threads, n_items)
        for i, thread in ran:
            assert thread is ran[i % n][1]
            assert (thread is caller) == (i % n == 0)

    def test_nested_call_starts_no_thread(self, monkeypatch):
        started = started_threads(monkeypatch)

        def share(item):
            return map_on_threads(
                lambda j: (item, j, threading.current_thread()), range(3),
                2, "ipcnn-inner")

        out = map_on_threads(share, range(2), 2, "ipcnn-outer")
        assert [t.name.split("_")[0] for t in started] == ["ipcnn-outer"]
        for item, inner in enumerate(out):
            assert [(i, j) for i, j, _ in inner] == [(item, j)
                                                     for j in range(3)]
            assert len({thread for *_, thread in inner}) == 1

    @pytest.mark.parametrize("own_pool", [True, False])
    @pytest.mark.parametrize("bad", [0, 1])
    def test_error_raised_after_every_share_joins(self, monkeypatch, bad,
                                                  own_pool):
        # item ``bad`` fails at once, in the caller's share (0) or the
        # helper's (1); the other share's items take a while
        started = started_threads(monkeypatch)
        done = []

        def fn(i):
            if i == bad:
                raise RuntimeError(f"item {i}")
            time.sleep(0.05)
            done.append(i)

        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(RuntimeError, match=f"item {bad}"):
                map_on_threads(fn, range(4), 2, "ipcnn-test",
                               None if own_pool else pool)
            assert sorted(done) == [i for i in range(4) if i % 2 != bad % 2]
        assert len(started) == 1 and not started[0].is_alive()

    def test_one_function_starts_threads(self):
        # a thread started anywhere else would escape the runner's rules:
        # shares joined before it returns, nested calls inline
        owners = {("network", "map_on_threads"), ("network", "train")}
        found = set()
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=path.name)
            for top in tree.body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and _callee(node) in (
                            "Thread", "ThreadPoolExecutor"):
                        found.add((path.stem, getattr(top, "name", None)))
        assert ("network", "map_on_threads") in found
        assert found <= owners


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


class TestTrainInputs:
    @pytest.mark.parametrize("n_labels", [19, 21])
    def test_label_count_mismatch(self, n_labels):
        x, _ = train_data(20)
        y = np.zeros(n_labels, dtype=int)
        with pytest.raises(DimensionError, match=f"{n_labels} labels"):
            train(NetworkModel(seed=0), x, y, Hyperparams(epochs=1))

    @pytest.mark.parametrize("bad", [-1, 10, 2.5])
    def test_label_outside_classes(self, bad):
        x, y = train_data(20)
        y = y.astype(type(bad))
        y[7] = bad
        with pytest.raises(InvalidSpecError, match="labels must be"):
            train(NetworkModel(seed=0), x, y, Hyperparams(epochs=1))

    @pytest.mark.parametrize("log", [None, print])
    def test_empty_training_set(self, log):
        model = NetworkModel(seed=0)
        with pytest.raises(InvalidSpecError, match="no images"):
            train(model, np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=int),
                  Hyperparams(epochs=1), log=log)
        assert model.metadata["trained"] is False


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

    def test_compressed_checkpoint_loads(self, tmp_path):
        # the test suite's cached model, committed compressed
        compressed = (Path(__file__).parent / ".cache"
                      / "model_synthetic_1a1324b7c2087a0b.npz")
        with zipfile.ZipFile(compressed) as archive:
            assert {entry.compress_type for entry in archive.infolist()} == {
                zipfile.ZIP_DEFLATED}
        model = load_checkpoint(compressed)
        assert model.metadata["trained"] is True
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        with zipfile.ZipFile(path) as archive:
            assert {entry.compress_type for entry in archive.infolist()} == {
                zipfile.ZIP_STORED}
        assert load_checkpoint(path).model_hash() == model.model_hash()

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

    def test_broken_checkpoint_raises_typed_error(self, broken_checkpoint):
        path, error = broken_checkpoint
        with pytest.raises(error, match="checkpoint"):
            load_checkpoint(path)

    def test_broken_checkpoint_closes_its_file(self, broken_checkpoint):
        # a failed load leaves no open file for the collector to find and
        # report as a ResourceWarning
        path, error = broken_checkpoint
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(error):
                load_checkpoint(path)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []
