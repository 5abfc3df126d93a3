import dataclasses
import hashlib
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ipcnn.analog import (MAX_IMBALANCE_DB, AnalogFaultModel, box_muller,
                          forward_batch, output_noise_std, program_weights,
                          standard_normal)
from ipcnn.conv_math import ConvLayerSpec
from ipcnn import hybrid
from ipcnn.errors import DimensionError, EncodingError, InvalidSpecError
from ipcnn.hybrid import (
    build_photonic_setups,
    hybrid_forward,
    infer_hybrid,
    sweep_imbalance,
    sweep_noise,
)
from ipcnn.layers import Conv2D, pad_hw
from ipcnn.network import Hyperparams, NetworkModel, map_on_threads, train


@pytest.fixture(scope="module")
def model():
    return NetworkModel(seed=0)


def serial_forward(model, images, setups, rng, batch_size=128):
    """Reference route: whole batches, no blocks, no threads.

    Each conv runs noiseless over the whole batch, and then gets image
    ``n``'s noise added: ``std`` times one ``standard_normal`` draw, laid
    out as the image's (C_O, V, V) output.  The draws of a batch are
    consecutive, from the conv's PCG64 stream seeded by (root, conv) and
    advanced by the P = ceil(C_O*V*V/2) steps of each image before the
    batch.  ``root`` is the first integer drawn from ``rng``.
    """
    root = int(rng.integers(2 ** 63))
    logits = []
    for start in range(0, len(images), batch_size):
        x = images[start:start + batch_size][:, None, :, :]
        conv = 0
        for layer in model.layers:
            if not isinstance(layer, Conv2D):
                x = layer.forward(x)
                continue
            setup = setups[conv]
            quiet = dataclasses.replace(setup.faults, neop_dbc=-np.inf)
            x = forward_batch(pad_hw(x, setup.pad), setup.programming,
                              setup.spec, quiet)
            std = output_noise_std(setup.programming, setup.spec,
                                   setup.faults)
            if std > 0:
                stream = np.random.PCG64(np.random.SeedSequence([root, conv]))
                stream.advance(start * ((x[0].size + 1) // 2))
                gen = np.random.Generator(stream)
                noise = np.stack([
                    standard_normal(gen, x[0].size).reshape(x[0].shape)
                    for _ in range(len(x))])
                x = x + std * noise.astype(np.float64)
            x += setup.bias[None, :, None, None]
            conv += 1
        logits.append(x)
    return np.concatenate(logits) if logits else np.zeros((0, 10))


def started_threads(monkeypatch):
    """A list that records the name of every Thread started from now on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda t: (started.append(t.name), start(t)))
    return started


def max_rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1.0)


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(0)
    images = rng.random((12, 28, 28))
    labels = rng.integers(0, 10, size=12)
    return images, labels


class TestSetupGeometry:
    def test_conv_input_widths(self, model):
        # pooling halves the 28-pixel image before the second conv
        setups = build_photonic_setups(model)
        assert [s.spec.image_width - 2 * s.pad for s in setups] == [28, 14]

    def test_specs_include_padding(self, model):
        setups = build_photonic_setups(model)
        assert setups[0].spec == ConvLayerSpec(1, 32, 3, 30)
        assert setups[1].spec == ConvLayerSpec(32, 32, 3, 16)
        assert all(s.pad == 1 for s in setups)

    def test_per_layer_independent_imbalance(self, model):
        setups = build_photonic_setups(model, imbalance_db=6.0, seed=3)
        g0 = setups[0].faults.path_gains
        g1 = setups[1].faults.path_gains
        assert g0.shape == (1, 9, 32) and g1.shape == (32, 9, 32)
        for g in (g0, g1):
            ratio = 10 * np.log10(g.max() / g.min())
            assert ratio == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("faults", [
        {"neop_dbc": np.nan}, {"neop_dbc": np.inf}, {"neop_dbc": 5000.0},
        {"imbalance_db": np.nan, "calibration": True},
        {"imbalance_db": np.inf}, {"imbalance_db": -1.0},
        {"imbalance_db": 5000.0},
    ], ids=["neop-nan", "neop-inf", "neop-overflow", "imbalance-nan",
            "imbalance-inf", "imbalance-negative", "imbalance-overflow"])
    def test_bad_fault_level_rejected(self, model, faults):
        # each of these used to give the ideal hardware or fail later
        with pytest.raises(InvalidSpecError, match="level"):
            build_photonic_setups(model, **faults)

    @pytest.mark.parametrize("calibration", [False, True])
    @pytest.mark.parametrize("level", [
        np.nextafter(MAX_IMBALANCE_DB, 0), MAX_IMBALANCE_DB])
    def test_imbalance_up_to_ceiling_keeps_logits_finite(
            self, model, samples, level, calibration):
        images, _ = samples
        setups = build_photonic_setups(model, imbalance_db=level,
                                       calibration=calibration, seed=2)
        with np.errstate(over="raise", invalid="raise"):
            logits = hybrid_forward(model, images[:8], setups,
                                    np.random.default_rng(0))
        assert np.all(np.isfinite(logits))

    def test_ideal_setup_has_no_faults(self, model):
        setups = build_photonic_setups(model)
        assert all(s.faults.noiseless for s in setups)
        assert all(s.faults.path_gains is None for s in setups)


class TestIdealEquivalence:
    def test_logits_match_digital(self, model, samples):
        images, _ = samples
        setups = build_photonic_setups(model)
        rng = np.random.default_rng(0)
        hybrid = hybrid_forward(model, images, setups, rng)
        digital = model.forward(images[:, None, :, :])
        scale = max(np.max(np.abs(digital)), 1.0)
        assert np.max(np.abs(hybrid - digital)) / scale < 1e-9

    def test_report_matches_digital_argmax(self, model, samples):
        images, labels = samples
        report = infer_hybrid(model, images, labels)
        digital_acc = model.accuracy(images[:, None, :, :], labels)
        assert report.accuracy == pytest.approx(digital_acc)
        assert report.confusion.sum() == len(labels)
        np.testing.assert_array_equal(
            report.confusion.sum(axis=1),
            np.bincount(labels, minlength=10))


class TestDeterminism:
    def test_same_seed_identical(self, model, samples):
        images, labels = samples
        a = infer_hybrid(model, images, labels, neop_dbc=-12.0, seed=5)
        b = infer_hybrid(model, images, labels, neop_dbc=-12.0, seed=5)
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_noisy_logits_bytes_pinned(self):
        # re-recorded when each noise value came from a 23-bit uniform pair
        # of the image's uint64 steps: both the noise values and the GEMM
        # sums are in these bytes.  numpy picks its float32 log, sin
        # and cos loops by CPU feature, as OpenBLAS picks its kernels
        # (OpenBLAS 0.3.31, numpy 2.4, AVX-512 x86-64)
        model = NetworkModel(seed=4)
        images = np.random.default_rng(5).random((16, 28, 28))
        setups = build_photonic_setups(model, neop_dbc=-10.0, seed=6)
        logits = hybrid_forward(model, images, setups,
                                np.random.default_rng(7))
        assert logits.dtype == np.float64 and logits.shape == (16, 10)
        assert hashlib.sha256(logits.tobytes()).hexdigest() == (
            "da0fe45745269aeaf3cdb3484de64787552b98d531179fd1bc0a9177e97d59ce"
        ), ("pinned on OpenBLAS 0.3.31, numpy 2.4, AVX-512 x86-64: on "
            "another BLAS or numpy build or CPU a mismatch may be the "
            "environment, not the code")

    def test_fault_config_recorded(self, model, samples):
        images, labels = samples
        report = infer_hybrid(model, images, labels, neop_dbc=-12.0,
                              imbalance_db=4.0, calibration=True, seed=1,
                              probe_repeats=2)
        assert report.fault_config == {
            "neop_dbc": -12.0, "imbalance_db": 4.0,
            "calibration": True, "probe_repeats": 2,
        }


class TestEmptyBatch:
    def test_hybrid_forward_returns_no_logits(self, model):
        setups = build_photonic_setups(model, neop_dbc=-10.0)
        logits = hybrid_forward(model, np.zeros((0, 28, 28)), setups,
                                np.random.default_rng(0))
        assert logits.shape == (0, 10)

    def test_predict_and_accuracy(self, model):
        empty = np.zeros((0, 1, 28, 28))
        preds = model.predict(empty)
        assert preds.shape == (0,) and preds.dtype.kind == "i"
        assert np.isnan(model.accuracy(empty, np.zeros(0, dtype=np.int64)))

    def test_infer_hybrid_accuracy_is_nan(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = infer_hybrid(model, np.zeros((0, 28, 28)),
                                  np.zeros(0, dtype=np.int64))
        assert np.isnan(report.accuracy) and report.n_samples == 0
        assert not report.confusion.any()


class TestCalibrationRecovery:
    def test_noiseless_six_db_exact(self, model, samples):
        images, _ = samples
        raw = build_photonic_setups(model, imbalance_db=6.0, seed=7)
        fixed = build_photonic_setups(model, imbalance_db=6.0, seed=7,
                                      calibration=True)
        rng = np.random.default_rng(0)
        digital = model.forward(images[:, None, :, :])
        corrupted = hybrid_forward(model, images, raw,
                                   np.random.default_rng(0))
        recovered = hybrid_forward(model, images, fixed, rng)
        scale = max(np.max(np.abs(digital)), 1.0)
        assert np.max(np.abs(corrupted - digital)) / scale > 1e-3
        assert np.max(np.abs(recovered - digital)) / scale < 1e-9


class TestSweeps:
    def test_noise_sweep_rows(self, model, samples):
        images, labels = samples
        rows = sweep_noise(model, images, labels, [-25.0, -10.0], [0, 1])
        assert len(rows) == 4
        assert {r["neop_dbc"] for r in rows} == {-25.0, -10.0}
        repeat = sweep_noise(model, images, labels, [-25.0, -10.0], [0, 1])
        assert rows == repeat

    def test_noise_sweep_threads_match_serial(self, model, samples):
        images, labels = samples
        serial = sweep_noise(model, images, labels, [-20.0], [0, 1, 2])
        threaded = sweep_noise(model, images, labels, [-20.0], [0, 1, 2],
                               threads=3)
        assert serial == threaded

    def test_workers_keep_callers_errstate(self):
        # so a sweep's float errors do not depend on its thread count
        with np.errstate(over="raise"):
            modes = map_on_threads(lambda job: np.geterr()["over"], range(6),
                                   2, "ipcnn-sweep")
            assert modes == ["raise"] * 6
            with pytest.raises(FloatingPointError, match="overflow"):
                map_on_threads(lambda job: np.float64(1e308) * job,
                               [1.0, 10.0], 2, "ipcnn-sweep")

    def test_noisy_sweep_starts_one_thread(self, model, samples,
                                           monkeypatch):
        # the jobs' walks, noisy or not, run inline in their shares: ten
        # jobs used to start a pool of two and a walk helper each
        started = started_threads(monkeypatch)
        images, labels = samples
        sweep_noise(model, images, labels, [-10.0, -20.0], list(range(5)),
                    batch_size=4, threads=2)
        assert len(started) == 1 and started[0].startswith("ipcnn-sweep")
        started.clear()
        sweep_imbalance(model, images, labels, [6.0], trials=4,
                        calibration=True, batch_size=4, threads=2)
        assert len(started) == 1 and started[0].startswith("ipcnn-sweep")

    def test_imbalance_sweep_stats(self, model, samples):
        images, labels = samples
        stats = sweep_imbalance(model, images, labels, [0.0, 8.0], trials=3,
                                base_seed=11)
        assert len(stats) == 2
        for s in stats:
            assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
            assert len(s["accuracies"]) == 3

    def test_zero_imbalance_trials_identical(self, model, samples):
        # level 0 has no randomness, all trials collapse to one value
        images, labels = samples
        stats = sweep_imbalance(model, images, labels, [0.0], trials=4)
        assert stats[0]["min"] == stats[0]["max"]

    def test_imbalance_sweep_deterministic(self, model, samples):
        images, labels = samples
        a = sweep_imbalance(model, images, labels, [6.0], trials=3,
                            base_seed=4)
        b = sweep_imbalance(model, images, labels, [6.0], trials=3,
                            base_seed=4)
        assert a == b


def _conv2_only_noisy(model):
    setups = build_photonic_setups(model, neop_dbc=-10.0, seed=3)
    quiet = dataclasses.replace(setups[0].faults, neop_dbc=-np.inf)
    return [dataclasses.replace(setups[0], faults=quiet), setups[1]]


class TestNoiseAhead:
    """Noise is a function of (seed, conv, image): ``hybrid_forward`` matches
    a whole-batch reference route, whatever its batch size, subset or
    thread timing.  A call of more than one batch, noisy or not, runs on
    one helper thread besides its own, joined before it returns or
    raises; a one-batch call starts none."""

    @pytest.mark.parametrize("n_images, batch_size, make_setups", [
        (37, 16, lambda m: build_photonic_setups(m, neop_dbc=-10.0, seed=1)),
        (1, 128, lambda m: build_photonic_setups(m, neop_dbc=-10.0, seed=2)),
        (20, 8, lambda m: build_photonic_setups(
            m, neop_dbc=-15.0, imbalance_db=6.0, calibration=True, seed=4)),
        (0, 16, lambda m: build_photonic_setups(m, neop_dbc=-10.0, seed=5)),
        (10, 4, _conv2_only_noisy),
        # batches that split into 32-image blocks, the last one short
        (70, 64, lambda m: build_photonic_setups(m, neop_dbc=-10.0, seed=6)),
        (103, 103, lambda m: build_photonic_setups(m, neop_dbc=-10.0,
                                                   seed=7)),
        (999, 128, lambda m: build_photonic_setups(m, neop_dbc=-10.0,
                                                   seed=8)),
        (77, 77, _conv2_only_noisy),
        (90, 50, lambda m: build_photonic_setups(
            m, neop_dbc=-15.0, imbalance_db=6.0, calibration=True, seed=9)),
        # a one-image tail block, whose dense GEMMs are matrix-vector
        # products
        (33, 128, lambda m: build_photonic_setups(m, neop_dbc=-10.0,
                                                  seed=10)),
        (161, 128, lambda m: build_photonic_setups(m, neop_dbc=-10.0,
                                                   seed=11)),
        # no noise: the batches run on the helper all the same
        (75, 16, lambda m: build_photonic_setups(
            m, imbalance_db=6.0, calibration=True, seed=12)),
    ], ids=["uneven-last-batch", "one-image", "imbalance-calibrated",
            "no-images", "conv2-only-noisy", "blocks-two-batches",
            "blocks-one-batch", "blocks-999-images", "blocks-conv2-only-noisy",
            "blocks-imbalance-calibrated", "one-image-tail-block",
            "one-image-tail-block-two-batches",
            "noiseless-calibrated-batches"])
    def test_matches_serial_route(self, model, n_images, batch_size,
                                  make_setups):
        images = np.random.default_rng(9).random((n_images, 28, 28))
        setups = make_setups(model)
        logits = hybrid_forward(model, images, setups,
                                np.random.default_rng(11),
                                batch_size=batch_size)
        reference = serial_forward(model, images, setups,
                                   np.random.default_rng(11),
                                   batch_size=batch_size)
        assert logits.shape == reference.shape == (n_images, 10)
        if n_images:
            # the reference's whole-batch GEMMs round like another batch
            assert max_rel(logits, reference) < 1e-12
        again = hybrid_forward(model, images, setups,
                               np.random.default_rng(11),
                               batch_size=batch_size)
        assert again.tobytes() == logits.tobytes()

    def test_independent_of_batch_size(self, model):
        images = np.random.default_rng(9).random((130, 28, 28))
        setups = build_photonic_setups(model, neop_dbc=-10.0, seed=3)
        logits = {b: hybrid_forward(model, images, setups,
                                    np.random.default_rng(12), batch_size=b)
                  for b in (1, 8, 50, 77, 128)}
        for b, other in logits.items():
            assert max_rel(other, logits[128]) < 1e-12, b

    def test_subset_matches_full_set(self, model):
        images = np.random.default_rng(9).random((100, 28, 28))
        setups = build_photonic_setups(model, neop_dbc=-10.0, seed=3)
        full = hybrid_forward(model, images, setups,
                              np.random.default_rng(13), batch_size=32)
        subset = hybrid_forward(model, images[:40], setups,
                                np.random.default_rng(13), batch_size=32)
        assert subset.tobytes() == full[:40].tobytes()

    def test_image_noise_comes_from_its_key(self):
        # zero input: image n's conv output is std times the
        # standard_normal draw of the (root, conv) PCG64 stream advanced
        # by n * P, P = 32 * 14 * 14 / 2, laid out as the image's (C_O, V, V)
        # output
        model = NetworkModel(seed=1)
        setup = build_photonic_setups(model, neop_dbc=-10.0)[1]
        x = np.zeros((5, 32, 16, 16))
        out = forward_batch(x, setup.programming, setup.spec, setup.faults,
                            rng=hybrid.noise_stream(7, 1, setup.spec, 40))
        std = output_noise_std(setup.programming, setup.spec, setup.faults)
        for i in range(5):
            stream = np.random.PCG64(np.random.SeedSequence([7, 1]))
            stream.advance((40 + i) * 32 * 14 * 14 // 2)
            draw = standard_normal(np.random.Generator(stream), 32 * 14 * 14)
            np.testing.assert_array_equal(
                out[i], std * draw.astype(np.float64).reshape(32, 14, 14))

    def test_conv1_noise_moments_per_channel(self, model):
        # zero input to conv1: each output channel's noise has mean 0 and
        # variance Q * sigma^2 * rescale^2 (ROADMAP aim 3); 25,088 samples
        # per channel put 5 % at about 5.6 standard errors of the variance
        setup = build_photonic_setups(model, neop_dbc=-10.0)[0]
        spec = setup.spec
        x = np.zeros((32, 1, spec.image_width, spec.image_width))
        out = forward_batch(x, setup.programming, spec, setup.faults,
                            rng=hybrid.noise_stream(2024, 0, spec, 0))
        expected = (spec.q * setup.faults.noise_sigma(spec) ** 2
                    * setup.programming.rescale ** 2)
        per_channel = out.transpose(1, 0, 2, 3).reshape(spec.c_out, -1)
        assert per_channel.shape == (32, 32 * 28 * 28)
        n = per_channel.shape[1]
        assert np.all(np.abs(per_channel.mean(axis=1))
                      < 5 * np.sqrt(expected / n))
        np.testing.assert_allclose(per_channel.var(axis=1) / expected, 1.0,
                                   atol=0.05)
        # images draw independent noise: neighbours are uncorrelated
        corr = np.corrcoef(out[0].ravel(), out[1].ravel())[0, 1]
        assert abs(corr) < 5 / np.sqrt(out[0].size)

    def test_neighbouring_keys_uncorrelated(self):
        # the n-th draw from a stream positioned at image first is image
        # first + n's; the draws of neighbouring images, and of one image at
        # the two convs, correlate no more than independent values do (5
        # standard errors)
        size = 32 * 28 * 28
        spec = ConvLayerSpec(c_in=1, c_out=32, sigma=3, image_width=30)
        conv1, conv2 = (hybrid.noise_stream(2024, k, spec, 100)
                        for k in (0, 1))
        draws = [standard_normal(conv1, size) for _ in range(9)]
        pairs = list(zip(draws, draws[1:]))
        pairs.append((draws[0], standard_normal(conv2, size)))
        for a, b in pairs:
            corr = np.corrcoef(a.astype(np.float64), b.astype(np.float64))
            assert abs(corr[0, 1]) < 5 / np.sqrt(size)
        np.testing.assert_array_equal(
            draws[3], standard_normal(hybrid.noise_stream(2024, 0, spec, 103),
                                      size))

    def test_concurrent_calls_under_fast_switching(self, model):
        # four callers, each with its own helper, on a 2-core host; a
        # short switch interval interleaves the threads as often as it can
        images = np.random.default_rng(9).random((24, 28, 28))
        setups = build_photonic_setups(model, neop_dbc=-10.0)
        alone = [hybrid_forward(model, images, setups,
                                np.random.default_rng(seed), batch_size=8)
                 for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                together = list(pool.map(
                    lambda seed: hybrid_forward(
                        model, images, setups, np.random.default_rng(seed),
                        batch_size=8),
                    range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for logits, reference in zip(together, alone, strict=True):
            assert logits.tobytes() == reference.tobytes()

    def test_error_mid_call_joins_helper(self, model):
        # image 10 is in the helper's batch (the second of 8), image 3 in
        # the caller's
        setups = build_photonic_setups(model, neop_dbc=-10.0)
        before = threading.active_count()
        for bad_image in (10, 3):
            images = np.random.default_rng(9).random((20, 28, 28))
            images[bad_image, 3, 3] = np.nan
            with pytest.raises(EncodingError, match="non-finite"):
                hybrid_forward(model, images, setups,
                               np.random.default_rng(0), batch_size=8)
            assert threading.active_count() == before

    def test_one_batch_call_starts_no_thread(self, model, monkeypatch):
        # a memory probe that starts and stops tracemalloc around each
        # forward_batch of a one-batch call relies on no other thread
        started = started_threads(monkeypatch)
        images = np.random.default_rng(9).random((100, 28, 28))
        setups = build_photonic_setups(model, neop_dbc=-10.0)
        for batch_size in (100, 128):
            hybrid_forward(model, images, setups, np.random.default_rng(0),
                           batch_size=batch_size)
        assert started == []

    @pytest.mark.parametrize("faults", [
        {"neop_dbc": -10.0},
        {"imbalance_db": 6.0, "calibration": True},
    ], ids=["noisy", "noiseless-calibrated"])
    def test_batches_share_one_helper(self, model, monkeypatch, faults):
        setups = build_photonic_setups(model, **faults)
        started = started_threads(monkeypatch)
        images = np.random.default_rng(9).random((40, 28, 28))
        hybrid_forward(model, images, setups, np.random.default_rng(0),
                       batch_size=8)
        assert len(started) == 1 and started[0].startswith("ipcnn-infer")


class TestNoiseStream:
    """Conv k's noise is one PCG64 stream per (root, k), and image n owns
    the P = ceil(C_O*V*V/2) uint64 steps from n*P on."""

    CONV1 = ConvLayerSpec(c_in=1, c_out=32, sigma=3, image_width=30)
    # c_out = 1 and a 3x3 valid output: 9 values, so P = 5 and one of each
    # image's 10 half steps goes unused
    ODD = ConvLayerSpec(c_in=1, c_out=1, sigma=3, image_width=5)

    @staticmethod
    def zero_block(spec, n_images, rng):
        """Noise of a zero-input block: its noisy output, and the std."""
        programming = program_weights(
            np.ones((spec.c_in, spec.c_out, spec.sigma, spec.sigma)), spec)
        faults = AnalogFaultModel(neop_dbc=-10.0)
        x = np.zeros((n_images, spec.c_in, spec.image_width,
                      spec.image_width))
        out = forward_batch(x, programming, spec, faults, rng=rng)
        return out, output_noise_std(programming, spec, faults)

    @pytest.mark.parametrize("spec", [CONV1, ODD], ids=["conv1", "odd"])
    @pytest.mark.parametrize("image", [0, 1, 5, 37])
    def test_advanced_stream_is_a_slice_of_one_draw(self, spec, image):
        # a 3-image block from the stream advanced by n * P is the
        # Box-Muller of steps nP to (n + 3)P of one long draw, P per image
        n = spec.c_out * spec.valid_width ** 2
        per_image = (n + 1) // 2
        stream = np.random.PCG64(np.random.SeedSequence([3, 1]))
        long = np.random.Generator(stream).integers(
            0, 2 ** 64, size=(image + 3) * per_image, dtype=np.uint64)
        out, std = self.zero_block(spec, 3, hybrid.noise_stream(3, 1, spec,
                                                                image))
        for i in range(3):
            first = (image + i) * per_image
            draw = box_muller(long[first:first + per_image], n)
            np.testing.assert_array_equal(
                out[i], std * draw.astype(np.float64).reshape(out[i].shape))

    @pytest.mark.parametrize("spec", [CONV1, ODD], ids=["conv1", "odd"])
    @pytest.mark.parametrize("first, n_images", [(0, 1), (2, 4), (37, 32)])
    def test_block_leaves_stream_at_next_block(self, spec, first, n_images):
        # the block's one draw takes exactly its images' steps: the stream
        # then sits where the next block's keyed stream starts
        rng = hybrid.noise_stream(4, 0, spec, first)
        self.zero_block(spec, n_images, rng)
        assert rng.bit_generator.state == hybrid.noise_stream(
            4, 0, spec, first + n_images).bit_generator.state

    def test_odd_count_keys_by_image(self):
        # zero input to a one-output-channel conv: image i of a block that
        # starts at image 2 is the Box-Muller of steps 5 (2 + i) to
        # 5 (3 + i) of the stream, the last half step of them unused
        spec = self.ODD
        out, std = self.zero_block(spec, 4, hybrid.noise_stream(9, 0, spec,
                                                                2))
        steps = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [9, 0]))).integers(0, 2 ** 64, size=30, dtype=np.uint64)
        for i in range(4):
            draw = box_muller(steps[5 * (2 + i):5 * (3 + i)], 9)
            np.testing.assert_array_equal(
                out[i], std * draw.astype(np.float64).reshape(1, 3, 3))

    @pytest.mark.parametrize("make_setups, noisy", [
        (lambda m: build_photonic_setups(m, neop_dbc=-10.0, seed=1),
         [True, True]),
        (_conv2_only_noisy, [False, True]),
        (lambda m: build_photonic_setups(m, imbalance_db=6.0,
                                         calibration=True), [False, False]),
    ], ids=["noisy", "conv2-only-noisy", "noiseless"])
    def test_each_conv_gets_its_stream_or_none(self, model, monkeypatch,
                                               make_setups, noisy):
        # one batch of two blocks, on the calling thread in order: a noisy
        # conv gets its stream at the block's first image, a noiseless one
        # no generator
        setups = make_setups(model)
        calls = []

        def recording(images, programming, spec, faults, rng=None):
            calls.append(None if rng is None else rng.bit_generator.state)
            return forward_batch(images, programming, spec, faults, rng)

        monkeypatch.setattr(hybrid, "forward_batch", recording)
        images = np.random.default_rng(9).random((40, 28, 28))
        hybrid_forward(model, images, setups, np.random.default_rng(11))
        root = int(np.random.default_rng(11).integers(2 ** 63))
        expected = [
            hybrid.noise_stream(root, k, setups[k].spec, first)
            .bit_generator.state if noisy[k] else None
            for first in (0, 32) for k in (0, 1)]
        assert calls == expected


class TestBlockedPredict:
    def test_matches_one_forward(self, model):
        # 100 images make three full 32-image blocks and one of 4
        x = np.random.default_rng(3).random((100, 1, 28, 28))
        np.testing.assert_array_equal(model.predict(x),
                                      model.forward(x).argmax(axis=1))

    @pytest.mark.parametrize("n_images, batch_size, blocks", [
        (100, 32, [(0, 32), (32, 32), (64, 32), (96, 4)]),
        # batches of 64 and 33 images, two blocks each, the last of one image
        (97, 64, [(0, 32), (32, 32), (64, 32), (96, 1)]),
    ])
    def test_own_convs_as_hook_match_no_hook(self, model, n_images,
                                             batch_size, blocks):
        x = np.random.default_rng(3).random((n_images, 1, 28, 28))
        calls = []

        def conv(k, block, first):
            calls.append((first, len(block), k))
            return model.conv_layers[k].forward(block)

        hooked = model.logits(x, batch_size, conv)
        assert hooked.tobytes() == model.logits(x, batch_size).tobytes()
        assert sorted(calls) == [(first, size, k) for first, size in blocks
                                 for k in (0, 1)]

    def test_concurrent_calls_under_fast_switching(self, model):
        # four callers, each with its own helper, share one model
        x = np.random.default_rng(3).random((100, 1, 28, 28))
        expected = model.forward(x).argmax(axis=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                preds = list(pool.map(lambda _: model.predict(x), range(4),
                                      timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for p in preds:
            np.testing.assert_array_equal(p, expected)


class TestBadCounts:
    """Counts below 1 and mismatched labels raise typed errors; predict and
    accuracy take no batch size, so theirs cannot be bad."""

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_hybrid_forward_batch_size(self, model, batch_size):
        setups = build_photonic_setups(model, neop_dbc=-10.0)
        with pytest.raises(InvalidSpecError, match="batch size"):
            hybrid_forward(model, np.zeros((6, 28, 28)), setups,
                           np.random.default_rng(0), batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_infer_hybrid_batch_size(self, model, samples, batch_size):
        images, labels = samples
        with pytest.raises(InvalidSpecError, match="batch size"):
            infer_hybrid(model, images, labels, batch_size=batch_size)

    def test_infer_hybrid_label_count(self, model, samples):
        images, labels = samples
        with pytest.raises(DimensionError, match="labels"):
            infer_hybrid(model, images[:6], labels[:5])

    @pytest.mark.parametrize("n_images", [0, 12])
    def test_predict_batch_size(self, model, samples, n_images):
        # predict has no batch size of its own: its classes are those of
        # logits walked one image at a time, and none for no images
        images = samples[0][:n_images, None]
        preds = model.predict(images)
        assert preds.shape == (n_images,)
        np.testing.assert_array_equal(
            preds, model.logits(images, batch_size=1).argmax(axis=1))

    @pytest.mark.parametrize("n_images", [6, 12])
    def test_accuracy_batch_size(self, model, samples, n_images):
        # likewise accuracy, which scores predict's classes
        images, labels = samples[0][:n_images, None], samples[1][:n_images]
        one_by_one = model.logits(images, batch_size=1).argmax(axis=1)
        assert model.accuracy(images, labels) == np.mean(one_by_one == labels)

    @pytest.mark.parametrize("n_images, batch_size", [(6, 0), (6, -1), (0, 0)])
    def test_logits_batch_size(self, model, n_images, batch_size):
        with pytest.raises(InvalidSpecError, match="batch size"):
            model.logits(np.zeros((n_images, 1, 28, 28)),
                         batch_size=batch_size)

    @pytest.mark.parametrize("call", ["logits", "hybrid_forward", "train"])
    def test_non_integral_batch_size(self, model, call):
        images = np.zeros((6, 28, 28))
        run = {
            "logits": lambda: model.logits(images[:, None], batch_size=2.5),
            "hybrid_forward": lambda: hybrid_forward(
                model, images, build_photonic_setups(model),
                np.random.default_rng(0), batch_size=2.5),
            "train": lambda: train(
                NetworkModel(seed=0), images[:, None],
                np.zeros(6, dtype=np.int64),
                Hyperparams(epochs=1, batch_size=2.5)),
        }[call]
        with pytest.raises(InvalidSpecError, match="integer"):
            run()

    @pytest.mark.parametrize("bad", [-1, 10, 0.5])
    @pytest.mark.parametrize("call", ["infer_hybrid", "accuracy"])
    def test_label_outside_classes(self, model, samples, call, bad):
        # -1 used to count in the confusion matrix's last row, and 10 or 0.5
        # raised a bare IndexError
        images, labels = samples
        labels = labels.astype(type(bad))
        labels[4] = bad
        with pytest.raises(InvalidSpecError, match="labels must be"):
            if call == "infer_hybrid":
                infer_hybrid(model, images, labels)
            else:
                model.accuracy(images[:, None], labels)

    def test_accuracy_label_count(self, model):
        with pytest.raises(DimensionError, match="labels"):
            model.accuracy(np.zeros((6, 1, 28, 28)), np.zeros(5, dtype=int))

    @pytest.mark.parametrize("call", ["infer_hybrid", "accuracy", "train"])
    def test_column_of_labels(self, model, samples, call):
        # (n, 1) labels used to broadcast: a 6-image confusion matrix
        # summed to 36, and train ran on an (n, n) loss
        images, labels = samples[0][:6], samples[1][:6, None]
        run = {
            "infer_hybrid": lambda: infer_hybrid(model, images, labels),
            "accuracy": lambda: model.accuracy(images[:, None], labels),
            "train": lambda: train(NetworkModel(seed=0), images[:, None],
                                   labels, Hyperparams(epochs=1)),
        }[call]
        with pytest.raises(DimensionError, match="1-D"):
            run()

    def test_hybrid_forward_image_shape(self, model):
        # a channel axis used to end in a bare ValueError from pad_hw
        with pytest.raises(DimensionError, match=r"\(N, 28, 28\)"):
            hybrid_forward(model, np.zeros((4, 1, 28, 28)),
                           build_photonic_setups(model),
                           np.random.default_rng(0))

    @pytest.mark.parametrize("n_setups", [1, 3])
    def test_setup_count(self, model, n_setups):
        # a third setup used to be ignored, a missing one to fail in Dense
        setups = build_photonic_setups(model, neop_dbc=-10.0) * 2
        with pytest.raises(DimensionError, match="setups for 2 conv"):
            hybrid_forward(model, np.zeros((4, 28, 28)), setups[:n_setups],
                           np.random.default_rng(0))

    def test_sweep_imbalance_trials(self, model, samples):
        images, labels = samples
        with pytest.raises(InvalidSpecError, match="trials"):
            sweep_imbalance(model, images, labels, [6.0], trials=0)

    @pytest.mark.parametrize("call, name", [
        ("sweep_noise-levels", "levels_dbc"), ("sweep_noise-seeds", "seeds"),
        ("sweep_imbalance", "levels_db")])
    def test_empty_sweep_list(self, model, samples, monkeypatch, call, name):
        # each used to return [] without a word
        images, labels = samples
        monkeypatch.setattr(hybrid, "infer_hybrid", None)  # no job may run
        run = {
            "sweep_noise-levels": lambda: sweep_noise(
                model, images, labels, [], [0]),
            "sweep_noise-seeds": lambda: sweep_noise(
                model, images, labels, [-10.0], []),
            "sweep_imbalance": lambda: sweep_imbalance(
                model, images, labels, [], trials=2),
        }[call]
        with pytest.raises(InvalidSpecError, match=f"{name} must not be"):
            run()

    @pytest.mark.parametrize("call", [
        "sweep_imbalance-trials", "infer_hybrid-probe_repeats",
        "infer_hybrid-probe_repeats-calibrated", "train-epochs"])
    def test_non_integral_count(self, model, samples, call):
        # trials=2.5 used to end in a bare TypeError from range, and
        # probe_repeats=1.5 to average probe noise over 1.5 * V^2 samples
        images, labels = samples[0][:6], samples[1][:6]
        run = {
            "sweep_imbalance-trials": lambda: sweep_imbalance(
                model, images, labels, [6.0], trials=2.5),
            "infer_hybrid-probe_repeats": lambda: infer_hybrid(
                model, images, labels, probe_repeats=1.5),
            "infer_hybrid-probe_repeats-calibrated": lambda: infer_hybrid(
                model, images, labels, neop_dbc=-10.0, imbalance_db=4.0,
                calibration=True, probe_repeats=1.5),
            "train-epochs": lambda: train(
                NetworkModel(seed=0), images[:, None], labels,
                Hyperparams(epochs=1.5)),
        }[call]
        name = call.split("-")[1]
        with pytest.raises(InvalidSpecError, match=f"{name} must be an int"):
            run()


class TestBadSeedsAndThreads:
    """Seeds must be integers >= 0 and thread counts integers >= 1; both
    used to reach numpy or the thread pool unchecked."""

    @pytest.mark.parametrize("bad", [-1, 2.5])
    @pytest.mark.parametrize("call", [
        "build_photonic_setups", "infer_hybrid", "sweep_noise",
        "sweep_imbalance"])
    def test_seed(self, model, samples, call, bad):
        images, labels = samples[0][:6], samples[1][:6]
        run = {
            "build_photonic_setups": lambda: build_photonic_setups(
                model, seed=bad),
            "infer_hybrid": lambda: infer_hybrid(model, images, labels,
                                                 seed=bad),
            "sweep_noise": lambda: sweep_noise(model, images, labels,
                                               [-10.0], seeds=[0, bad]),
            "sweep_imbalance": lambda: sweep_imbalance(
                model, images, labels, [6.0], trials=1, base_seed=bad),
        }[call]
        with pytest.raises(InvalidSpecError, match="seed must be"):
            run()

    def test_numpy_integer_seed(self, model, samples):
        images, labels = samples
        a = infer_hybrid(model, images, labels, neop_dbc=-10.0,
                         seed=np.int64(3))
        b = infer_hybrid(model, images, labels, neop_dbc=-10.0, seed=3)
        np.testing.assert_array_equal(a.confusion, b.confusion)

    @pytest.mark.parametrize("threads", [0, -1, 2.5])
    @pytest.mark.parametrize("call", ["sweep_noise", "sweep_imbalance"])
    def test_threads(self, model, samples, call, threads):
        images, labels = samples[0][:6], samples[1][:6]
        run = {
            "sweep_noise": lambda: sweep_noise(
                model, images, labels, [-10.0], [0], threads=threads),
            "sweep_imbalance": lambda: sweep_imbalance(
                model, images, labels, [6.0], trials=1, threads=threads),
        }[call]
        with pytest.raises(InvalidSpecError, match="threads must be"):
            run()
