import hashlib

import numpy as np
import pytest

from ipcnn.conv_math import ConvLayerSpec
from ipcnn.hybrid import (
    build_photonic_setups,
    hybrid_forward,
    infer_hybrid,
    sweep_imbalance,
    sweep_noise,
)
from ipcnn.network import NetworkModel


@pytest.fixture(scope="module")
def model():
    return NetworkModel(seed=0)


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
        # recorded from the NCHW-layout code: both the noise order and the
        # GEMM sums are in these bytes (OpenBLAS 0.3.31, AVX-512 x86-64)
        model = NetworkModel(seed=4)
        images = np.random.default_rng(5).random((16, 28, 28))
        setups = build_photonic_setups(model, neop_dbc=-10.0, seed=6)
        logits = hybrid_forward(model, images, setups,
                                np.random.default_rng(7))
        assert logits.dtype == np.float64 and logits.shape == (16, 10)
        assert hashlib.sha256(logits.tobytes()).hexdigest() == (
            "233886428527f2a4521f6ec989a0644ff92eeabc87ac6de01f05f2a8014e3789"
        ), ("pinned on OpenBLAS 0.3.31, AVX-512 x86-64: on another BLAS "
            "build or CPU a mismatch may be the environment, not the code")

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
