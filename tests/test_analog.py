import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipcnn.analog import (
    IDEAL,
    MAX_IMBALANCE_DB,
    AnalogFaultModel,
    apply_calibration,
    calibrate,
    forward_batch,
    probe_path_responses,
    program_weights,
    sample_imbalance,
    standard_normal,
)
from ipcnn.conv_math import (
    ConvLayerSpec,
    build_delayed_matrix,
    conv2d_reference,
    gemm_conv,
    kernels_to_weight_matrix,
    valid_output,
)
from ipcnn.errors import DimensionError, EncodingError, InvalidSpecError
from ipcnn.layers import Conv2D


SPEC = ConvLayerSpec(c_in=2, c_out=3, sigma=3, image_width=8)
EPS = np.finfo(float).eps


def random_instance(seed, spec=SPEC):
    rng = np.random.default_rng(seed)
    x = rng.random((spec.c_in, spec.image_width, spec.image_width))
    w = rng.standard_normal((spec.c_in, spec.c_out, spec.sigma, spec.sigma))
    return x, w


class TestProgramming:
    def test_round_trip(self):
        _, w = random_instance(0)
        prog = program_weights(w, SPEC)
        # (C_I, Q, C_O) settings -> the (C_O, C_I*Q) matrix, columns u*Q + q
        programmed = (prog.settings * prog.rescale).transpose(2, 0, 1)
        np.testing.assert_allclose(
            programmed.reshape(SPEC.c_out, -1),
            kernels_to_weight_matrix(w, SPEC), rtol=1e-14, atol=1e-14)

    def test_settings_bounded(self):
        _, w = random_instance(1)
        prog = program_weights(w * 1e6, SPEC)
        assert np.max(np.abs(prog.settings)) == 1.0
        assert prog.rescale == pytest.approx(1e6 * np.max(np.abs(w)))

    def test_all_zero_kernels(self):
        prog = program_weights(np.zeros((2, 3, 3, 3)), SPEC)
        assert prog.rescale == 1.0
        assert np.all(prog.settings == 0)

    def test_non_finite_rejected(self):
        w = np.zeros((2, 3, 3, 3))
        w[0, 0, 0, 0] = np.inf
        with pytest.raises(InvalidSpecError):
            program_weights(w, SPEC)


class TestIdealForward:
    def test_matches_reference(self):
        x, w = random_instance(2)
        out = forward_batch(x[None], program_weights(w, SPEC), SPEC)[0]
        ref = conv2d_reference(x, w, SPEC)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(out - ref)) / scale < 1e-12

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(3)
        xs = rng.random((4, SPEC.c_in, 8, 8))
        _, w = random_instance(4)
        prog = program_weights(w, SPEC)
        batch = forward_batch(xs, prog, SPEC)
        for i in range(4):
            single = forward_batch(xs[i][None], prog, SPEC)[0]
            np.testing.assert_allclose(batch[i], single, rtol=1e-12,
                                       atol=1e-14)

    def test_empty_batch(self):
        _, w = random_instance(4)
        out = forward_batch(np.zeros((0, SPEC.c_in, 8, 8)),
                            program_weights(w, SPEC), SPEC)
        assert out.shape == (0, SPEC.c_out, 6, 6)

    def test_negative_input_rejected(self):
        _, w = random_instance(5)
        x = -np.ones((1, SPEC.c_in, 8, 8))
        with pytest.raises(EncodingError):
            forward_batch(x, program_weights(w, SPEC), SPEC)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        _, w = random_instance(5)
        x = np.ones((1, SPEC.c_in, 8, 8))
        x[0, 1, 2, 3] = bad
        with pytest.raises(EncodingError, match="non-finite"):
            forward_batch(x, program_weights(w, SPEC), SPEC)

    def test_shape_rejected(self):
        _, w = random_instance(6)
        with pytest.raises(DimensionError):
            forward_batch(np.ones((1, SPEC.c_in, 7, 8)),
                          program_weights(w, SPEC), SPEC)

    @pytest.mark.parametrize("pad", [0, 1])
    def test_unit_gains_match_digital_conv(self, pad):
        # the digital layer and the analog model share one im2col lowering
        rng = np.random.default_rng(7)
        layer = Conv2D(SPEC.c_in, SPEC.c_out, kernel=SPEC.sigma, pad=pad,
                       rng=rng)
        layer.b[...] = rng.standard_normal(SPEC.c_out)
        x = rng.random((3, SPEC.c_in, 8 - 2 * pad, 8 - 2 * pad))
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        prog = program_weights(layer.w.transpose(1, 0, 2, 3), SPEC)
        out = forward_batch(xp, prog, SPEC)
        ref = layer.forward(x) - layer.b[None, :, None, None]
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(out - ref)) / scale < 1e-12


class TestNoise:
    def test_sigma_from_dbc(self):
        faults = AnalogFaultModel(neop_dbc=-10.0)
        assert faults.noise_sigma(SPEC) == pytest.approx(0.1, rel=1e-12)
        assert AnalogFaultModel().noise_sigma(SPEC) == 0.0

    @pytest.mark.parametrize("level", [np.nan, np.inf, 3080.0])
    def test_bad_level_rejected(self, level):
        # NaN used to act as noise off, +inf to fail later as an encoding
        # error, and 10**(3080/10) overflows a float
        with pytest.raises(InvalidSpecError, match="noise level"):
            AnalogFaultModel(neop_dbc=level)

    def test_output_noise_moments(self):
        # zero input: the output is the summed noise of Q branches of
        # variance 0.01 each, scaled by the digital rescale
        _, w = random_instance(11)
        prog = program_weights(w, SPEC)
        faults = AnalogFaultModel(neop_dbc=-10.0)
        x = np.zeros((200, SPEC.c_in, 8, 8))
        out = forward_batch(x, prog, SPEC, faults,
                            rng=np.random.default_rng(11))
        expected = SPEC.q * 0.1 ** 2 * prog.rescale ** 2
        assert out.size > 2e4
        assert abs(np.mean(out)) < 5 * np.sqrt(expected / out.size)
        assert np.var(out) == pytest.approx(expected, rel=0.05)

    def test_deterministic_given_seed(self):
        x, w = random_instance(8)
        prog = program_weights(w, SPEC)
        faults = AnalogFaultModel(neop_dbc=-15.0)
        a = forward_batch(x[None], prog, SPEC, faults,
                          rng=np.random.default_rng(42))[0]
        b = forward_batch(x[None], prog, SPEC, faults,
                          rng=np.random.default_rng(42))[0]
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        x, w = random_instance(9)
        prog = program_weights(w, SPEC)
        faults = AnalogFaultModel(neop_dbc=-15.0)
        a = forward_batch(x[None], prog, SPEC, faults,
                          rng=np.random.default_rng(1))[0]
        b = forward_batch(x[None], prog, SPEC, faults,
                          rng=np.random.default_rng(2))[0]
        assert not np.array_equal(a, b)

    def test_output_noise_scales_with_rescale(self):
        # the digital rescale multiplies branch noise into the output
        x = np.zeros((1, SPEC.c_in, 8, 8))
        rng = np.random.default_rng(0)
        w = rng.standard_normal((2, 3, 3, 3))
        small = program_weights(w, SPEC)
        big = program_weights(10 * w, SPEC)
        faults = AnalogFaultModel(neop_dbc=-10.0)
        out_small = forward_batch(x, small, SPEC, faults,
                                  rng=np.random.default_rng(5))
        out_big = forward_batch(x, big, SPEC, faults,
                                rng=np.random.default_rng(5))
        np.testing.assert_allclose(out_big, 10 * out_small, rtol=1e-12)


@settings(max_examples=60, deadline=None)
# a near-cancelling output: |y - ref| = 1.2e-15 on max|ref| = 8.4e-4, well
# within rounding but above 1e-12 relative to max|ref|
@example(c_in=2, c_out=1, sigma=5, extra=0, level_db=0.001, data_seed=2)
@given(
    c_in=st.integers(1, 4),
    c_out=st.integers(1, 4),
    sigma=st.sampled_from([1, 2, 3, 5]),
    extra=st.integers(0, 9),
    level_db=st.floats(0.0, 10.0),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_forward_batch_matches_delay_line_oracle(c_in, c_out, sigma, extra,
                                                 level_db, data_seed):
    width = min(sigma + extra, 10)
    spec = ConvLayerSpec(c_in, c_out, sigma, width)
    rng = np.random.default_rng(data_seed)
    xs = rng.random((2, c_in, width, width))
    w = rng.standard_normal((c_in, c_out, sigma, sigma))
    if c_in * spec.q * c_out < 2:
        level_db = 0.0
    gains = sample_imbalance(spec, level_db, seed=data_seed)
    prog = program_weights(w, spec)
    out = forward_batch(xs, prog, spec, AnalogFaultModel(path_gains=gains))
    # (C_I, Q, C_O) -> W_eff of shape (C_O, C_I*Q), rows ordered u*Q + q
    w_eff = (gains * prog.settings).transpose(2, 0, 1).reshape(c_out, -1)
    # Both routes sum the C_I*Q terms of each output in their own order and
    # round the rescale product once, so each output is within
    # 2 * gamma_{C_I*Q+1} of the sum of its absolute terms.
    n = c_in * spec.q + 1
    gamma = n * EPS / 2 / (1 - n * EPS / 2)
    for x, y in zip(xs, out):
        delayed = build_delayed_matrix(x, spec)
        ref = prog.rescale * valid_output(gemm_conv(w_eff, delayed), delayed)
        magnitude = prog.rescale * valid_output(
            gemm_conv(np.abs(w_eff), delayed), delayed)
        assert np.all(np.abs(y - ref) <= 2 * gamma * magnitude)


class TestImbalance:
    def test_exact_level(self):
        gains = sample_imbalance(SPEC, 6.0, seed=3)
        ratio_db = 10 * np.log10(gains.max() / gains.min())
        assert ratio_db == pytest.approx(6.0, abs=1e-12)

    def test_subnormal_level_gives_finite_gains(self):
        gains = sample_imbalance(SPEC, 5e-324, seed=0)
        np.testing.assert_array_equal(gains, np.ones((2, 9, 3)))

    def test_zero_level_is_unity(self):
        np.testing.assert_array_equal(sample_imbalance(SPEC, 0.0, seed=0),
                                      np.ones((2, 9, 3)))

    def test_negative_level_rejected(self):
        with pytest.raises(InvalidSpecError):
            sample_imbalance(SPEC, -1.0, seed=0)

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, level):
        with pytest.raises(InvalidSpecError, match="imbalance level"):
            sample_imbalance(SPEC, level, seed=0)

    @pytest.mark.parametrize("level", [
        np.nextafter(MAX_IMBALANCE_DB, 0), MAX_IMBALANCE_DB])
    def test_levels_up_to_ceiling_give_finite_gains(self, level):
        gains = sample_imbalance(SPEC, level, seed=5)
        assert np.all(np.isfinite(gains)) and gains.min() > 0
        ratio_db = 10 * np.log10(gains.max() / gains.min())
        assert ratio_db == pytest.approx(level, rel=1e-12)

    @pytest.mark.parametrize("level", [
        np.nextafter(MAX_IMBALANCE_DB, np.inf), 5000.0])
    def test_level_above_ceiling_rejected(self, level):
        with pytest.raises(InvalidSpecError, match="imbalance level"):
            sample_imbalance(SPEC, level, seed=0)

    def test_single_path_rejected(self):
        spec = ConvLayerSpec(1, 1, 1, 4)
        with pytest.raises(InvalidSpecError):
            sample_imbalance(spec, 3.0, seed=0)

    def test_gain_shape_checked(self):
        faults = AnalogFaultModel(path_gains=np.ones((1, 9, 3)))
        with pytest.raises(DimensionError):
            faults.gains(SPEC)


class TestCalibration:
    def test_noiseless_probe_returns_gains(self):
        gains = sample_imbalance(SPEC, 8.0, seed=6)
        faults = AnalogFaultModel(path_gains=gains)
        np.testing.assert_array_equal(probe_path_responses(SPEC, faults),
                                      gains)

    def test_noiseless_calibration_exact(self):
        x, w = random_instance(10)
        gains = sample_imbalance(SPEC, 10.0, seed=7)
        faults = AnalogFaultModel(path_gains=gains)
        prog = program_weights(w, SPEC)
        table = calibrate(SPEC, faults)
        assert table.residual < 1e-12
        fixed = apply_calibration(prog, table)
        out = forward_batch(x[None], fixed, SPEC, faults)[0]
        ref = conv2d_reference(x, w, SPEC)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(out - ref)) / scale < 1e-9

    def test_calibration_keeps_settings_bounded(self):
        _, w = random_instance(11)
        gains = sample_imbalance(SPEC, 10.0, seed=8)
        table = calibrate(SPEC, AnalogFaultModel(path_gains=gains))
        fixed = apply_calibration(program_weights(w, SPEC), table)
        assert np.max(np.abs(fixed.settings)) <= 1.0 + 1e-12
        assert fixed.rescale >= program_weights(w, SPEC).rescale

    def test_probe_averaging(self):
        # probe error shrinks like 1/sqrt(N averages)
        faults = AnalogFaultModel(neop_dbc=-10.0)
        rms = {}
        for repeats in (1, 16, 256):
            rng = np.random.default_rng(1234)
            errs = []
            for _ in range(40):
                measured = probe_path_responses(SPEC, faults, rng=rng,
                                                repeats=repeats)
                errs.append(measured - 1.0)
            rms[repeats] = float(np.sqrt(np.mean(np.square(errs))))
        assert rms[16] == pytest.approx(rms[1] / 4, rel=0.25)
        assert rms[256] == pytest.approx(rms[1] / 16, rel=0.25)

    def test_noisy_calibration_accuracy(self):
        # 64 repeats over V^2 = 36 valid samples: gain error well under 1%
        gains = sample_imbalance(SPEC, 6.0, seed=12)
        faults = AnalogFaultModel(neop_dbc=-10.0, path_gains=gains)
        table = calibrate(SPEC, faults, repeats=64,
                          rng=np.random.default_rng(77))
        rel = np.abs(table.estimated_gains / gains - 1.0)
        assert np.max(rel) < 0.01

    def test_probe_unbiased(self):
        # bias of the probe estimator stays well under the per-probe RMS
        faults = AnalogFaultModel(neop_dbc=-10.0)
        rng = np.random.default_rng(99)
        samples = [probe_path_responses(SPEC, faults, rng=rng)
                   for _ in range(300)]
        err = np.mean(samples) - 1.0
        per_probe_rms = 0.1 / np.sqrt(SPEC.valid_width ** 2)
        # mean of 300 probes: CLT bound is ~12 sigma, far below per-probe RMS
        assert abs(err) < 0.1 * per_probe_rms

    def test_invalid_repeats(self):
        with pytest.raises(InvalidSpecError):
            probe_path_responses(SPEC, IDEAL, repeats=0)

    @pytest.mark.parametrize("repeats", [1.5, 2.0])
    @pytest.mark.parametrize("call", [probe_path_responses, calibrate],
                             ids=["probe_path_responses", "calibrate"])
    def test_non_integral_repeats(self, call, repeats):
        # 1.5 used to average the probe noise over 1.5 * V^2 samples
        faults = AnalogFaultModel(neop_dbc=-10.0)
        with pytest.raises(InvalidSpecError, match="repeats must be an int"):
            call(SPEC, faults, repeats=repeats,
                 rng=np.random.default_rng(0))


class TestGenerator:
    """A noisy draw takes the caller's generator; there is no fallback."""

    NOISY = AnalogFaultModel(neop_dbc=-10.0)

    @pytest.mark.parametrize("call", [
        lambda f: forward_batch(np.zeros((1, 2, 8, 8)),
                                program_weights(random_instance(0)[1], SPEC),
                                SPEC, f),
        lambda f: probe_path_responses(SPEC, f),
        lambda f: calibrate(SPEC, f, repeats=4),
    ], ids=["forward_batch", "probe_path_responses", "calibrate"])
    def test_noisy_call_needs_a_generator(self, call):
        with pytest.raises(InvalidSpecError, match="generator"):
            call(self.NOISY)
        call(IDEAL)  # noiseless: no generator needed


class CountingGenerator:
    """A generator that records the size of every ``random`` call."""

    def __init__(self, seed):
        self._rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size=None, dtype=np.float64):
        self.sizes.append(size)
        return self._rng.random(size, dtype=dtype)


class FixedUniforms:
    """Answers every ``random`` call with one float32 value."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None, dtype=np.float64):
        return np.full(size, self.value, dtype=dtype)


class TestStandardNormal:
    """The Box-Muller sampler behind every Gaussian value, at fixed seeds."""

    # sqrt(2 ln 2**24): the radius when 1 - u is float32's 2**-24
    BOUND = math.sqrt(2 * math.log(2 ** 24))

    @pytest.fixture(scope="class")
    def draws(self):
        return standard_normal(np.random.default_rng(20), 2_000_001)

    def test_moments(self, draws):
        # bounds at 5 standard errors of 2e6 Gaussian values: the mean's
        # 1/sqrt(n), the variance's sqrt(2/n), the excess kurtosis's
        # sqrt(24/n)
        n = draws.size
        z = draws.astype(np.float64)
        mean, var = z.mean(), z.var()
        kurtosis = np.mean((z - mean) ** 4) / var ** 2 - 3.0
        assert draws.dtype == np.float32 and n == 2_000_001
        assert abs(mean) < 5 / math.sqrt(n)
        assert abs(var - 1.0) < 5 * math.sqrt(2 / n)
        assert abs(kurtosis) < 5 * math.sqrt(24 / n)

    def test_kolmogorov_smirnov_distance(self, draws):
        # the 0.1 % critical distance is 1.95 / sqrt(n)
        z = np.sort(draws.astype(np.float64))
        phi = np.frompyfunc(lambda x: 0.5 * math.erfc(-x / math.sqrt(2)),
                            1, 1)(z).astype(np.float64)
        n = z.size
        steps = np.arange(1, n + 1) / n
        distance = max(np.max(steps - phi), np.max(phi - (steps - 1 / n)))
        assert distance < 1.95 / math.sqrt(n)

    def test_no_value_beyond_the_bound(self, draws):
        assert np.max(np.abs(draws)) <= self.BOUND

    @pytest.mark.parametrize("u", [0.0, np.float32(1 - 2 ** -24)],
                             ids=["zero", "largest"])
    def test_extreme_uniforms(self, u):
        # u = 0 gives radius 0; float32's largest uniform gives the bound,
        # at angle 2 pi (1 - 2**-24), so the cosine value is the bound
        z = standard_normal(FixedUniforms(u), 4)
        assert np.all(np.isfinite(z))
        if u == 0:
            np.testing.assert_array_equal(z, 0.0)
        else:
            assert z[0] == pytest.approx(self.BOUND, rel=1e-6)
            assert np.max(np.abs(z)) <= self.BOUND

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 10])
    def test_one_call_per_draw(self, n):
        # an odd count takes one more uniform than it returns
        rng = CountingGenerator(3)
        z = standard_normal(rng, n)
        assert z.shape == (n,) and rng.sizes == [n + n % 2]
        np.testing.assert_array_equal(
            standard_normal(np.random.default_rng(3), n), z)

    def test_odd_count_per_image(self):
        # c_out = 1 and a 3x3 valid output: 9 values per image, the block
        # one call of 10 uniforms per image, image by image in row order
        spec = ConvLayerSpec(c_in=1, c_out=1, sigma=3, image_width=5)
        programming = program_weights(np.ones((1, 1, 3, 3)), spec)
        faults = AnalogFaultModel(neop_dbc=-10.0)
        x = np.random.default_rng(4).random((3, 1, 5, 5))
        rng = CountingGenerator(5)
        noisy = forward_batch(x, programming, spec, faults, rng=rng)
        clean = forward_batch(x, programming, spec, IDEAL)
        assert rng.sizes == [(3, 10)]
        std = programming.rescale * faults.noise_sigma(spec) * 3.0
        reference = np.random.default_rng(5)
        for image in range(3):
            draw = standard_normal(reference, 9).reshape(1, 3, 3)
            np.testing.assert_array_equal(
                noisy[image], clean[image] + std * draw.astype(np.float64))

    def test_zero_image_block(self):
        spec = ConvLayerSpec(c_in=2, c_out=3, sigma=3, image_width=8)
        programming = program_weights(random_instance(0)[1], spec)
        rng = CountingGenerator(0)
        out = forward_batch(np.zeros((0, 2, 8, 8)), programming, spec,
                            AnalogFaultModel(neop_dbc=-10.0), rng=rng)
        assert out.shape == (0, 3, 6, 6) and rng.sizes == []

    def test_probe_noise_is_one_draw(self):
        faults = AnalogFaultModel(neop_dbc=-10.0)
        rng = CountingGenerator(6)
        measured = probe_path_responses(SPEC, faults, rng=rng, repeats=4)
        assert rng.sizes == [SPEC.c_in * SPEC.q * SPEC.c_out]
        z = standard_normal(np.random.default_rng(6), measured.size)
        scale = faults.noise_sigma(SPEC) / np.sqrt(4 * SPEC.valid_width ** 2)
        np.testing.assert_array_equal(
            measured, 1.0 + scale * z.astype(np.float64).reshape(
                measured.shape))
