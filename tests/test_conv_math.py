import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcnn.conv_math import (
    ConvLayerSpec,
    build_delayed_matrix,
    conv2d_reference,
    delay_offsets,
    deserialize,
    gemm_conv,
    im2col_oracle,
    kernels_to_weight_matrix,
    physical_delay,
    serialize,
    valid_output,
)
from ipcnn.errors import DimensionError, InvalidSpecError
from ipcnn.verify import run_equivalence_suite


def loop_conv_oracle(x, w, c_in, c_out, sigma, width):
    """Scalar triple-loop convolution, written independently of the package."""
    v_w = width - sigma + 1
    y = np.zeros((c_out, v_w, v_w))
    for v in range(c_out):
        for m in range(v_w):
            for n in range(v_w):
                acc = 0.0
                for u in range(c_in):
                    for i in range(sigma):
                        for j in range(sigma):
                            acc += w[u][v][i][j] * x[u][m + i][n + j]
                y[v, m, n] = acc
    return y


def loop_delayed_matrix(x, spec):
    """One row per (channel, tap): the per-pair loop the oracle replaced."""
    n_samples = spec.image_width ** 2
    width = n_samples + spec.d_max
    data = np.zeros((spec.c_in * spec.q, width))
    for u in range(spec.c_in):
        stream = serialize(x[u])
        for q, d_q in enumerate(delay_offsets(spec.sigma, spec.image_width)):
            d = spec.d_max - d_q
            data[u * spec.q + q, d:d + n_samples] = stream
    valid = np.zeros(width, dtype=bool)
    m = np.arange(spec.image_width - spec.sigma + 1)
    cols = (m[:, None] * spec.image_width + m[None, :]).reshape(-1)
    valid[cols + spec.d_max] = True
    return data, valid


def loop_im2col(x, spec):
    """One patch copy per (channel, output position)."""
    v_w = spec.valid_width
    cols = np.zeros((spec.c_in * spec.q, v_w * v_w))
    for u in range(spec.c_in):
        for m in range(v_w):
            for n in range(v_w):
                patch = x[u, m:m + spec.sigma, n:n + spec.sigma]
                cols[u * spec.q:(u + 1) * spec.q, m * v_w + n] = patch.reshape(-1)
    return cols


class TestConv2dReference:
    def test_all_ones_3x3(self):
        spec = ConvLayerSpec(1, 1, 3, 3)
        out = conv2d_reference(np.ones((1, 3, 3)), np.ones((1, 1, 3, 3)), spec)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.0

    def test_identity_kernel(self):
        spec = ConvLayerSpec(1, 1, 1, 5)
        rng = np.random.default_rng(0)
        x = rng.random((1, 5, 5))
        out = conv2d_reference(x, np.ones((1, 1, 1, 1)), spec)
        np.testing.assert_array_equal(out, x)

    def test_against_loop_oracle(self):
        spec = ConvLayerSpec(2, 3, 3, 6)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 6, 6))
        w = rng.standard_normal((2, 3, 3, 3))
        expected = loop_conv_oracle(x, w, 2, 3, 3, 6)
        np.testing.assert_allclose(conv2d_reference(x, w, spec), expected,
                                   rtol=1e-12, atol=1e-12)

    def test_shape_error_names_axis(self):
        spec = ConvLayerSpec(2, 3, 3, 6)
        with pytest.raises(DimensionError, match="channel"):
            conv2d_reference(np.ones((1, 6, 6)), np.ones((2, 3, 3, 3)), spec)
        with pytest.raises(DimensionError, match="out-channel"):
            conv2d_reference(np.ones((2, 6, 6)), np.ones((2, 4, 3, 3)), spec)


class TestSerialize:
    def test_row_major_2x2(self):
        np.testing.assert_array_equal(
            serialize(np.array([[1.0, 2.0], [3.0, 4.0]])), [1, 2, 3, 4])

    def test_index_formula(self):
        # position (m, n) = (2, 3) with L = 6 lands at s = 2*6 + 3 = 15
        img = np.zeros((6, 6))
        img[2, 3] = 7.0
        assert serialize(img)[15] == 7.0

    def test_round_trip_28x28(self):
        rng = np.random.default_rng(1)
        img = rng.random((28, 28))
        np.testing.assert_array_equal(deserialize(serialize(img), 28), img)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            serialize(np.ones((3, 4)))


class TestDelayOffsets:
    def test_fig2_dimensions(self):
        np.testing.assert_array_equal(
            delay_offsets(3, 6), [0, 1, 2, 6, 7, 8, 12, 13, 14])

    def test_single_tap(self):
        np.testing.assert_array_equal(delay_offsets(1, 10), [0])

    def test_width_28(self):
        np.testing.assert_array_equal(
            delay_offsets(3, 28), [0, 1, 2, 28, 29, 30, 56, 57, 58])

    def test_strictly_increasing_and_max(self):
        for sigma, width in [(2, 4), (3, 8), (5, 16)]:
            offsets = delay_offsets(sigma, width)
            assert np.all(np.diff(offsets) > 0)
            assert offsets[-1] == (sigma - 1) * (width + 1)

    def test_width_below_sigma_rejected(self):
        with pytest.raises(InvalidSpecError):
            delay_offsets(3, 2)


class TestDelayedMatrix:
    def test_sigma_one_is_plain_serialization(self):
        spec = ConvLayerSpec(1, 1, 1, 4)
        rng = np.random.default_rng(3)
        x = rng.random((1, 4, 4))
        delayed = build_delayed_matrix(x, spec)
        assert delayed.data.shape == (1, 16)
        np.testing.assert_array_equal(delayed.data[0], serialize(x[0]))
        assert delayed.valid_mask.sum() == 16

    def test_fig2_valid_count(self):
        spec = ConvLayerSpec(1, 1, 3, 6)
        delayed = build_delayed_matrix(np.ones((1, 6, 6)), spec)
        assert delayed.valid_mask.sum() == 16
        assert delayed.data.shape == (9, 36 + 14)

    def test_delayed_width(self):
        # Q delayed copies per channel; the stream grows by D_max samples
        spec = ConvLayerSpec(2, 3, 3, 8)
        delayed = build_delayed_matrix(np.ones((2, 8, 8)), spec)
        assert delayed.data.shape == (spec.c_in * spec.q,
                                      spec.image_width ** 2 + spec.d_max)

    def test_valid_part_equals_im2col(self):
        spec = ConvLayerSpec(2, 1, 3, 8)
        rng = np.random.default_rng(4)
        x = rng.random((2, 8, 8))
        delayed = build_delayed_matrix(x, spec)
        np.testing.assert_array_equal(
            delayed.data[:, delayed.valid_mask], im2col_oracle(x, spec))


class TestIm2col:
    def test_sigma_equals_width_single_patch(self):
        spec = ConvLayerSpec(1, 1, 4, 4)
        rng = np.random.default_rng(5)
        x = rng.random((1, 4, 4))
        cols = im2col_oracle(x, spec)
        assert cols.shape == (16, 1)
        np.testing.assert_array_equal(cols[:, 0], x.reshape(-1))

    def test_fig2_shape(self):
        spec = ConvLayerSpec(1, 1, 3, 6)
        cols = im2col_oracle(np.ones((1, 6, 6)), spec)
        assert cols.shape == (9, 16)


class TestGemmConv:
    def test_identity(self):
        spec = ConvLayerSpec(1, 1, 1, 5)
        rng = np.random.default_rng(6)
        x = rng.random((1, 5, 5))
        delayed = build_delayed_matrix(x, spec)
        y = gemm_conv(np.ones((1, 1)), delayed)
        np.testing.assert_array_equal(y[0, delayed.valid_mask], serialize(x[0]))

    def test_matches_reference(self):
        spec = ConvLayerSpec(2, 3, 3, 6)
        rng = np.random.default_rng(7)
        x = rng.random((2, 6, 6))
        w = rng.standard_normal((2, 3, 3, 3))
        delayed = build_delayed_matrix(x, spec)
        y = valid_output(gemm_conv(kernels_to_weight_matrix(w, spec), delayed),
                         delayed)
        ref = conv2d_reference(x, w, spec)
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)

    def test_all_ones_two_channels(self):
        spec = ConvLayerSpec(2, 1, 3, 5)
        delayed = build_delayed_matrix(np.ones((2, 5, 5)), spec)
        y = valid_output(
            gemm_conv(kernels_to_weight_matrix(np.ones((2, 1, 3, 3)), spec),
                      delayed), delayed)
        np.testing.assert_array_equal(y, np.full((1, 3, 3), 18.0))

    def test_weight_shape_error(self):
        spec = ConvLayerSpec(2, 3, 3, 6)
        delayed = build_delayed_matrix(np.ones((2, 6, 6)), spec)
        with pytest.raises(DimensionError):
            gemm_conv(np.ones((3, 17)), delayed)

    def test_linearity_in_weights(self):
        spec = ConvLayerSpec(2, 2, 2, 5)
        rng = np.random.default_rng(8)
        x = rng.random((2, 5, 5))
        delayed = build_delayed_matrix(x, spec)
        w1 = rng.standard_normal((2, 8))
        w2 = rng.standard_normal((2, 8))
        a, b = 0.7, -1.3
        combined = gemm_conv(a * w1 + b * w2, delayed)
        np.testing.assert_allclose(
            combined, a * gemm_conv(w1, delayed) + b * gemm_conv(w2, delayed),
            rtol=1e-12, atol=1e-12)


class TestPhysicalDelay:
    def test_paper_rate(self):
        time, _ = physical_delay(28, 5e9, 1.5e8)
        assert time == pytest.approx(5.6e-9, rel=1e-12)

    def test_zero_delay(self):
        assert physical_delay(0, 5e9, 1.5e8) == (0.0, 0.0)

    def test_length(self):
        _, length = physical_delay(28, 5e9, 1.5e8)
        assert length == pytest.approx(0.84, rel=1e-12)

    def test_nonpositive_rate(self):
        with pytest.raises(InvalidSpecError):
            physical_delay(1, 0.0, 1.5e8)


@settings(max_examples=60, deadline=None)
@given(
    c_in=st.integers(1, 8),
    c_out=st.integers(1, 8),
    sigma=st.sampled_from([1, 2, 3, 5]),
    extra=st.integers(0, 11),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_equivalence_theorem(c_in, c_out, sigma, extra, data_seed):
    width = min(sigma + extra, 16)
    spec = ConvLayerSpec(c_in, c_out, sigma, width)
    rng = np.random.default_rng(data_seed)
    x = rng.random((c_in, width, width))
    w = rng.standard_normal((c_in, c_out, sigma, sigma))
    delayed = build_delayed_matrix(x, spec)
    np.testing.assert_array_equal(
        delayed.data[:, delayed.valid_mask], im2col_oracle(x, spec))
    y = valid_output(gemm_conv(kernels_to_weight_matrix(w, spec), delayed),
                     delayed)
    ref = conv2d_reference(x, w, spec)
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)


sigma_and_width = st.sampled_from([1, 2, 3, 5]).flatmap(
    lambda sigma: st.tuples(st.just(sigma), st.integers(sigma, 16)))


class TestExactRoutes:
    """The sliced oracle routes equal the loop references bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(c_in=st.integers(1, 8), sigma_width=sigma_and_width,
           data_seed=st.integers(0, 2**32 - 1))
    def test_slices_equal_loops(self, c_in, sigma_width, data_seed):
        sigma, width = sigma_width
        spec = ConvLayerSpec(c_in, 1, sigma, width)
        x = np.random.default_rng(data_seed).standard_normal(
            (c_in, width, width))
        delayed = build_delayed_matrix(x, spec)
        data, valid = loop_delayed_matrix(x, spec)
        assert np.array_equal(delayed.data, data)
        assert np.array_equal(delayed.valid_mask, valid)
        assert np.array_equal(im2col_oracle(x, spec), loop_im2col(x, spec))

    def test_suite_digest_pinned(self):
        result = run_equivalence_suite(instances=200, seed=0)
        assert result.passed
        assert result.digest == ("96ad09dd2968521a06cccb53475a1b2d"
                                 "aa419548d1833d8812a3cbb8853bd505")

    def test_corruption_first_failure(self):
        result = run_equivalence_suite(instances=200, seed=0,
                                       corrupt_delay_offsets=True)
        assert not result.passed
        failure = result.first_failure
        assert (failure["instance"], failure["row"], failure["column"]) == (
            0, 24, 0)
