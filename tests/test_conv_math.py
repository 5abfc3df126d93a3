import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcnn.conv_math import (
    ConvLayerSpec,
    _valid_columns,
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


def valid_index(spec):
    """The columns ``_valid_columns`` selects from a row of X', in order."""
    width = spec.image_width ** 2 + spec.d_max
    return _valid_columns(np.arange(width), spec).reshape(-1)


def assert_valid_index(spec):
    """``_valid_columns`` selects exactly the loop reference's valid mask."""
    _, valid = loop_delayed_matrix(np.zeros((spec.c_in,) + (
        spec.image_width,) * 2), spec)
    np.testing.assert_array_equal(valid_index(spec), np.flatnonzero(valid))


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


class TestConvLayerSpec:
    @pytest.mark.parametrize("field", ["c_in", "c_out", "sigma",
                                       "image_width"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.nan])
    def test_non_integer_rejected(self, field, value):
        fields = dict(c_in=2, c_out=2, sigma=2, image_width=4)
        fields[field] = value
        with pytest.raises(InvalidSpecError, match=f"{field} must be an "
                                                   "integer"):
            ConvLayerSpec(**fields)

    @pytest.mark.parametrize("fields, message", [
        (dict(c_in=0), "c_in must be >= 1, got 0"),
        (dict(c_out=-1), "c_out must be >= 1, got -1"),
        (dict(sigma=0), "sigma must be >= 1, got 0"),
        (dict(sigma=1, image_width=0), "image_width 0 < sigma 1"),
        (dict(image_width=1), "image_width 1 < sigma 2"),
    ])
    def test_small_values_keep_messages(self, fields, message):
        with pytest.raises(InvalidSpecError, match=message):
            ConvLayerSpec(**{**dict(c_in=2, c_out=2, sigma=2, image_width=4),
                             **fields})

    def test_numpy_integers_accepted(self):
        spec = ConvLayerSpec(np.int64(2), np.int32(3), np.int64(3), 5)
        assert (spec.q, spec.valid_width) == (9, 3)


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

    @pytest.mark.parametrize("sigma, width, message", [
        (2.5, 6, "sigma must be an integer, got 2.5"),
        (3.0, 6, "sigma must be an integer, got 3.0"),
        (0, 6, "sigma must be >= 1, got 0"),
        (3, np.nan, "image_width must be an integer, got nan"),
        (3, 6.0, "image_width must be an integer, got 6.0"),
        (3, 2, "image_width must be >= 3, got 2"),
    ])
    def test_bad_argument_rejected(self, sigma, width, message):
        with pytest.raises(InvalidSpecError, match=message):
            delay_offsets(sigma, width)

    def test_numpy_integers_accepted(self):
        np.testing.assert_array_equal(delay_offsets(np.int64(3), np.int32(6)),
                                      delay_offsets(3, 6))


class TestDelayedMatrix:
    def test_sigma_one_is_plain_serialization(self):
        spec = ConvLayerSpec(1, 1, 1, 4)
        rng = np.random.default_rng(3)
        x = rng.random((1, 4, 4))
        delayed = build_delayed_matrix(x, spec)
        assert delayed.data.shape == (1, 16)
        np.testing.assert_array_equal(delayed.data[0], serialize(x[0]))
        assert valid_index(spec).size == 16
        assert_valid_index(spec)

    def test_fig2_valid_count(self):
        spec = ConvLayerSpec(1, 1, 3, 6)
        delayed = build_delayed_matrix(np.ones((1, 6, 6)), spec)
        assert valid_index(spec).size == 16
        assert_valid_index(spec)
        assert delayed.data.shape == (9, 36 + 14)

    @pytest.mark.parametrize("sigma", [1, 2, 3, 5])
    @pytest.mark.parametrize("extra", [0, 1, 4, 11])
    def test_valid_columns_are_loop_mask(self, sigma, extra):
        assert_valid_index(ConvLayerSpec(2, 1, sigma, sigma + extra))

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
        assert_valid_index(spec)
        np.testing.assert_array_equal(
            delayed.data[:, valid_index(spec)], im2col_oracle(x, spec))


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
        assert_valid_index(spec)
        np.testing.assert_array_equal(y[0, valid_index(spec)], serialize(x[0]))

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

    @pytest.mark.parametrize("shape", [(3, 51), (3, 49), (2, 50), (150,)])
    def test_valid_output_shape_error(self, shape):
        # X' is 36 + 14 = 50 columns wide
        spec = ConvLayerSpec(2, 3, 3, 6)
        delayed = build_delayed_matrix(np.ones((2, 6, 6)), spec)
        with pytest.raises(DimensionError, match="Y' shape"):
            valid_output(np.ones(shape), delayed)

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

    @pytest.mark.parametrize("f_m", [np.nan, np.inf])
    def test_non_finite_rate(self, f_m):
        with pytest.raises(InvalidSpecError, match="modulation rate"):
            physical_delay(1, f_m, 1.5e8)

    @pytest.mark.parametrize("velocity", [0.0, -1.5e8, np.nan, np.inf])
    def test_bad_group_velocity(self, velocity):
        with pytest.raises(InvalidSpecError, match="group velocity"):
            physical_delay(1, 5e9, velocity)


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
    assert_valid_index(spec)
    np.testing.assert_array_equal(
        delayed.data[:, valid_index(spec)], im2col_oracle(x, spec))
    y = valid_output(gemm_conv(kernels_to_weight_matrix(w, spec), delayed),
                     delayed)
    ref = conv2d_reference(x, w, spec)
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)


sigma_and_width = st.sampled_from([1, 2, 3, 5]).flatmap(
    lambda sigma: st.tuples(st.just(sigma), st.integers(sigma, 16)))


def _conv_and_matrices(x, w, spec):
    """Every route's output for images x and kernels w."""
    delayed = build_delayed_matrix(x, spec)
    y = valid_output(gemm_conv(kernels_to_weight_matrix(w, spec), delayed),
                     delayed)
    return (delayed.data, im2col_oracle(x, spec), conv2d_reference(x, w, spec),
            y)


class TestExactRoutes:
    """The strided oracle routes equal the loop references bit for bit."""

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
        assert np.array_equal(valid_index(spec), np.flatnonzero(valid))
        assert np.array_equal(im2col_oracle(x, spec), loop_im2col(x, spec))

    @pytest.mark.parametrize("sigma", [1, 2, 3, 5])
    @pytest.mark.parametrize("extra", [0, 1, 4])
    def test_every_sigma_equals_loops(self, sigma, extra):
        # extra = 0 is the single-patch case, width = sigma
        width = sigma + extra
        spec = ConvLayerSpec(3, 2, sigma, width)
        rng = np.random.default_rng(10 * sigma + extra)
        x = rng.standard_normal((3, width, width))
        w = rng.standard_normal((3, 2, sigma, sigma))
        data, cols, ref, y = _conv_and_matrices(x, w, spec)
        loop_data, loop_valid = loop_delayed_matrix(x, spec)
        assert np.array_equal(data, loop_data)
        assert np.array_equal(valid_index(spec), np.flatnonzero(loop_valid))
        assert np.array_equal(cols, loop_im2col(x, spec))
        expected = loop_conv_oracle(x, w, 3, 2, sigma, width)
        np.testing.assert_allclose(ref, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("view", [
        lambda a: np.asfortranarray(a),
        lambda a: a[:, ::-1].copy()[:, ::-1],
        lambda a: a.transpose(0, 2, 1).copy().transpose(0, 2, 1),
        lambda a: np.repeat(a, 2, axis=2)[:, :, ::2],
    ], ids=["fortran", "reversed-rows", "transposed", "strided"])
    def test_non_contiguous_images(self, view):
        spec = ConvLayerSpec(3, 2, 3, 7)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 7, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        x_view = view(x)
        assert np.array_equal(x_view, x)
        assert not x_view.flags.c_contiguous
        for got, want in zip(_conv_and_matrices(x_view, w, spec),
                             _conv_and_matrices(x, w, spec)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sigma, width", [(1, 4), (3, 3), (3, 7)])
    def test_outputs_contiguous_and_unaliased(self, sigma, width):
        spec = ConvLayerSpec(2, 2, sigma, width)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, width, width))
        w = rng.standard_normal((2, 2, sigma, sigma))
        before = x.copy()
        outputs = _conv_and_matrices(x, w, spec)
        for out in outputs:
            assert out.flags.c_contiguous and out.flags.writeable
            assert not np.shares_memory(out, x)
            out[...] = 0
        np.testing.assert_array_equal(x, before)

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


class TestSuiteArguments:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(instances=-1), "instances must be >= 1"),
        (dict(instances=0), "instances must be >= 1"),
        (dict(instances=2.5), "instances must be an integer"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(seed=1.5), "seed must be an integer"),
        (dict(max_channels=0), "max_channels must be >= 1"),
        (dict(sigmas=()), "sigmas must not be empty"),
        (dict(sigmas=(1, 0)), "sigmas must be >= 1"),
        (dict(sigmas=(3.0,)), "sigmas must be an integer"),
        (dict(max_width=4), "max_width must be >= 5, got 4"),
        (dict(sigmas=(2,), max_width=1), "max_width must be >= 2, got 1"),
    ])
    def test_bad_argument_rejected(self, kwargs, message):
        with pytest.raises(InvalidSpecError, match=message):
            run_equivalence_suite(**kwargs)

    def test_max_width_equal_to_largest_sigma(self):
        result = run_equivalence_suite(instances=5, sigmas=(2, 3),
                                       max_width=3)
        assert result.passed and result.instances == 5
