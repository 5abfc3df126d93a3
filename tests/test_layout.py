"""Channel-major conv activations against the NCHW routes they replaced.

The references below are the routes the conv layers took while their
activations were stored in C order: an ``im2col`` that transpose-copies an
NCHW batch into (B*H'*W', C*k*k) patch rows, and the GEMMs ``cols @ W.T``
(forward), ``grad_cols.T @ cols`` (weight gradient) and ``gcols @ w_mat``
(input gradient).

Three things hold:

- Memory order never changes a value.  Every case runs on C-order arrays
  and on the same values in channel-major memory, and the two give the
  same bits.
- Lowering, padding, pooling, the bias gradient and the noise values
  involve no GEMM and equal the references bit for bit.
- A GEMM's rounding can depend on the memory layout of its operands: a
  BLAS may pick another kernel, and so another summation order, for an
  operand stored transposed.  OpenBLAS 0.3.31 on AVX-512 does so for
  small products, for matrix-vector products (one channel) and, in the
  forward GEMM, for a row count B*H'*W' that is not a multiple of 8
  (conv2 on an odd number of images).  So the GEMM routes are held to
  the references within the rounding bound of a dot product,
  2 * gamma_n * sum|terms|, at every size, and to the same bits at the
  network's own conv shapes and even batch sizes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ipcnn.analog import (
    AnalogFaultModel,
    WeightProgramming,
    forward_batch,
    program_weights,
    sample_imbalance,
    standard_normal,
)
from ipcnn.conv_math import ConvLayerSpec
from ipcnn.layers import Conv2D, MaxPool2, im2col, pad_hw

EPS = np.finfo(float).eps


def channel_major(x):
    """The same (B, C, H, W) values, stored as (C, B, H, W)."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def channels_last(x):
    """The same (B, C, H, W) values, stored as (B, H, W, C)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def nchw_im2col(x, kernel):
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    b, c, h, w, _, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * w,
                                                       c * kernel * kernel)
    return cols, (b, h, w)


def nchw_pad(x, p):
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x


def nchw_conv_forward(w, b, pad, x):
    c_out, _, k, _ = w.shape
    cols, (n, h, v) = nchw_im2col(nchw_pad(x, pad), k)
    out = cols @ w.reshape(c_out, -1).T
    return out.reshape(n, h, v, c_out).transpose(0, 3, 1, 2) \
        + b[None, :, None, None]


def nchw_conv_param_grads(w, pad, x, grad):
    """(weight gradient, bias gradient) for a C-order ``grad``."""
    c_out, _, k, _ = w.shape
    cols, (n, h, v) = nchw_im2col(nchw_pad(x, pad), k)
    grad_cols = grad.transpose(0, 2, 3, 1).reshape(n * h * v, c_out)
    return (grad_cols.T @ cols).reshape(w.shape), grad.sum(axis=(0, 2, 3))


def nchw_conv_dx(w, pad, grad):
    _, c_in, k, _ = w.shape
    e = k - 1 - pad
    g = nchw_pad(grad, e) if e >= 0 else grad[:, :, -e:e, -e:e]
    gcols, (n, h, v) = nchw_im2col(g, k)
    w_mat = w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(-1, c_in)
    return (gcols @ w_mat).reshape(n, h, v, c_in).transpose(0, 3, 1, 2)


def nchw_forward_batch(images, programming, spec, faults, rng):
    cols, (b, v_h, v_w) = nchw_im2col(images, spec.sigma)
    eff = faults.gains(spec) * programming.settings
    rescale = programming.rescale
    out = cols @ (rescale * eff.reshape(spec.c_in * spec.q, spec.c_out))
    sigma_n = faults.noise_sigma(spec)
    if sigma_n > 0:
        # image by image, one standard_normal draw in (C_O, V*V) order:
        # image b's values come from the P = ceil(C_O*V*V/2) uint64 steps
        # after the first b*P, as in forward_batch's one block draw
        noise = np.stack([standard_normal(rng, out.size // b)
                          for _ in range(b)])
        out += (rescale * sigma_n * np.sqrt(spec.q)) * noise.reshape(
            b, spec.c_out, v_h * v_w).transpose(0, 2, 1).reshape(out.shape)
    return out.reshape(b, v_h, v_w, spec.c_out).transpose(0, 3, 1, 2)


def nchw_pool(x, grad):
    """Four-slice max pooling into a C-order input gradient."""
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    slices = [x[:, :, i::2, j::2] for i, j in offsets]
    out = np.maximum(np.maximum(slices[0], slices[1]),
                     np.maximum(slices[2], slices[3]))
    taken = np.zeros(out.shape, dtype=bool)
    dx = np.zeros(x.shape)
    for (i, j), s in zip(offsets, slices):
        first = (s == out) & ~taken
        taken |= first
        np.copyto(dx[:, :, i::2, j::2], grad, where=first)
    return out, dx


def assert_same(a, b):
    """Same bits, shape and dtype; memory order may differ."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_within_rounding(a, ref, magnitude, terms):
    """|a - ref| <= 2 * gamma_terms * magnitude, where ``magnitude`` is the
    sum of the absolute terms behind each element."""
    assert a.shape == ref.shape
    bound = (terms + 1) * EPS * magnitude
    assert np.all(np.abs(a - ref) <= bound)


conv_cases = dict(
    batch=st.integers(1, 4),
    c_in=st.integers(1, 8),
    c_out=st.integers(1, 8),
    pad=st.integers(0, 3),
    height=st.integers(3, 10),
    width=st.integers(3, 10),
    seed=st.integers(0, 2**32 - 1),
)


class TestLowering:
    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 4), c_in=st.integers(1, 8),
           kernel=st.integers(1, 3), height=st.integers(3, 10),
           width=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
    def test_im2col_matches_nchw_route(self, batch, c_in, kernel, height,
                                       width, seed):
        x = np.random.default_rng(seed).standard_normal(
            (batch, c_in, height, width))
        ref, ref_dims = nchw_im2col(x, kernel)
        for layout in (x, channel_major(x)):
            cols, dims = im2col(layout, kernel)
            assert dims == ref_dims
            assert_same(cols, ref)
            # one contiguous row per (channel, tap)
            assert cols.T.flags.c_contiguous

    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 4), c_in=st.integers(1, 8),
           pad=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_pad_hw_matches_np_pad(self, batch, c_in, pad, seed):
        x = np.random.default_rng(seed).standard_normal((batch, c_in, 5, 4))
        for layout in (x, channel_major(x)):
            assert_same(pad_hw(layout, pad), nchw_pad(x, pad))


def run_conv(layer, x, grad):
    out = layer.forward(x, train=True)
    dx = layer.backward(grad)
    return out, layer.grads[0].copy(), layer.grads[1].copy(), dx


class TestConv:
    @settings(max_examples=60, deadline=None)
    @given(**conv_cases)
    def test_layouts_agree_and_match_nchw_route(
            self, batch, c_in, c_out, pad, height, width, seed):
        rng = np.random.default_rng(seed)
        layer = Conv2D(c_in, c_out, kernel=3, pad=pad, rng=rng)
        layer.b[...] = rng.standard_normal(c_out)
        x = rng.standard_normal((batch, c_in, height, width))
        out_shape = (batch, c_out, height + 2 * pad - 2, width + 2 * pad - 2)
        grad = rng.standard_normal(out_shape)

        first = run_conv(layer, x, grad)
        for x_in in (x, channel_major(x)):
            for grad_in in (grad, channel_major(grad)):
                for a, b in zip(run_conv(layer, x_in, grad_in), first,
                                strict=True):
                    assert_same(a, b)

        out, dw, db, dx = first
        w, aw, ax, ag = layer.w, np.abs(layer.w), np.abs(x), np.abs(grad)
        k_terms = c_in * 9
        assert_within_rounding(
            out, nchw_conv_forward(w, layer.b, pad, x),
            nchw_conv_forward(aw, np.abs(layer.b), pad, ax), k_terms + 1)
        dw_ref, db_ref = nchw_conv_param_grads(w, pad, x, grad)
        assert_within_rounding(dw, dw_ref,
                               nchw_conv_param_grads(aw, pad, ax, ag)[0],
                               grad[:, 0].size)
        assert_same(db, db_ref)
        assert_within_rounding(dx, nchw_conv_dx(w, pad, grad),
                               nchw_conv_dx(aw, pad, ag), c_out * 9)

    def test_network_shapes_match_nchw_route_exactly(self):
        # NetworkModel's conv layers in a training step of 64 images; the
        # first layer computes no input gradient
        rng = np.random.default_rng(23)
        for c_in, width, input_grad in ((1, 28, False), (32, 14, True)):
            layer = Conv2D(c_in, 32, kernel=3, pad=1, rng=rng)
            layer.b[...] = rng.standard_normal(32)
            x = channel_major(rng.random((64, c_in, width, width)))
            grad = channel_major(rng.standard_normal((64, 32, width, width)))
            assert_same(layer.forward(x, train=True),
                        nchw_conv_forward(layer.w, layer.b, 1, x))
            dx = layer.backward(grad, input_grad=input_grad)
            dw_ref, db_ref = nchw_conv_param_grads(
                layer.w, 1, x, np.ascontiguousarray(grad))
            assert_same(layer.grads[0], dw_ref)
            assert_same(layer.grads[1], db_ref)
            if input_grad:
                assert_same(dx, nchw_conv_dx(layer.w, 1, grad))

    def test_odd_batch_within_rounding(self):
        # 3 images give 588 GEMM rows, not a multiple of 8
        rng = np.random.default_rng(31)
        layer = Conv2D(32, 32, kernel=3, pad=1, rng=rng)
        x = rng.random((3, 32, 14, 14))
        assert_within_rounding(
            layer.forward(channel_major(x)),
            nchw_conv_forward(layer.w, layer.b, 1, x),
            nchw_conv_forward(np.abs(layer.w), layer.b, 1, x), 32 * 9)

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    def test_small_dx_within_rounding(self, pad):
        # the shapes of test_layers.py::TestExactRoutes, whose reference
        # lowers through the channel-major im2col.  gcols is now a
        # transposed view, and OpenBLAS 0.3.31 (AVX-512) rounds its dx GEMM
        # differently from the C-order gcols of the NCHW route: these dx
        # differ from it in the last bits.  Only the conv2 dx of a training
        # step (test_network_shapes_match_nchw_route_exactly) is bit-equal.
        rng = np.random.default_rng(13 + pad)
        layer = Conv2D(3, 5, kernel=3, pad=pad, rng=rng)
        x = rng.standard_normal((4, 3, 9, 7))
        grad = rng.standard_normal(layer.forward(x, train=True).shape)
        dx = layer.backward(grad)
        assert_within_rounding(dx, nchw_conv_dx(layer.w, pad, grad),
                               nchw_conv_dx(np.abs(layer.w), pad,
                                            np.abs(grad)), 5 * 9)

    def test_one_output_channel_bias_grad_exact(self):
        # with one channel a C-order grad is one run of B*H*W values, which
        # numpy sums pairwise as a whole, not image by image
        rng = np.random.default_rng(37)
        layer = Conv2D(2, 1, rng=rng)
        x = rng.standard_normal((30, 2, 23, 17))
        grad = rng.standard_normal((30, 1, 23, 17))
        for grad_in in (grad, channel_major(grad)):
            layer.forward(x, train=True)
            layer.backward(grad_in, input_grad=False)
            assert_same(layer.grads[1], grad.sum(axis=(0, 2, 3)))

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 40), c_out=st.integers(2, 12),
           height=st.integers(1, 16), width=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    @example(batch=40, c_out=1, height=16, width=16, seed=0)
    @example(batch=3, c_out=1, height=1, width=2, seed=1)
    def test_bias_grad_sums_as_c_order_copy(self, batch, c_out, height,
                                            width, seed):
        # the bias gradient sums the channel-major gradient the layer
        # keeps, in the order numpy sums a C-order copy; per (image,
        # channel) magnitudes and -0.0 runs make any other order show
        rng = np.random.default_rng(seed)
        layer = Conv2D(1, c_out, kernel=1, pad=0, rng=rng)
        grad = rng.standard_normal((batch, c_out, height, width)) * 10.0 ** \
            rng.integers(-6, 7, size=(batch, c_out, 1, 1))
        grad[rng.integers(batch), :, :height // 2] = -0.0
        grad[:, rng.integers(c_out)] *= -0.0
        layer.forward(rng.random((batch, 1, height, width)), train=True)
        layer.backward(channel_major(grad), input_grad=False)
        assert_same(layer.grads[1],
                    np.ascontiguousarray(grad).sum(axis=(0, 2, 3)))

    def test_forward_output_is_channel_major(self):
        layer = Conv2D(2, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((4, 2, 5, 5)))
        assert out.transpose(1, 0, 2, 3).flags.c_contiguous

    def test_negative_zero_gradients_sum_as_in_c_order(self):
        # a channel whose gradient is -0.0 everywhere, as ReLU's mask
        # leaves behind, keeps the bias gradient's sign of zero
        rng = np.random.default_rng(3)
        layer = Conv2D(2, 3, rng=rng)
        x = rng.standard_normal((2, 2, 4, 4))
        grad = rng.standard_normal((2, 3, 4, 4))
        grad[:, 1] = -0.0
        layer.forward(x, train=True)
        layer.backward(channel_major(grad), input_grad=False)
        assert_same(layer.grads[1], grad.sum(axis=(0, 2, 3)))


def analog_case(rng, batch, c_in, c_out, sigma, width, neop_dbc):
    spec = ConvLayerSpec(c_in, c_out, sigma, width)
    programming = program_weights(
        rng.standard_normal((c_in, c_out, sigma, sigma)), spec)
    level = 3.0 if c_in * spec.q * c_out > 1 else 0.0
    gains = sample_imbalance(spec, level, seed=int(rng.integers(2**32)))
    faults = AnalogFaultModel(neop_dbc=neop_dbc, path_gains=gains)
    return spec, programming, faults, rng.random((batch, c_in, width, width))


class TestAnalogForward:
    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 4), c_in=st.integers(1, 8),
           c_out=st.integers(1, 8), sigma=st.integers(1, 3),
           width=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
    def test_layouts_agree_and_match_nchw_route(self, batch, c_in, c_out,
                                                sigma, width, seed):
        rng = np.random.default_rng(seed)
        spec, programming, faults, x = analog_case(
            rng, batch, c_in, c_out, sigma, width, -10.0)
        clean_faults = AnalogFaultModel(path_gains=faults.path_gains)
        clean = forward_batch(x, programming, spec, clean_faults)
        noisy = forward_batch(x, programming, spec, faults,
                              rng=np.random.default_rng(seed))
        for x_in in (x, channel_major(x)):
            assert_same(forward_batch(x_in, programming, spec, clean_faults),
                        clean)
            assert_same(forward_batch(x_in, programming, spec, faults,
                                      rng=np.random.default_rng(seed)),
                        noisy)

        # the noise: one standard_normal draw per image, in image order,
        # laid out as the image's (C_O, V, V) output; the block's one
        # draw of (batch, P) uint64 steps takes the same steps in turn
        v = width - sigma + 1
        rng = np.random.default_rng(seed)
        draws = np.stack([standard_normal(rng, c_out * v * v)
                          for _ in range(batch)])
        noise = (programming.rescale * faults.noise_sigma(spec)
                 * np.sqrt(spec.q)) * draws.reshape(batch, c_out, v, v)
        assert_same(noisy, clean + noise)

        magnitude = nchw_forward_batch(
            x, WeightProgramming(np.abs(programming.settings),
                                 programming.rescale),
            spec, clean_faults, None)
        assert_within_rounding(
            clean, nchw_forward_batch(x, programming, spec, clean_faults,
                                      None),
            magnitude, c_in * spec.q + 1)

    def test_network_shapes_match_nchw_route_exactly(self):
        # both conv layers of the hybrid network on a 16-image batch
        rng = np.random.default_rng(29)
        for c_in, width in ((1, 30), (32, 16)):
            for neop_dbc in (-np.inf, -10.0):
                spec, programming, faults, x = analog_case(
                    rng, 16, c_in, 32, 3, width, neop_dbc)
                x = channel_major(x)
                assert_same(
                    forward_batch(x, programming, spec, faults,
                                  rng=np.random.default_rng(5)),
                    nchw_forward_batch(x, programming, spec, faults,
                                       np.random.default_rng(5)))


class TestPool:
    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 4), c_in=st.integers(1, 8),
           height=st.integers(1, 5), width=st.integers(1, 5),
           ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_nchw_route(self, batch, c_in, height, width, ties, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, c_in, 2 * height, 2 * width)
        x = (rng.integers(-1, 2, size=shape).astype(float) if ties
             else rng.standard_normal(shape))
        grad = rng.standard_normal((batch, c_in, height, width))
        out_ref, dx_ref = nchw_pool(x, grad)
        for x_in in (x, channel_major(x)):
            for grad_in in (grad, channel_major(grad)):
                pool = MaxPool2()
                assert_same(pool.forward(x_in, train=True), out_ref)
                dx = pool.backward(grad_in)
                assert_same(dx, dx_ref)
                # the input gradient is laid out like the input
                for axes in ((0, 1, 2, 3), (1, 0, 2, 3)):
                    assert dx.transpose(axes).flags.c_contiguous == \
                        x_in.transpose(axes).flags.c_contiguous

    def test_network_shapes_match_nchw_route(self):
        # pool1 of a 32-image part: a channel-major ReLU output with
        # all-zero tiles, as dead units leave them, and the channels-last
        # gradient conv2's backward hands it
        rng = np.random.default_rng(41)
        x = np.maximum(rng.standard_normal((32, 32, 28, 28)), 0.0)
        x[:, :, :6] = 0.0
        x[:, 5] = 0.0
        grad = rng.standard_normal((32, 32, 14, 14))
        grad[:, 9] = -0.0
        out_ref, dx_ref = nchw_pool(x, grad)
        pool = MaxPool2()
        assert_same(pool.forward(channel_major(x), train=True), out_ref)
        dx = pool.backward(channels_last(grad))
        assert_same(dx, dx_ref)
        assert dx.transpose(1, 0, 2, 3).flags.c_contiguous
