"""Index algebra for delay-buffered convolution.

A stride-1, zero-padding-free 2-D convolution over square images can be
lowered to a matrix product in two ways: the conventional im2col patching,
or by serializing each image row-major and presenting Q = sigma^2 delayed
copies of the serialized stream.  The valid columns of the delayed matrix
(the valid time steps, selected by ``_valid_columns`` alone, from X' and
Y' alike) coincide with the im2col matrix, so a single weight-matrix
multiply computes the layer either way.  This module holds exact reference
implementations of both routes so the equivalence can be checked
mechanically.  Each route, and the defining sum it is checked against,
is one array expression over its own read-only strided window of the
input, written independently of the others: the delayed matrix takes
every tap's window of the zero-padded stream at once, as one delay line
carries every wavelength; im2col copies a (C_I, sigma, sigma, V, V)
window; the reference contracts the kernels with a (C_I, V, V, sigma,
sigma) window.  Every returned array is a fresh C-contiguous copy, so
writing into it never reaches the caller's images.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidSpecError, check_count


@dataclass(frozen=True)
class ConvLayerSpec:
    """Shapes of one convolutional layer: stride fixed at 1, no padding."""

    c_in: int
    c_out: int
    sigma: int
    image_width: int

    def __post_init__(self):
        check_count("c_in", self.c_in)
        check_count("c_out", self.c_out)
        check_count("sigma", self.sigma)
        # type only: the sigma check below bounds the value
        check_count("image_width", self.image_width, minimum=-math.inf)
        if self.image_width < self.sigma:
            raise InvalidSpecError(
                f"image_width {self.image_width} < sigma {self.sigma}: "
                "no valid outputs"
            )

    @property
    def q(self) -> int:
        """Taps per input channel: Q = sigma^2."""
        return self.sigma * self.sigma

    @property
    def valid_width(self) -> int:
        """Output image width for stride 1, no padding: L - sigma + 1."""
        return self.image_width - self.sigma + 1

    @property
    def d_max(self) -> int:
        """Largest delay offset: (sigma - 1) * (L + 1)."""
        return (self.sigma - 1) * (self.image_width + 1)


@dataclass(frozen=True)
class DelayedMatrix:
    """Serialized-and-delayed input matrix X'.

    ``data`` has shape (C_I * Q, L^2 + D_max).  Row u*Q + q holds the
    serialized channel u shifted right by D_max - D_q, zero-padded
    elsewhere: kernel element q looks *ahead* in the stream, so the tap
    carrying it must be delayed *least*.  The physical delay set is still
    exactly {D_q}; only the tap-to-kernel-element assignment is reversed.
    Column s + D_max is valid for s = m*L + n with m, n in [0, L - sigma],
    and there the matrix column is precisely the flattened patch at (m, n)
    - the im2col column.  ``_valid_columns`` selects those columns, of X'
    and of Y' alike.
    """

    data: np.ndarray
    spec: ConvLayerSpec


_AXES = {"image": ("channel", "row", "column"),
         "kernel": ("in-channel", "out-channel", "kernel-row",
                    "kernel-column")}


def _check_shape(kind: str, a, spec: ConvLayerSpec) -> np.ndarray:
    """``a`` as a C-order float array; DimensionError, naming the first
    axis that differs, unless it has the layer's ``kind`` ("image" or
    "kernel") tensor shape."""
    # C order lets a window view be laid over the buffer
    a = np.asarray(a, dtype=float, order="C")
    expected = ((spec.c_in, spec.image_width, spec.image_width)
                if kind == "image"
                else (spec.c_in, spec.c_out, spec.sigma, spec.sigma))
    if a.shape != expected:
        axis = next((name for name, got, want in zip(
            _AXES[kind], a.shape, expected) if got != want), "rank")
        raise DimensionError(
            f"{kind} tensor shape {a.shape} != {expected} (axis: {axis})")
    return a


def conv2d_reference(images, kernels, spec: ConvLayerSpec) -> np.ndarray:
    """Exact triple-sum convolution y[v,m,n] = sum_{u,i,j} w[u,v,i,j] x[u,m+i,n+j].

    A direct transcription of the defining sum: one contraction of the
    kernels over a read-only (C_I, V, V, sigma, sigma) window whose entry
    (u, m, n, i, j) is x[u, m+i, n+j].  Output shape (C_O, V, V) with
    V = L - sigma + 1.
    """
    x = _check_shape("image", images, spec)
    w = _check_shape("kernel", kernels, spec)
    v_w = spec.valid_width
    s_u, s_m, s_n = x.strides
    window = np.ndarray((spec.c_in, v_w, v_w, spec.sigma, spec.sigma),
                        x.dtype, x, 0, (s_u, s_m, s_n, s_m, s_n))
    window.flags.writeable = False
    return np.tensordot(w, window, axes=([0, 2, 3], [0, 3, 4]))


def serialize(image: np.ndarray) -> np.ndarray:
    """Row-major serialization of a square image: x_bar[s] = x[s // L, s % L]."""
    image = np.asarray(image)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise DimensionError(f"expected square 2-D image, got shape {image.shape}")
    return image.reshape(-1)


def deserialize(sequence: np.ndarray, image_width: int) -> np.ndarray:
    """Inverse of :func:`serialize`."""
    sequence = np.asarray(sequence)
    if sequence.size != image_width * image_width:
        raise DimensionError(
            f"sequence length {sequence.size} != L^2 = {image_width ** 2}"
        )
    return sequence.reshape(image_width, image_width)


def delay_offsets(sigma: int, image_width: int) -> np.ndarray:
    """Per-tap delay amounts D_q = floor(q / sigma) * L + (q mod sigma);
    InvalidSpecError unless sigma is an integer >= 1 and image_width one
    >= sigma."""
    check_count("sigma", sigma)
    check_count("image_width", image_width, minimum=sigma)
    q = np.arange(sigma * sigma)
    return (q // sigma) * image_width + (q % sigma)


def build_delayed_matrix(images, spec: ConvLayerSpec) -> DelayedMatrix:
    """Assemble X': Q delayed copies of each serialized channel, zero padded.

    With each channel's row-major stream zero padded by D_max on both
    sides, the row for tap q is the padded stream's window that starts at
    D_q, i.e. the stream delayed by D_max - D_q.  One gather at
    :func:`delay_offsets` of a read-only (C_I, D_max + 1, width) window
    view takes every tap of every channel at once, as each delay line
    carries every input channel on its own wavelength.  Rows come out in
    u*Q + q order.
    """
    x = _check_shape("image", images, spec)
    n_samples = spec.image_width ** 2
    d_max = spec.d_max
    width = n_samples + d_max

    padded = np.zeros((spec.c_in, n_samples + 2 * d_max))
    padded[:, d_max:d_max + n_samples] = x.reshape(spec.c_in, n_samples)
    step_u, step_s = padded.strides
    windows = np.ndarray((spec.c_in, d_max + 1, width), padded.dtype, padded,
                         0, (step_u, step_s, step_s))
    windows.flags.writeable = False
    # both index arrays lead, so the gather comes out C-contiguous
    data = windows[np.arange(spec.c_in)[:, None],
                   delay_offsets(spec.sigma, spec.image_width)]
    return DelayedMatrix(data=data.reshape(spec.c_in * spec.q, width),
                         spec=spec)


def _valid_columns(a: np.ndarray, spec: ConvLayerSpec) -> np.ndarray:
    """View of the valid columns s + D_max, s = m*L + n, of ``a`` as
    (..., V, V): the first V of each length-L run from column D_max.  The
    one selection of valid time steps, for X' and Y' alike."""
    v_w, l_w = spec.valid_width, spec.image_width
    span = a[..., spec.d_max:spec.d_max + v_w * l_w]
    return span.reshape(a.shape[:-1] + (v_w, l_w))[..., :v_w]


def im2col_oracle(images, spec: ConvLayerSpec) -> np.ndarray:
    """Conventional patch-and-flatten matrix X, shape (C_I*Q, (L-sigma+1)^2).

    Column p is the flattened sigma x sigma patch at output position
    p = m * (L-sigma+1) + n, channel blocks stacked vertically.  It is one
    contiguous copy of a read-only (C_I, sigma, sigma, V, V) window whose
    entry (u, i, j, m, n) is x[u, m+i, n+j], so it stays independent of
    the delay route.
    """
    x = _check_shape("image", images, spec)
    v_w = spec.valid_width
    s_u, s_m, s_n = x.strides
    window = np.ndarray((spec.c_in, spec.sigma, spec.sigma, v_w, v_w),
                        x.dtype, x, 0, (s_u, s_m, s_n, s_m, s_n))
    window.flags.writeable = False
    return window.copy().reshape(spec.c_in * spec.q, v_w * v_w)


def kernels_to_weight_matrix(kernels, spec: ConvLayerSpec) -> np.ndarray:
    """Flatten kernels to W of shape (C_O, C_I*Q), row order matching X'.

    Column u*Q + q of row v holds w[u, v, q // sigma, q % sigma].
    """
    w = _check_shape("kernel", kernels, spec)
    # (C_I, C_O, sigma, sigma) -> (C_O, C_I, Q)
    flat = w.reshape(spec.c_in, spec.c_out, spec.q).transpose(1, 0, 2)
    return flat.reshape(spec.c_out, spec.c_in * spec.q)


def gemm_conv(weight_matrix: np.ndarray, delayed: DelayedMatrix) -> np.ndarray:
    """Y' = W X'.  Valid columns of Y' carry the convolution outputs."""
    w = np.asarray(weight_matrix, dtype=float)
    spec = delayed.spec
    if w.shape != (spec.c_out, spec.c_in * spec.q):
        raise DimensionError(
            f"weight matrix shape {w.shape} != "
            f"({spec.c_out}, {spec.c_in * spec.q})"
        )
    return w @ delayed.data


def valid_output(y_full: np.ndarray, delayed: DelayedMatrix) -> np.ndarray:
    """Copy the valid columns of Y' out as (C_O, V, V)."""
    y_full = np.asarray(y_full)
    expected = (delayed.spec.c_out, delayed.data.shape[1])
    if y_full.shape != expected:
        raise DimensionError(f"Y' shape {y_full.shape} != {expected}")
    return _valid_columns(y_full, delayed.spec).copy()


def physical_delay(d_q, f_m: float, group_velocity: float) -> tuple:
    """Convert clock-cycle delay(s) to (seconds, meters) at modulation rate f_m."""
    if not (math.isfinite(f_m) and f_m > 0):
        raise InvalidSpecError(
            f"modulation rate must be positive and finite, got {f_m}")
    if not (math.isfinite(group_velocity) and group_velocity > 0):
        raise InvalidSpecError(
            f"group velocity must be positive and finite, got {group_velocity}")
    return d_q / f_m, d_q * group_velocity / f_m
