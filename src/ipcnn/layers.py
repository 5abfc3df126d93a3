"""Minimal digital NN layers with manual gradients (numpy only).

Only what the four-layer MNIST network needs: stride-1 conv with optional
zero padding, ReLU, 2x2 max pooling, flatten, dense, and softmax
cross-entropy.  Every backward pass is validated against central finite
differences in the test suite.

Conv forward and backward are GEMMs over ``im2col``; the input gradient
lowers only the patches that land on the unpadded input, and the first
layer skips it (``input_grad=False``).  Max pooling works on four stride-2
slices.  Tests hold each route bit-equal to the textbook one (tile
``argmax`` pooling, a (k-1)-padded full correlation cropped afterwards).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError


class Layer:
    """Base: stateless unless it owns parameters."""

    params: list[np.ndarray]
    grads: list[np.ndarray]

    def __init__(self):
        self.params = []
        self.grads = []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def im2col(x: np.ndarray, kernel: int):
    """Stride-1, pad-free patch matrix of a (B, C, H, W) batch.

    Returns ``(cols, (B, H', W'))`` with ``cols`` of shape
    (B*H'*W', C*k*k), H' = H - k + 1.  Row (b*H' + m)*W' + n is the patch
    at output position (m, n) of image b; column u*k*k + i*k + j holds
    x[b, u, m+i, n+j], the u*Q + q order of
    ``conv_math.kernels_to_weight_matrix``.  One GEMM against the flattened
    kernels then evaluates the convolution (Chellapilla et al. 2006).
    """
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    b, c, h, w, _, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * h * w,
                                                       c * kernel * kernel)
    return cols, (b, h, w)


class Conv2D(Layer):
    """Stride-1 2-D convolution (cross-correlation) with zero padding."""

    def __init__(self, c_in: int, c_out: int, kernel: int = 3, pad: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.c_in, self.c_out, self.kernel, self.pad = c_in, c_out, kernel, pad
        rng = rng or np.random.default_rng()
        fan_in = c_in * kernel * kernel
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                            size=(c_out, c_in, kernel, kernel))
        self.b = np.zeros(c_out)
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._windows = None

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise DimensionError(
                f"conv input shape {x.shape} incompatible with c_in={self.c_in}"
            )
        p = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        cols, (b, h, w) = im2col(xp, self.kernel)
        if train:
            self._windows = cols, (b, h, w)
        out = cols @ self.w.reshape(self.c_out, -1).T
        return out.reshape(b, h, w, self.c_out).transpose(0, 3, 1, 2) \
            + self.b[None, :, None, None]

    def backward(self, grad, input_grad=True):
        """Fill ``grads``; return dL/dx, or None if ``input_grad`` is False."""
        k, p = self.kernel, self.pad
        cols, (b, h, w) = self._windows
        self._windows = None
        grad_cols = grad.transpose(0, 2, 3, 1).reshape(b * h * w, self.c_out)
        self.grads[0][...] = (grad_cols.T @ cols).reshape(self.w.shape)
        self.grads[1][...] = grad.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        # dx is the full correlation of grad with the flipped kernel, cropped
        # by p.  Padding grad by e = k-1-p instead of k-1 lowers only the
        # patches of that interior; for p > k-1 grad is cropped by -e.
        e = k - 1 - p
        if e > 0:
            grad = np.pad(grad, ((0, 0), (0, 0), (e, e), (e, e)))
        elif e < 0:
            grad = grad[:, :, -e:e, -e:e]
        gcols, (_, bh, bw) = im2col(grad, k)
        w_flip = self.w[:, :, ::-1, ::-1]
        # matrix with rows indexed (o, i, j) to match gcols' column order
        w_mat = w_flip.transpose(0, 2, 3, 1).reshape(-1, self.c_in)
        return (gcols @ w_mat).reshape(b, bh, bw, self.c_in).transpose(0, 3, 1, 2)


class ReLU(Layer):
    def __init__(self):
        super().__init__()
        self._mask = None

    def forward(self, x, train=False):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad):
        out = grad * self._mask
        self._mask = None
        return out


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; input height/width must be even.

    Works on the four stride-2 slices of the input, one per tile position
    in row-major order.  Training records, per slice, where it holds the
    tile's first maximum in that order (the element ``argmax`` picks), and
    ``backward`` routes each output gradient there.
    """

    _OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self):
        super().__init__()
        self._masks = None
        self._shape = None

    def forward(self, x, train=False):
        if x.shape[2] % 2 or x.shape[3] % 2:
            raise DimensionError(f"pooling needs even height/width, got {x.shape}")
        s00, s01, s10, s11 = (x[:, :, i::2, j::2] for i, j in self._OFFSETS)
        out = np.maximum(np.maximum(s00, s01), np.maximum(s10, s11))
        if train:
            taken = np.zeros(out.shape, dtype=bool)
            self._masks = []
            for s in (s00, s01, s10, s11):
                first = (s == out) & ~taken
                taken |= first
                self._masks.append(first)
            self._shape = x.shape
        return out

    def backward(self, grad):
        dx = np.zeros(self._shape)
        for (i, j), mask in zip(self._OFFSETS, self._masks):
            np.copyto(dx[:, :, i::2, j::2], grad, where=mask)
        self._masks = self._shape = None
        return dx


class Flatten(Layer):
    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x, train=False):
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        out = grad.reshape(self._shape)
        self._shape = None
        return out


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._x = None

    def forward(self, x, train=False):
        if x.shape[1] != self.w.shape[0]:
            raise DimensionError(
                f"dense input width {x.shape[1]} != {self.w.shape[0]}"
            )
        if train:
            self._x = x
        return x @ self.w + self.b

    def backward(self, grad):
        self.grads[0][...] = self._x.T @ grad
        self.grads[1][...] = grad.sum(axis=0)
        out = grad @ self.w.T
        self._x = None
        return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy; returns (loss, dlogits)."""
    n = logits.shape[0]
    probs = softmax(logits)
    loss = -np.mean(np.log(probs[np.arange(n), labels] + 1e-300))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n
