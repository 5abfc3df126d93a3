"""Minimal digital NN layers with manual gradients (numpy only).

Only what the four-layer MNIST network needs: stride-1 conv with optional
zero padding, ReLU, 2x2 max pooling, flatten, dense, and softmax
cross-entropy.  Every backward pass is validated against central finite
differences in the test suite.

Conv activations are channel-major: a conv layer returns its (B, C_O, H, W)
output as a view of (C_O, B, H, W) memory.  ``im2col`` then copies one
contiguous row per (channel, tap) instead of transposing channels into the
innermost axis, and the (C_O, B*H*W) product ``weights @ rows`` is already
in that layout, with no transpose copy.  ReLU and pooling keep the memory
order they are given, so the layout carries through to ``Flatten``, which
copies it into C order for the dense layers.  The conv input gradient keeps
the ``gcols @ w_mat`` orientation, channels last in memory: the flipped
product rounds differently for few input channels.  Memory order never
changes a value.  The tests hold every route to the NCHW one: bit for bit
at the network's shapes and even batch sizes, and within rounding
elsewhere, because a BLAS may round by operand layout.

Conv forward and backward are GEMMs over ``im2col``, one per chunk of
``CHUNK`` images (``conv_gemm``, the one caller of ``im2col``): each
chunk is lowered and multiplied into its columns of one output (its rows,
for the input gradient) before the next, and no lowering of the whole
batch is made, except the one training keeps for the weight gradient.
The input gradient lowers only the patches that land on the unpadded
input, and the first layer skips it (``input_grad=False``).  Max pooling
takes the maximum of each tile row, then of the two rows; training keeps
one byte per tile that names its first maximum, and the backward pass is
one scatter of the output gradient.  Tests hold each route bit-equal to
the textbook one (tile ``argmax`` pooling, a (k-1)-padded full
correlation cropped afterwards).  The network runs each ReLU that feeds
a pool after the pool (``network.NetworkModel.walk``); the layers do not
depend on it.

A training batch may run through the network in parts, each part on its
own thread through the same layers.  A layer keeps the training state of
each part (``Layer.state``) under the index of the part's first image in
the batch, ``first``, from its ``forward`` to its ``backward``.  The parts
of a conv or dense layer write into one ``GradBatch``, whose full-batch
arrays give the weight and bias gradients as one reduction over the whole
batch, so the split never changes their bits.  A layer trained without a
``GradBatch`` is a one-part batch of its own.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError

# Images per chunk of a conv: ``conv_gemm`` lowers and multiplies this many
# at a time into one reused buffer, so no conv makes the lowering of a whole
# block (3.6 MB per chunk at conv2, against 14.4 MB per 32 images).  A
# BLAS rounds a GEMM's output column by its place in the kernel's blocks of
# columns, so every chunk, and every part of a training step
# (``network.NetworkModel.loss_and_backward``), starts on a multiple of this
# many images, where those blocks start: with one OpenBLAS thread, a cut
# after an odd number of images changed conv2's forward bits.  At conv2 a
# multiple of 8 images is a multiple of 32 columns.
CHUNK = 8


class Layer:
    """Base: parameters and gradients if it owns any, and ``state``, what
    ``forward(train=True)`` keeps for ``backward``, one entry per part of a
    batch keyed by ``first``, the index of the part's first image (0 for a
    whole batch).  ``forward`` stores the entry and ``backward`` pops it,
    so parts on other threads write disjoint entries."""

    params: list[np.ndarray]
    grads: list[np.ndarray]
    state: dict

    def __init__(self):
        self.params = []
        self.grads = []
        self.state = {}

    def forward(self, x: np.ndarray, train: bool = False, *,
                first: int = 0) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray, *, first: int = 0) -> np.ndarray:
        raise NotImplementedError


def pad_hw(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the H and W axes of a (B, C, H, W) batch by ``p`` each side.

    The padded batch is channel-major, (C, B, H+2p, W+2p) in memory; with
    ``p == 0`` the batch is returned as it is.
    """
    if not p:
        return x
    b, c, h, w = x.shape
    out = np.zeros((c, b, h + 2 * p, w + 2 * p))
    out[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
    return out.transpose(1, 0, 2, 3)


def im2col(x: np.ndarray, kernel: int, out: np.ndarray | None = None):
    """Stride-1, pad-free patch matrix of a (B, C, H, W) batch.

    Returns ``(cols, (B, H', W'))`` with ``cols`` of shape
    (B*H'*W', C*k*k), H' = H - k + 1.  Row (b*H' + m)*W' + n is the patch
    at output position (m, n) of image b; column u*k*k + i*k + j holds
    x[b, u, m+i, n+j], the u*Q + q order of
    ``conv_math.kernels_to_weight_matrix``.  One GEMM against the flattened
    kernels then evaluates the convolution (Chellapilla et al. 2006).

    ``cols`` is the transposed view of a contiguous (C*k*k, B*H'*W') array
    that holds one row per (channel, tap): each row is one shifted window
    of one channel, copied in runs of W' elements, fastest from a
    channel-major batch.  ``cols.T`` is therefore C-contiguous, and
    ``weights @ cols.T`` is a (C_O, B*H'*W') result already channel-major;
    ``rows_to_batch`` views it as (B, C_O, H', W').

    With ``out``, a (C*k*k, B*H'*W') array whose rows have unit stride
    (a column slice of a wider one, say), the rows are written there and
    ``out.T`` is returned.
    """
    windows = sliding_window_view(x.transpose(1, 0, 2, 3), (kernel, kernel),
                                  axis=(2, 3))
    c, b, h, w, _, _ = windows.shape
    taps = windows.transpose(0, 4, 5, 1, 2, 3)
    if out is None:
        # a reshape that needs no copy (a 1x1 kernel, say) leaves a strided
        # view
        out = np.ascontiguousarray(taps.reshape(c * kernel * kernel,
                                                b * h * w))
    else:
        np.copyto(np.reshape(out, taps.shape, copy=False), taps)
    return out.T, (b, h, w)


def conv_gemm(x: np.ndarray, kernel: int, weights: np.ndarray, *,
              input_grad: bool = False, rows: np.ndarray | None = None,
              each=None):
    """``weights @ cols.T``, (C_O, B*H'*W'), for ``cols, dims = im2col(x,
    kernel)``, or with ``input_grad`` ``cols @ weights``, (B*H'*W', C_I).

    Returns ``(product, dims)``.  The batch is lowered and multiplied
    ``CHUNK`` images at a time, each chunk's GEMM writing that chunk's
    columns of the product (its rows, with ``input_grad``), so no lowering
    of the whole batch is made.  A chunk starts on a multiple of ``CHUNK``
    images, so each output rounds as in one GEMM over the batch.  The
    chunks' lowerings go into one chunk-sized buffer, or, with ``rows``, a
    (C*k*k, B*H'*W') array whose rows have unit stride, into their columns
    of ``rows``, which then holds the whole lowering.  ``each(n,
    part)``, if given, runs after each chunk's GEMM, with the chunk's image
    count and its slice of the product.
    """
    b, c, height, width = x.shape
    dims = (b, height - kernel + 1, width - kernel + 1)
    hw = dims[1] * dims[2]
    keep = rows is not None
    if not keep:
        rows = np.empty((c * kernel * kernel, min(b, CHUNK) * hw))
    if input_grad:
        out = np.empty((b * hw, weights.shape[1]))
    else:
        out = np.empty((weights.shape[0], b * hw))
    for start in range(0, b, CHUNK):
        stop = min(start + CHUNK, b)
        own = slice(start * hw, stop * hw)
        lowered = rows[:, own] if keep else rows[:, :(stop - start) * hw]
        cols, _ = im2col(x[start:stop], kernel, out=lowered)
        if input_grad:
            part = np.matmul(cols, weights, out=out[own])
        else:
            part = np.matmul(weights, cols.T, out=out[:, own])
        if each is not None:
            each(stop - start, part)
    return out, dims


def rows_to_batch(rows: np.ndarray, dims) -> np.ndarray:
    """(B, C, H, W) view of a (C, B*H*W) product, ``dims`` = (B, H, W)."""
    return rows.reshape(rows.shape[0], *dims).transpose(1, 0, 2, 3)


class Conv2D(Layer):
    """Stride-1 2-D convolution (cross-correlation) with zero padding."""

    def __init__(self, c_in: int, c_out: int, kernel: int = 3, pad: int = 1,
                 *, rng: np.random.Generator):
        super().__init__()
        self.c_in, self.c_out, self.kernel, self.pad = c_in, c_out, kernel, pad
        fan_in = c_in * kernel * kernel
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                            size=(c_out, c_in, kernel, kernel))
        self.b = np.zeros(c_out)
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self.params = [self.w, self.b]

    def forward(self, x, train=False, *, first=0, batch=None):
        """Output (B, C_O, H', W'), channel-major in memory.

        In training, ``batch`` is the ``GradBatch`` whose images first,
        first + 1, ... ``x`` holds; its ``reduce`` fills the parameter
        gradients once every part has run ``backward``.  Without it ``x``
        is a batch of its own (``first`` 0), and ``backward`` fills them.
        The part's lowering is written into its columns of the batch's
        ``rows``.
        """
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise DimensionError(
                f"conv input shape {x.shape} incompatible with c_in={self.c_in}"
            )
        x = pad_hw(x, self.pad)
        k, rows = self.kernel, None
        if train:
            alone = batch is None
            batch = batch or GradBatch(len(x), self)
            b, c, height, width = x.shape
            hw = (height - k + 1) * (width - k + 1)
            rows = batch.array("rows", (c * k * k, batch.n * hw))[
                :, first * hw:(first + b) * hw]
            self.state[first] = batch, alone
        out, dims = conv_gemm(x, k, self.w.reshape(self.c_out, -1), rows=rows)
        out += self.b[:, None]
        return rows_to_batch(out, dims)

    def backward(self, grad, input_grad=True, *, first=0):
        """Return dL/dx, or None if ``input_grad`` is False.

        The part's output gradient is written into its images of the
        batch's channel-major ``grads``, (C_O, n, H', W').
        """
        k, p = self.kernel, self.pad
        batch, alone = self.state.pop(first)
        b, c, h, w = grad.shape
        grads = batch.array("grads", (c, batch.n, h, w))
        grads.transpose(1, 0, 2, 3)[first:first + b] = grad
        if alone:
            batch.reduce()
        if not input_grad:
            return None
        # dx is the full correlation of grad with the flipped kernel, cropped
        # by p.  Padding grad by e = k-1-p instead of k-1 lowers only the
        # patches of that interior; for p > k-1 grad is cropped by -e.
        e = k - 1 - p
        if e > 0:
            grad = pad_hw(grad, e)
        elif e < 0:
            grad = grad[:, :, -e:e, -e:e]
        w_flip = self.w[:, :, ::-1, ::-1]
        # matrix with rows indexed (o, i, j) to match the lowering's columns
        w_mat = w_flip.transpose(0, 2, 3, 1).reshape(-1, self.c_in)
        dx, (b, bh, bw) = conv_gemm(grad, k, w_mat, input_grad=True)
        return dx.reshape(b, bh, bw, self.c_in).transpose(0, 3, 1, 2)

    def grad_operands(self, batch: GradBatch):
        """(a, b): the weight gradient is ``a @ b``."""
        return (batch.arrays["grads"].reshape(self.c_out, -1),
                batch.arrays["rows"].T)

    def bias_grad(self, batch: GradBatch) -> np.ndarray:
        """The output gradient summed over images and positions, in the
        order numpy sums a C-order (n, C_O, H', W') copy over axes
        (0, 2, 3): each image's H'*W' run of a channel pairwise, then
        those sums image by image from 0.0.

        With one channel that copy is one run of n*H'*W' values, summed
        pairwise as a whole, and ``grads`` holds it in the same order.
        """
        grads = batch.arrays["grads"]
        c, n, h, w = grads.shape
        if c == 1:
            return grads.reshape(1, -1).sum(axis=1)
        per_image = np.empty((n, c))
        grads.reshape(c, n, h * w).sum(axis=2, out=per_image.T)
        # a reduction over the outer axis of a C-order array adds row by row
        return per_image.sum(axis=0)


class GradBatch:
    """A training batch of ``n`` images at one conv or dense layer, whose
    parts may run apart, on other threads.

    Each part writes its images' columns or rows of the layer's full-batch
    arrays (``array``): in ``forward`` what the weights multiply, in
    ``backward`` the output gradient.  ``reduce`` then computes the weight
    gradient as one GEMM and the bias gradient as one sum over the whole
    batch, on arrays laid out as those of a one-part batch (the layer's
    ``grad_operands`` and ``bias_grad``), so how the batch was split never
    changes their bits.

    Whichever part asks first makes an array: a batch that keeps nothing
    holds its forward arrays through its backward pass only.  They go with
    the batch, unless ``kept``, a dict that outlives it, keeps them for
    this layer's next batch of the same size.
    """

    def __init__(self, n: int, layer: Layer, kept: dict | None = None):
        self.n = n
        self.layer = layer
        self.kept = {} if kept is None else kept
        self.arrays = {}
        self._lock = threading.Lock()

    def array(self, name: str, shape) -> np.ndarray:
        """The batch's array ``name``: the one ``kept`` holds for this layer
        under that name if it has ``shape``, else a new one that ``kept``
        holds from now on."""
        with self._lock:
            array = self.arrays.get(name)
            if array is None:
                key = self.layer, name
                array = self.kept.get(key)
                if array is None or array.shape != shape:
                    array = self.kept[key] = np.empty(shape)
                self.arrays[name] = array
        return array

    def gemm_size(self) -> int:
        """Multiply-adds of the weight gradient's GEMM."""
        a, b = self.layer.grad_operands(self)
        return a.shape[0] * a.shape[1] * b.shape[1]

    def reduce(self) -> None:
        """Fill the layer's weight and bias gradients."""
        a, b = self.layer.grad_operands(self)
        w_grad, b_grad = self.layer.grads
        w_grad[...] = (a @ b).reshape(w_grad.shape)
        b_grad[...] = self.layer.bias_grad(self)


class ReLU(Layer):
    def forward(self, x, train=False, *, first=0):
        if train:
            self.state[first] = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad, *, first=0):
        return grad * self.state.pop(first)


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; input height/width must be even.

    Forward takes each row's maximum over a tile's two columns, then the
    larger of the tile's two row maxima.  Training keeps one byte per tile
    that names the element the gradient goes to, ``2 * down + right``: the
    tile's first maximum in row-major order (the element ``argmax`` picks).
    ``backward`` writes each output gradient there with one scatter into
    zeros laid out in memory like the input.  A tile that holds NaN has no
    maximum, and its gradient goes nowhere.

    The scatter's index is each tile's corner offset plus the offset the
    kept byte names.  The corner offsets depend only on the kept bytes'
    shape and the input's memory order, so the layer keeps them, read-only,
    under those two, in ``corners``.  Two parts of a batch on two threads
    may make the same entry at once; both make equal arrays, and whichever
    is stored last stays, so the race is harmless.
    """

    def __init__(self):
        super().__init__()
        self.corners = {}

    def forward(self, x, train=False, *, first=0):
        if x.shape[2] % 2 or x.shape[3] % 2:
            raise DimensionError(f"pooling needs even height/width, got {x.shape}")
        left, right = x[..., 0::2], x[..., 1::2]
        rows = np.maximum(left, right)
        top, bottom = rows[:, :, 0::2], rows[:, :, 1::2]
        out = np.maximum(top, bottom)
        if train:
            # ties go to the top row and to the left column
            down = (bottom > top).view(np.uint8)
            to_right = (right > left).view(np.uint8)
            upper, lower = to_right[:, :, 0::2], to_right[:, :, 1::2]
            # where(down, 2 + lower, upper) in uint8 arithmetic, which wraps
            code = lower + np.uint8(2)
            code -= upper
            code *= down
            code += upper
            nan_tiles = np.isnan(out)
            self.state[first] = (code, nan_tiles if nan_tiles.any() else None,
                                 x.strides)
        return out

    def backward(self, grad, *, first=0):
        code, nan_tiles, strides = self.state.pop(first)
        if nan_tiles is not None:
            grad = np.where(nan_tiles, 0.0, grad)
        # zeros laid out like the input; the scatter walks its memory order,
        # outermost axis first
        order = tuple(np.argsort(-np.asarray(strides), kind="stable"))
        tile = np.array((1, 1, 2, 2))
        flat = np.zeros(4 * code.size)
        dx = flat.reshape(np.take(tile * code.shape, order)).transpose(
            np.argsort(order))
        steps = np.array(dx.strides) // dx.itemsize
        corners = self.corners.get((code.shape, order))
        if corners is None:
            corners = np.zeros((), dtype=np.intp)
            for axis in order:
                corners = np.add.outer(corners, np.arange(code.shape[axis])
                                       * tile[axis] * steps[axis])
            corners.flags.writeable = False
            self.corners[code.shape, order] = corners
        sh, sw = steps[2:]
        index = np.take((0, sw, sh, sh + sw), code.transpose(order))
        index += corners
        flat[index] = grad.transpose(order)
        return dx


class Flatten(Layer):
    def forward(self, x, train=False, *, first=0):
        if train:
            self.state[first] = x.shape
        # the width is given, not inferred: -1 is undefined for 0 images
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad, *, first=0):
        return grad.reshape(self.state.pop(first))


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int, *, rng: np.random.Generator):
        super().__init__()
        self.w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self.params = [self.w, self.b]

    def forward(self, x, train=False, *, first=0, batch=None):
        """Output (B, n_out); ``first`` and ``batch`` as for
        ``Conv2D.forward``.

        In training the part's input is copied into its rows of the batch's
        ``x``.
        """
        if x.shape[1] != self.w.shape[0]:
            raise DimensionError(
                f"dense input width {x.shape[1]} != {self.w.shape[0]}"
            )
        if train:
            alone = batch is None
            batch = batch or GradBatch(len(x), self)
            batch.array("x", (batch.n, x.shape[1]))[first:first + len(x)] = x
            self.state[first] = batch, alone
        return x @ self.w + self.b

    def backward(self, grad, *, first=0):
        """Return dL/dx; the part's output gradient is copied into its rows
        of the batch's ``grad``."""
        batch, alone = self.state.pop(first)
        batch.array("grad", (batch.n, grad.shape[1]))[
            first:first + len(grad)] = grad
        if alone:
            batch.reduce()
        return grad @ self.w.T

    def grad_operands(self, batch: GradBatch):
        """As ``Conv2D.grad_operands``."""
        return batch.arrays["x"].T, batch.arrays["grad"]

    def bias_grad(self, batch: GradBatch) -> np.ndarray:
        """As ``Conv2D.bias_grad``: the output gradient summed over images."""
        return batch.arrays["grad"].sum(axis=0)


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
