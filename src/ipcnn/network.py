"""The four-layer CNN (2 conv + 2 FC), its trainer, and checkpoint I/O.

Architecture: Conv3x3(1->32, pad 1) - ReLU - MaxPool2 - Conv3x3(32->32,
pad 1) - ReLU - MaxPool2 - Flatten - FC(1568->512) - ReLU - FC(512->10).
ReLU keeps activations non-negative, which the intensity-encoded photonic
execution of the conv layers requires.  Every pass, training or inference,
walks the layers in one order (``NetworkModel.walk``): each ReLU that feeds
a MaxPool2 runs after it, on the pooled quarter of the values, which gives
the values of the listed order.  Training is plain minibatch SGD with
momentum, fully digital and deterministic given the seed.

A training step runs every layer on two parts of the batch, one on a
helper thread, and computes the weight gradients on two threads, each
layer's over the whole batch; its gradients are bit-identical to those of
one thread (see ``loss_and_backward``).  Inference, digital or hybrid,
is one blocked walk on two threads (see ``NetworkModel.logits``), in
which hybrid inference runs its analog convs in place of the conv layers.
``map_on_threads`` starts every helper thread of the package, and a call
nested in one of its shares, such as a sweep job's walk, starts none.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import zipfile
import zlib
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (CheckpointError, DimensionError, InvalidSpecError,
                     IpcnnError, TrainingError, check_count)
from .layers import (CHUNK, Conv2D, Dense, Flatten, GradBatch, Layer,
                     MaxPool2, ReLU, cross_entropy_loss)
from .mnist import IMAGE_WIDTH, N_CLASSES

ARCH_VERSION = 1

# Images per block of an inference pass, digital or hybrid.  A block's
# largest array, conv1's 6.4 MB output, stays under glibc's 32 MiB mmap
# ceiling, so it is reused from the heap instead of being mapped and
# faulted in afresh for every batch.
INFER_BLOCK = 32


def check_labels(labels, n_images: int, n_classes: int) -> np.ndarray:
    """The labels as an array; raises DimensionError unless they are a 1-D
    array of one per image, and InvalidSpecError unless each is an integer
    in [0, ``n_classes``)."""
    labels = np.asarray(labels)
    if labels.shape != (n_images,):
        raise DimensionError(
            f"{labels.size} labels of shape {labels.shape} for {n_images} "
            f"images; want a 1-D array of {n_images}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidSpecError(
            f"labels must be integers, got dtype {labels.dtype}")
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if len(bad):
        raise InvalidSpecError(
            f"labels must be in [0, {n_classes}), got {bad[0]}")
    return labels


# Set in each share of a ``map_on_threads`` call, so a call nested in it
# runs inline instead of starting threads of its own.
_IN_SHARE = contextvars.ContextVar("ipcnn_in_share", default=False)


def map_on_threads(fn, items, threads: int, name: str | None,
                   pool: ThreadPoolExecutor | None = None) -> list:
    """``[fn(item) for item in items]``, on up to ``threads`` threads.

    Item i runs in share i mod n, n = min(``threads``, len(items)).  Share
    0 runs on the calling thread, the others on ``pool`` or else on threads
    named ``name`` started for this call.  Each share runs in a copy of the
    caller's context, so the caller's ``np.errstate`` holds in all of
    them, and every share is done before this returns or raises.  One
    share, no ``name``, or a call nested in a share of another runs every
    item inline and starts no thread.
    """
    items = list(items)
    n = min(threads, len(items))
    if n < 2 or name is None or _IN_SHARE.get():
        return [fn(item) for item in items]
    results = [None] * len(items)

    def share(k):
        _IN_SHARE.set(True)
        for i in range(k, len(items), n):
            results[i] = fn(items[i])

    with contextlib.ExitStack() as stack:
        if pool is None:
            pool = stack.enter_context(ThreadPoolExecutor(
                max_workers=n - 1, thread_name_prefix=name))
        helpers = [pool.submit(contextvars.copy_context().run, share, k)
                   for k in range(1, n)]
        try:
            contextvars.copy_context().run(share, 0)
        finally:
            futures.wait(helpers)
        for helper in helpers:
            helper.result()
    return results


@dataclass
class Hyperparams:
    epochs: int = 5
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    seed: int = 0

    def validate(self):
        check_count("epochs", self.epochs)
        if self.learning_rate <= 0:
            raise InvalidSpecError(f"learning rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise InvalidSpecError(f"momentum must be in [0, 1), got {self.momentum}")
        check_count("batch size", self.batch_size)


class NetworkModel:
    """Fixed-topology CNN; owns its layers and training metadata."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.layers: list[Layer] = [
            Conv2D(1, 32, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2(),
            Conv2D(32, 32, kernel=3, pad=1, rng=rng),
            ReLU(),
            MaxPool2(),
            Flatten(),
            Dense(32 * (IMAGE_WIDTH // 4) ** 2, 512, rng=rng),
            ReLU(),
            Dense(512, N_CLASSES, rng=rng),
        ]
        self.metadata: dict = {"seed": seed, "trained": False}

    @property
    def conv_layers(self) -> list[Conv2D]:
        return [layer for layer in self.layers if isinstance(layer, Conv2D)]

    @property
    def n_classes(self) -> int:
        return self.layers[-1].w.shape[1]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    @property
    def walk(self) -> list[Layer]:
        """``layers`` in the order every pass runs them, forward (and
        backward in reverse): each ReLU that feeds a MaxPool2 runs after
        it, on the pooled quarter of the values.  Max and ReLU are both
        monotone, so they commute: every value, forward and backward, is
        that of the listed order, and where a tile's maximum is positive
        its gradient goes to the same element.  Only the sign of a zero
        may differ, as where a tile holds no positive value and its zero
        gradient goes to its first maximum instead of its first element."""
        walk = list(self.layers)
        for i in range(len(walk) - 1):
            if isinstance(walk[i], ReLU) and isinstance(walk[i + 1],
                                                        MaxPool2):
                walk[i], walk[i + 1] = walk[i + 1], walk[i]
        return walk

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.walk:
            x = layer.forward(x, train=train)
        return x

    def loss_and_backward(self, x: np.ndarray, labels: np.ndarray,
                          arrays: dict | None = None,
                          helper: ThreadPoolExecutor | None = None) -> float:
        """Mean loss of a training batch; fills every parameter gradient.

        The batch runs through the network in two parts, cut at the
        multiple of ``layers.CHUNK`` images nearest to n/2: the first part
        on the calling thread, the rest on one helper thread, both through
        ``self.walk``, each layer keeping each part's state under the
        part's first image (``Layer.state``).  The parts join for the loss,
        one call over the whole batch's logits, and run backward apart
        again.  Each conv or dense layer's parts write into one
        ``GradBatch``, whose weight and bias gradients are one reduction
        over the whole batch after the join.  So the gradients are those of
        a one-part pass, bit for bit.  The reductions also run on two
        threads, split by whole layers: the largest weight GEMM (conv2's)
        on the helper, every other layer's reduction on the calling thread.

        A batch whose cut falls at 0 or leaves one image (9 images or
        fewer) is one part and starts no thread: a one-image part's dense
        GEMMs are matrix-vector products, which numpy rounds differently.

        ``arrays``, a dict that outlives the call, keeps the layers'
        full-batch arrays for the next call with as many images (see
        ``GradBatch``), and ``helper``'s worker takes the helper's share of
        each stage.  ``train`` passes both to all its steps; without a
        ``helper`` each stage starts a thread.  A step that raises drops
        every layer's ``state`` before it does.
        """
        n = len(x)
        cut = CHUNK * ((n + CHUNK) // (2 * CHUNK))
        parts = ([slice(0, cut), slice(cut, n)] if 0 < cut < n - 1
                 else [slice(0, n)])
        walk = self.walk
        batches = [GradBatch(n, layer, arrays) if layer.params else None
                   for layer in walk]

        def forward(part):
            y = x[part]
            for layer, batch in zip(walk, batches):
                extra = {} if batch is None else {"batch": batch}
                y = layer.forward(y, train=True, first=part.start, **extra)
            return y

        def backward(part):
            g = grad[part]
            for layer in reversed(walk[1:]):
                g = layer.backward(g, first=part.start)
            # nothing reads the gradient with respect to the input images
            walk[0].backward(g, input_grad=False, first=part.start)

        try:
            logits = map_on_threads(forward, parts, 2, "ipcnn-train", helper)
            loss, grad = cross_entropy_loss(np.concatenate(logits), labels)
            map_on_threads(backward, parts, 2, "ipcnn-train", helper)
        except BaseException:
            # a pass cut short would leave its masks and GradBatches here
            for layer in self.layers:
                layer.state.clear()
            raise
        reductions = sorted((batch for batch in batches if batch is not None),
                            key=GradBatch.gemm_size)
        groups = ([reductions[:-1], reductions[-1:]] if len(parts) > 1
                  else [reductions])

        def reduce(group):
            for batch in group:
                batch.reduce()

        map_on_threads(reduce, groups, 2, "ipcnn-train", helper)
        return loss

    def logits(self, x: np.ndarray, batch_size: int = INFER_BLOCK,
               conv=None, thread: str | None = "ipcnn-predict") -> np.ndarray:
        """Logits of a batch of (N, C, H, W) images, (0, n_classes) if empty.

        The one inference walk: batches of ``batch_size`` images alternate
        between the calling thread and a helper named ``thread`` (none if
        ``thread`` is None, see ``map_on_threads``), and each batch
        runs through every layer in blocks of at most ``INFER_BLOCK``
        images.  ``conv``, if given, stands in for the conv layers: a
        block's k-th conv is ``conv(k, block, first)``, where ``first`` is
        the index in ``x`` of the block's first image.
        """
        check_count("batch size", batch_size)
        out = np.empty((len(x), self.n_classes))

        walk = self.walk

        def run(start):
            end = min(start + batch_size, len(x))
            for first in range(start, end, INFER_BLOCK):
                y, k = x[first:min(first + INFER_BLOCK, end)], 0
                for layer in walk:
                    if conv is not None and isinstance(layer, Conv2D):
                        y, k = conv(k, y, first), k + 1
                    else:
                        y = layer.forward(y)
                out[first:first + len(y)] = y

        map_on_threads(run, range(0, len(x), batch_size), 2, thread)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class per image: the argmax of ``logits``."""
        return self.logits(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Fraction of correct predictions; NaN for an empty batch.  Bad
        labels raise as in ``check_labels``."""
        labels = check_labels(labels, len(x), self.n_classes)
        preds = self.predict(x)
        if len(preds) == 0:
            return float("nan")
        return float(np.mean(preds == labels))

    def model_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"arch-v{ARCH_VERSION}".encode())
        for p in self.parameters():
            h.update(np.ascontiguousarray(p).tobytes())
        return h.hexdigest()


def train(
    model: NetworkModel,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    hyper: Hyperparams,
    log=None,
) -> NetworkModel:
    """Minibatch SGD with momentum; raises TrainingError on divergence.

    Raises DimensionError unless there is one label per image, and
    InvalidSpecError for an empty training set or a label that is not an
    integer class index of the model.
    """
    hyper.validate()
    labels = check_labels(train_labels, len(train_images), model.n_classes)
    if len(train_images) == 0:
        raise InvalidSpecError("the training set holds no images")
    rng = np.random.default_rng(hyper.seed)
    params = model.parameters()
    grads = model.gradients()
    velocity = [np.zeros_like(p) for p in params]
    n = len(train_images)
    # The steps share one dict of the layers' full-batch arrays and one
    # helper thread.  Arrays made afresh by each step are faulted in afresh
    # and split the heap; a helper started afresh for each stage of each
    # step may find its predecessor's malloc arena still taken and open
    # another, which raised an epoch's peak memory by about 23 MiB in half
    # the runs.
    arrays = {}
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="ipcnn-train") as helper:
        for epoch in range(hyper.epochs):
            order = rng.permutation(n)
            for batch_idx, start in enumerate(range(0, n, hyper.batch_size)):
                sel = order[start:start + hyper.batch_size]
                loss = model.loss_and_backward(train_images[sel], labels[sel],
                                               arrays, helper)
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"loss diverged at epoch {epoch}, batch {batch_idx}"
                    )
                for p, g, v in zip(params, grads, velocity):
                    v *= hyper.momentum
                    v -= hyper.learning_rate * g
                    p += v
            if log is not None:
                log(f"epoch {epoch + 1}/{hyper.epochs}: "
                    f"last batch loss {loss:.4f}")
    model.metadata.update(
        trained=True,
        epochs=hyper.epochs,
        learning_rate=hyper.learning_rate,
        momentum=hyper.momentum,
        batch_size=hyper.batch_size,
        train_seed=hyper.seed,
    )
    return model


def save_checkpoint(model: NetworkModel, path) -> None:
    """Lossless versioned checkpoint: parameter arrays + JSON metadata.

    Stored uncompressed: float64 weights compress by about 4 %, and
    inflating them made each load two to three times as slow.
    ``load_checkpoint`` reads compressed checkpoints as well.
    """
    arrays = {f"param_{i}": p for i, p in enumerate(model.parameters())}
    meta = {"arch_version": ARCH_VERSION, "metadata": model.metadata}
    np.savez(path, __meta__=np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> NetworkModel:
    """The model saved at ``path`` by ``save_checkpoint``.

    Raises DimensionError for a checkpoint of another architecture
    version, or with an entry missing or of another shape, and
    CheckpointError (an OSError) for a file that cannot be read as one.
    """
    try:
        # the with block closes the file also when np.load raises
        with open(path, "rb") as handle:
            data = np.load(handle)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise CheckpointError(f"{path}: not an .npz archive")
            with data:
                meta = json.loads(bytes(_entry(data, "__meta__")).decode())
                if not isinstance(meta, dict) or "metadata" not in meta:
                    raise CheckpointError(
                        f"{path}: checkpoint metadata is not a JSON object "
                        "with 'metadata'")
                if meta.get("arch_version") != ARCH_VERSION:
                    raise DimensionError(
                        f"checkpoint arch version {meta.get('arch_version')} "
                        f"!= {ARCH_VERSION}"
                    )
                model = NetworkModel()
                for i, p in enumerate(model.parameters()):
                    stored = _entry(data, f"param_{i}")
                    if stored.shape != p.shape:
                        raise DimensionError(
                            f"checkpoint param_{i} shape {stored.shape} "
                            f"!= {p.shape}"
                        )
                    p[...] = stored
                model.metadata = meta["metadata"]
    except IpcnnError:
        raise
    # a pickle or a bad .npy header, JSON or UTF-8: ValueError; a cut file:
    # BadZipFile, EOFError or a zlib error
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(
            f"{path}: not a readable checkpoint ({exc})") from exc
    return model


def _entry(data: np.lib.npyio.NpzFile, name: str) -> np.ndarray:
    if name not in data.files:
        raise DimensionError(f"checkpoint has no entry {name}")
    return data[name]
