"""The four-layer CNN (2 conv + 2 FC), its trainer, and checkpoint I/O.

Architecture: Conv3x3(1->32, pad 1) - ReLU - MaxPool2 - Conv3x3(32->32,
pad 1) - ReLU - MaxPool2 - Flatten - FC(1568->512) - ReLU - FC(512->10).
ReLU keeps activations non-negative, which the intensity-encoded photonic
execution of the conv layers requires.  Training is plain minibatch SGD
with momentum, fully digital and deterministic given the seed.
"""

from __future__ import annotations

import hashlib
import json
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidSpecError, TrainingError
from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2, ReLU, cross_entropy_loss

ARCH_VERSION = 1

# Images per block of an inference pass, digital or hybrid.  A block's
# largest arrays (conv2's 14 MB lowering, conv1's 6.4 MB output) stay under
# glibc's 32 MiB mmap ceiling, so they are reused from the heap instead of
# being mapped and faulted in afresh for every batch.
INFER_BLOCK = 32


def check_batch_size(batch_size) -> None:
    """Raise InvalidSpecError unless the batch size is an integer >= 1."""
    try:
        operator.index(batch_size)
    except TypeError:
        raise InvalidSpecError(
            f"batch size must be an integer, got {batch_size!r}") from None
    if batch_size < 1:
        raise InvalidSpecError(f"batch size must be >= 1, got {batch_size}")


def run_on_two_threads(run, starts, name: str) -> None:
    """``run(starts[1::2])`` on one helper thread while the calling thread
    runs ``run(starts[0::2])``; fewer than two starts start no thread.

    The helper is joined before this returns or raises; an error of either
    thread is raised.
    """
    if len(starts) < 2:
        run(starts)
        return
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=name) as pool:
        helper = pool.submit(run, starts[1::2])
        try:
            run(starts[0::2])
        finally:
            helper.result()


@dataclass
class Hyperparams:
    epochs: int = 5
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    seed: int = 0

    def validate(self):
        if self.epochs < 1:
            raise InvalidSpecError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise InvalidSpecError(f"learning rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise InvalidSpecError(f"momentum must be in [0, 1), got {self.momentum}")
        check_batch_size(self.batch_size)


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
            Dense(32 * 7 * 7, 512, rng=rng),
            ReLU(),
            Dense(512, 10, rng=rng),
        ]
        self.metadata: dict = {"seed": seed, "trained": False}

    @property
    def conv_layers(self) -> list[Conv2D]:
        return [layer for layer in self.layers if isinstance(layer, Conv2D)]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def loss_and_backward(self, x: np.ndarray, labels: np.ndarray) -> float:
        logits = self.forward(x, train=True)
        loss, grad = cross_entropy_loss(logits, labels)
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        # nothing reads the gradient with respect to the input images
        first.backward(grad, input_grad=False)
        return loss

    def predict(self, x: np.ndarray,
                batch_size: int = INFER_BLOCK) -> np.ndarray:
        """Predicted class per image; an empty batch gives an empty array.

        Evaluates blocks of ``batch_size`` images, the odd-numbered ones on
        one helper thread while the calling thread takes the rest, so at
        most two threads work at once; a single block starts no thread.
        Inference-mode layers keep no state, so the two may share the
        model.  The logits of a block round like those of any batch of its
        size; only their argmax leaves this method.
        """
        check_batch_size(batch_size)
        starts = range(0, len(x), batch_size)
        preds = np.empty(len(x), dtype=np.intp)

        def run(block_starts):
            for i in block_starts:
                preds[i:i + batch_size] = self.forward(
                    x[i:i + batch_size]).argmax(axis=1)

        run_on_two_threads(run, starts, "ipcnn-predict")
        return preds

    def accuracy(self, x: np.ndarray, labels: np.ndarray,
                 batch_size: int = INFER_BLOCK) -> float:
        """Fraction of correct predictions; NaN for an empty batch."""
        if len(labels) != len(x):
            raise DimensionError(f"{len(labels)} labels for {len(x)} images")
        preds = self.predict(x, batch_size)
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
    """Minibatch SGD with momentum; raises TrainingError on divergence."""
    hyper.validate()
    rng = np.random.default_rng(hyper.seed)
    params = model.parameters()
    grads = model.gradients()
    velocity = [np.zeros_like(p) for p in params]
    n = len(train_images)
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for batch_idx, start in enumerate(range(0, n, hyper.batch_size)):
            sel = order[start:start + hyper.batch_size]
            loss = model.loss_and_backward(train_images[sel], train_labels[sel])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"loss diverged at epoch {epoch}, batch {batch_idx}"
                )
            for p, g, v in zip(params, grads, velocity):
                v *= hyper.momentum
                v -= hyper.learning_rate * g
                p += v
        if log is not None:
            log(f"epoch {epoch + 1}/{hyper.epochs}: last batch loss {loss:.4f}")
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
    """Lossless versioned checkpoint: parameter arrays + JSON metadata."""
    arrays = {f"param_{i}": p for i, p in enumerate(model.parameters())}
    meta = {"arch_version": ARCH_VERSION, "metadata": model.metadata}
    np.savez_compressed(path, __meta__=np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path, seed: int = 0) -> NetworkModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("arch_version") != ARCH_VERSION:
            raise DimensionError(
                f"checkpoint arch version {meta.get('arch_version')} "
                f"!= {ARCH_VERSION}"
            )
        model = NetworkModel(seed=seed)
        params = model.parameters()
        for i, p in enumerate(params):
            stored = data[f"param_{i}"]
            if stored.shape != p.shape:
                raise DimensionError(
                    f"checkpoint param_{i} shape {stored.shape} != {p.shape}"
                )
            p[...] = stored
        model.metadata = meta["metadata"]
    return model
