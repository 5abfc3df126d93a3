"""Shared fixtures.

MNIST is used whenever the IDX files are present (directory from
$IPCNN_DATA_DIR or ./data); otherwise the deterministic synthetic dataset
stands in and MNIST-only gates are skipped.  The trained model is cached
on disk keyed by a hash of everything that determines it (architecture
version, hyperparameters, training data), so repeated test runs do not
retrain and a change to any of those trains afresh.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from ipcnn.mnist import find_mnist_dir, load_mnist
from ipcnn.network import (
    ARCH_VERSION,
    Hyperparams,
    NetworkModel,
    load_checkpoint,
    save_checkpoint,
    train,
)
from ipcnn.synth import make_synthetic_dataset

CACHE_DIR = Path(__file__).parent / ".cache"

SYNTH_TRAIN = 4000
SYNTH_TEST = 1000
# 8 epochs: shorter schedules leave the surrogate model too close to the
# 1.5 pp noise-tolerance margin at -10 dBc
SYNTH_EPOCHS = 8
TRAIN_SEED = 0


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves more live threads than it started with."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, (
        f"{threading.active_count() - before} thread(s) left running: "
        f"{[t.name for t in threading.enumerate()]}")


@pytest.fixture(scope="session")
def mnist_dataset():
    """Real MNIST, or None when the files are not available."""
    directory = find_mnist_dir()
    if directory is None:
        return None
    return load_mnist(directory)


@pytest.fixture(scope="session")
def synth_dataset():
    return make_synthetic_dataset(n_train=SYNTH_TRAIN, n_test=SYNTH_TEST)


@pytest.fixture(scope="session")
def dataset(mnist_dataset, synth_dataset):
    """Preferred dataset: MNIST when present, synthetic otherwise."""
    return mnist_dataset if mnist_dataset is not None else synth_dataset


@pytest.fixture(scope="session")
def dataset_name(mnist_dataset):
    return "mnist" if mnist_dataset is not None else "synthetic"


def model_cache_key(hyper: Hyperparams, images, labels) -> str:
    """sha256 of the architecture version, hyperparameters and training data.

    ``hyper.seed`` is also the initialization seed (``NetworkModel(seed=)``).
    """
    h = hashlib.sha256()
    h.update(f"arch-v{ARCH_VERSION}".encode())
    h.update(json.dumps(dataclasses.asdict(hyper), sort_keys=True).encode())
    for array in (images, labels):
        h.update(str((array.dtype.str, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _train_cached(tag: str, dataset, epochs: int) -> NetworkModel:
    hyper = Hyperparams(epochs=epochs, seed=TRAIN_SEED)
    images = dataset.train_images[:, None, :, :]
    key = model_cache_key(hyper, images, dataset.train_labels)
    CACHE_DIR.mkdir(exist_ok=True)
    ckpt = CACHE_DIR / f"model_{tag}_{key[:16]}.npz"
    if ckpt.exists():
        return load_checkpoint(ckpt)
    model = NetworkModel(seed=hyper.seed)
    train(model, images, dataset.train_labels, hyper)
    save_checkpoint(model, ckpt)
    return model


@pytest.fixture(scope="session")
def trained_model(dataset, dataset_name):
    """Reference CNN trained on the preferred dataset (cached)."""
    epochs = 5 if dataset_name == "mnist" else SYNTH_EPOCHS
    return _train_cached(dataset_name, dataset, epochs)


@pytest.fixture(scope="session")
def eval_subset(dataset):
    """Fault-sweep evaluation subset: first 1000 test samples."""
    n = min(1000, len(dataset.test_labels))
    return dataset.test_images[:n], dataset.test_labels[:n]


@pytest.fixture(scope="session")
def clean_accuracy(trained_model, eval_subset):
    images, labels = eval_subset
    return trained_model.accuracy(images[:, None, :, :], labels)
