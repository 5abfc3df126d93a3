"""Deterministic synthetic 10-class image dataset.

A stand-in for environments without the MNIST files: ten fixed
low-frequency intensity templates, each sample a randomly shifted copy
with pixel noise, clipped to [0, 1].  The classes are easily separable,
so the reference CNN trains to high accuracy in seconds, which is all the
fault-injection experiments need.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mnist import IMAGE_WIDTH, N_CLASSES, Dataset

# Images whose pixel noise one draw makes: the draws of a stream follow one
# another, so the values are those of one draw for every image, without a
# temporary the size of the set.
_NOISE_CHUNK = 256


def _templates(rng: np.random.Generator) -> np.ndarray:
    """Ten smooth, distinct 28x28 templates from random 2-D cosines."""
    y, x = np.meshgrid(np.arange(IMAGE_WIDTH), np.arange(IMAGE_WIDTH),
                       indexing="ij")
    templates = np.zeros((N_CLASSES, IMAGE_WIDTH, IMAGE_WIDTH))
    for c in range(N_CLASSES):
        img = np.zeros((IMAGE_WIDTH, IMAGE_WIDTH))
        for _ in range(4):
            fx, fy = rng.uniform(0.5, 3.0, size=2) / IMAGE_WIDTH
            phase = rng.uniform(0, 2 * np.pi)
            img += rng.uniform(0.3, 1.0) * np.cos(
                2 * np.pi * (fx * x + fy * y) + phase
            )
        img -= img.min()
        templates[c] = img / img.max()
    return templates


def _shifted(templates: np.ndarray, labels: np.ndarray,
             shifts: np.ndarray) -> np.ndarray:
    """templates[labels[i]] cyclically shifted by shifts[i] = (dy, dx).

    out[i, r, c] = template[(r - dy) mod L, (c - dx) mod L], what np.roll
    gives: the L x L window at ((-dy) mod L, (-dx) mod L) of the template
    tiled 2 x 2, read with one gather from a window view of the tiles.
    """
    tiled = np.tile(templates, (1, 2, 2))
    windows = sliding_window_view(tiled, (IMAGE_WIDTH, IMAGE_WIDTH),
                                  axis=(1, 2))
    corners = -shifts % IMAGE_WIDTH
    return windows[labels, corners[:, 0], corners[:, 1]]


def make_synthetic_dataset(
    n_train: int = 4000,
    n_test: int = 1000,
    seed: int = 1234,
    max_shift: int = 3,
    noise: float = 0.05,
) -> Dataset:
    rng = np.random.default_rng(seed)
    templates = _templates(rng)

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, N_CLASSES, size=n)
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
        images = _shifted(templates, labels, shifts)
        for start in range(0, n, _NOISE_CHUNK):
            part = images[start:start + _NOISE_CHUNK]
            part += rng.normal(0.0, noise, size=part.shape)
        return np.clip(images, 0.0, 1.0, out=images), labels

    train_x, train_y = sample(n_train)
    test_x, test_y = sample(n_test)
    return Dataset(train_x, train_y, test_x, test_y)
