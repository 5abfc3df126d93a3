import hashlib

import numpy as np
import pytest

from ipcnn.synth import IMAGE_WIDTH, N_CLASSES, _templates, make_synthetic_dataset


def roll_loop_dataset(n_train, n_test, seed, max_shift=3, noise=0.05):
    """Per-image np.roll loop, same draw order: the route the gather replaced."""
    rng = np.random.default_rng(seed)
    templates = _templates(rng)

    def sample(n):
        labels = rng.integers(0, N_CLASSES, size=n)
        images = templates[labels].copy()
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
        for i, (dy, dx) in enumerate(shifts):
            images[i] = np.roll(images[i], (dy, dx), axis=(0, 1))
        images += rng.normal(0.0, noise, size=images.shape)
        return np.clip(images, 0.0, 1.0), labels

    return sample(n_train) + sample(n_test)


def test_default_dataset_pinned():
    ds = make_synthetic_dataset()
    h = hashlib.sha256()
    for array in (ds.train_images, ds.train_labels, ds.test_images,
                  ds.test_labels):
        h.update(array.tobytes())
    assert h.hexdigest() == (
        "fb613f02f71a5bb4068be750a5137bfa383ab7cd703242c962dc258bbd94f09c")


@pytest.mark.parametrize("n_train, n_test, seed, max_shift", [
    (50, 20, 0, 3),
    (7, 0, 99, 1),
    (30, 5, 1234, IMAGE_WIDTH + 5),
])
def test_gather_equals_roll_loop(n_train, n_test, seed, max_shift):
    ds = make_synthetic_dataset(n_train=n_train, n_test=n_test, seed=seed,
                                max_shift=max_shift)
    expected = roll_loop_dataset(n_train, n_test, seed, max_shift=max_shift)
    got = (ds.train_images, ds.train_labels, ds.test_images, ds.test_labels)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and np.array_equal(a, b)
