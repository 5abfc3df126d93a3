"""IDX-format dataset ingestion (big-endian MNIST files, optionally gzipped)."""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, IpcnnError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# The dataset's square image width and its number of classes (digits 0-9)
IMAGE_WIDTH = 28
N_CLASSES = 10

DATA_DIR_ENV = "IPCNN_DATA_DIR"

# canonical file names, with common underscore variants
_FILE_CANDIDATES = {
    "train_images": ["train-images-idx3-ubyte", "train-images.idx3-ubyte"],
    "train_labels": ["train-labels-idx1-ubyte", "train-labels.idx1-ubyte"],
    "test_images": ["t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"],
    "test_labels": ["t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"],
}


class IdxParseError(IpcnnError, ValueError):
    """Malformed IDX file; message names the byte offset of the problem."""


@dataclass(frozen=True)
class Dataset:
    """Images in [0, 1], shape (N, 28, 28); integer labels in [0, 9]."""

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray


def _read_bytes(path) -> bytes:
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return fh.read()
    return path.read_bytes()


def read_idx(path) -> np.ndarray:
    """Parse one big-endian IDX file into an array (uint8 payloads only)."""
    raw = _read_bytes(path)
    if len(raw) < 4:
        raise IdxParseError(f"{path}: truncated header at byte offset {len(raw)}")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic not in (IMAGE_MAGIC, LABEL_MAGIC):
        raise IdxParseError(f"{path}: bad magic 0x{magic:08x} at byte offset 0")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxParseError(
            f"{path}: truncated dimension table at byte offset {len(raw)}"
        )
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = header_len + int(np.prod(dims))
    if len(raw) < expected:
        raise IdxParseError(
            f"{path}: truncated payload at byte offset {len(raw)} "
            f"(expected {expected} bytes)"
        )
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_len,
                         count=int(np.prod(dims)))
    return data.reshape(dims)


def write_idx(path, array: np.ndarray) -> None:
    """Write a uint8 array as a big-endian IDX file (2-D -> labels-style
    only when 1-D; 3-D -> images-style)."""
    array = np.asarray(array, dtype=np.uint8)
    magic = LABEL_MAGIC if array.ndim == 1 else IMAGE_MAGIC
    if array.ndim not in (1, 3):
        raise DimensionError(f"IDX writer supports 1-D or 3-D, got {array.ndim}-D")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(array.tobytes())


def load_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load one (images, labels) IDX pair; pixels scaled to [0, 1]."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise IdxParseError(f"{images_path}: expected 3-D image file")
    if labels.ndim != 1:
        raise IdxParseError(f"{labels_path}: expected 1-D label file")
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"count mismatch: {images.shape[0]} images vs "
            f"{labels.shape[0]} labels"
        )
    if images.shape[0] == 0:
        raise IdxParseError(f"{images_path}: holds no images")
    above = np.flatnonzero(labels >= N_CLASSES)
    if above.size:
        # a 1-D IDX file has an 8-byte header
        raise IdxParseError(
            f"{labels_path}: label {labels[above[0]]} above {N_CLASSES - 1} "
            f"at byte offset {8 + above[0]}")
    return images.astype(float) / 255.0, labels.astype(np.int64)


def _find(directory: Path, names: list[str]) -> Path | None:
    for name in names:
        for candidate in (directory / name, directory / (name + ".gz")):
            if candidate.exists():
                return candidate
    return None


def find_mnist_dir(directory=None) -> Path | None:
    """Resolve the dataset directory: explicit arg, env var, or ./data."""
    for cand in (directory, os.environ.get(DATA_DIR_ENV), "data"):
        if cand is None:
            continue
        path = Path(cand)
        if _find(path, _FILE_CANDIDATES["train_images"]) is not None:
            return path
    return None


def load_mnist(directory) -> Dataset:
    """Load the four canonical MNIST files from a directory."""
    directory = Path(directory)
    paths = {}
    for key, names in _FILE_CANDIDATES.items():
        found = _find(directory, names)
        if found is None:
            raise FileNotFoundError(
                f"no {names[0]}[.gz] under {directory}"
            )
        paths[key] = found
    train_x, train_y = load_pair(paths["train_images"], paths["train_labels"])
    test_x, test_y = load_pair(paths["test_images"], paths["test_labels"])
    return Dataset(train_x, train_y, test_x, test_y)
