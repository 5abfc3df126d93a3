"""IDX reader tests against byte-level fixtures written with struct."""

import gzip
import struct

import numpy as np
import pytest

from ipcnn import network, synth
from ipcnn.mnist import (
    IMAGE_MAGIC,
    IMAGE_WIDTH,
    LABEL_MAGIC,
    N_CLASSES,
    Dataset,
    IdxParseError,
    find_mnist_dir,
    load_mnist,
    load_pair,
    read_idx,
    write_idx,
)


def make_image_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    return struct.pack(">IIII", IMAGE_MAGIC, n, h, w) + images.tobytes()


def make_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", LABEL_MAGIC, len(labels)) + labels.tobytes()


@pytest.fixture
def two_images():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)


@pytest.fixture
def two_labels():
    return np.array([3, 7], dtype=np.uint8)


class TestReadIdx:
    def test_images_round_trip(self, tmp_path, two_images):
        path = tmp_path / "imgs"
        path.write_bytes(make_image_bytes(two_images))
        np.testing.assert_array_equal(read_idx(path), two_images)

    def test_labels_round_trip(self, tmp_path, two_labels):
        path = tmp_path / "labels"
        path.write_bytes(make_label_bytes(two_labels))
        np.testing.assert_array_equal(read_idx(path), two_labels)

    def test_gzip_transparent(self, tmp_path, two_images):
        path = tmp_path / "imgs.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(make_image_bytes(two_images))
        np.testing.assert_array_equal(read_idx(path), two_images)

    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\x00" * 16)
        with pytest.raises(IdxParseError, match="byte offset 0"):
            read_idx(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(IdxParseError, match="byte offset 2"):
            read_idx(path)

    def test_truncated_dimension_table(self, tmp_path):
        path = tmp_path / "dims"
        path.write_bytes(struct.pack(">I", IMAGE_MAGIC) + b"\x00" * 4)
        with pytest.raises(IdxParseError, match="dimension table"):
            read_idx(path)

    def test_truncated_payload_names_offset(self, tmp_path, two_images):
        path = tmp_path / "trunc"
        raw = make_image_bytes(two_images)
        path.write_bytes(raw[:100])
        with pytest.raises(IdxParseError, match="byte offset 100"):
            read_idx(path)

    def test_write_idx_round_trip(self, tmp_path, two_images, two_labels):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx(ip, two_images)
        write_idx(lp, two_labels)
        np.testing.assert_array_equal(read_idx(ip), two_images)
        np.testing.assert_array_equal(read_idx(lp), two_labels)


class TestLoadPair:
    def test_scaling_and_types(self, tmp_path, two_images, two_labels):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx(ip, two_images)
        write_idx(lp, two_labels)
        images, labels = load_pair(ip, lp)
        assert images.dtype == float and labels.dtype == np.int64
        assert images.min() >= 0.0 and images.max() <= 1.0
        np.testing.assert_allclose(images, two_images / 255.0)

    def test_count_mismatch(self, tmp_path, two_images):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx(ip, two_images)
        write_idx(lp, np.array([1, 2, 3], dtype=np.uint8))
        with pytest.raises(IdxParseError, match="count mismatch"):
            load_pair(ip, lp)

    def test_empty_split_rejected(self, tmp_path):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx(ip, np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx(lp, np.zeros(0, dtype=np.uint8))
        with pytest.raises(IdxParseError, match="holds no images"):
            load_pair(ip, lp)

    def test_label_above_nine_rejected(self, tmp_path, two_images):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx(ip, two_images)
        write_idx(lp, np.array([9, 10], dtype=np.uint8))
        with pytest.raises(IdxParseError,
                           match="label 10 above 9 at byte offset 9"):
            load_pair(ip, lp)

    def test_wrong_rank_for_images(self, tmp_path, two_labels):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx(ip, two_labels)  # 1-D where 3-D is expected
        write_idx(lp, two_labels)
        with pytest.raises(IdxParseError, match="3-D"):
            load_pair(ip, lp)


class TestDirectoryResolution:
    def _write_full_set(self, directory, images, labels):
        directory.mkdir(exist_ok=True)
        write_idx(directory / "train-images-idx3-ubyte", images)
        write_idx(directory / "train-labels-idx1-ubyte", labels)
        write_idx(directory / "t10k-images-idx3-ubyte", images)
        write_idx(directory / "t10k-labels-idx1-ubyte", labels)

    def test_env_var(self, tmp_path, monkeypatch, two_images, two_labels):
        self._write_full_set(tmp_path, two_images, two_labels)
        monkeypatch.setenv("IPCNN_DATA_DIR", str(tmp_path))
        assert find_mnist_dir() == tmp_path

    def test_explicit_arg_wins(self, tmp_path, two_images, two_labels):
        self._write_full_set(tmp_path, two_images, two_labels)
        assert find_mnist_dir(tmp_path) == tmp_path

    def test_missing_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.delenv("IPCNN_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert find_mnist_dir() is None

    def test_load_mnist_full(self, tmp_path, two_images, two_labels):
        self._write_full_set(tmp_path, two_images, two_labels)
        ds = load_mnist(tmp_path)
        assert isinstance(ds, Dataset)
        assert ds.train_images.shape == (2, 28, 28)
        np.testing.assert_array_equal(ds.test_labels, [3, 7])

    def test_load_mnist_missing_file(self, tmp_path, two_images, two_labels):
        self._write_full_set(tmp_path, two_images, two_labels)
        (tmp_path / "t10k-labels-idx1-ubyte").unlink()
        with pytest.raises(FileNotFoundError, match="t10k-labels"):
            load_mnist(tmp_path)


def test_dataset_constants_defined_once():
    # the IDX dataset defines them; the synthetic set and the model take them
    assert (IMAGE_WIDTH, N_CLASSES) == (28, 10)
    assert (synth.IMAGE_WIDTH, synth.N_CLASSES) == (IMAGE_WIDTH, N_CLASSES)
    assert network.IMAGE_WIDTH == IMAGE_WIDTH
    assert network.NetworkModel().n_classes == N_CLASSES
