"""End-to-end CLI tests on a small synthetic configuration."""

import csv
import hashlib
import json

import numpy as np
import pytest

from ipcnn.cli import main
from ipcnn.errors import DimensionError
from ipcnn.mnist import write_idx
from ipcnn.network import NetworkModel, save_checkpoint
from ipcnn.verify import run_equivalence_suite

SMALL_CONFIG = {
    "dataset": {
        "kind": "synthetic",
        "subset": 40,
        "synthetic_train": 400,
        "synthetic_test": 80,
    },
    "network": {"epochs": 1},
    "sweep": {
        "noise_levels_dbc": [-25.0, -10.0],
        "noise_seeds": [0, 1],
        "imbalance_levels_db": [0.0, 6.0],
        "trials": 2,
    },
    "equivalence": {"instances": 20},
    "design_space": {
        "neop_grid_w": [6.3e-6],
        "loss_grid_db": [6.4, 7.4],
        "f_m_grid_hz": [2.5e9, 5e9],
        "loss_per_meter_levels_db": [0.5],
    },
}

# sha256 of each output of the default config.  They hold the bytes through
# a rewrite of the output code, which comparing two runs of one tree cannot.
DEFAULT_OUTPUT_SHA256 = {
    "design-space": {
        "scale_grid.csv": "9fb15cf9f79fa0935c91310d8085655e"
                          "17273efce9230049170a8c59ddb98fc1",
        "speed_curves.csv": "e890ff3eab3eb926575a761b35867"
                            "4de60140d1f9667eaf4cf2e1cd480950073",
        "energy_budgets.csv": "6d7f5cb23808952e9f5c775a72feb6d2"
                              "dec927a6f22ceaf34cd753c0d69d3779",
        "design_space.json": "6bfda89f925811e1f1a5173868421a0c"
                             "10214d962178b1b9a11c78b9f86c7dbb",
    },
    "energy": {
        "energy_budgets.csv": "6d7f5cb23808952e9f5c775a72feb6d2"
                              "dec927a6f22ceaf34cd753c0d69d3779",
        "energy.json": "3da7da0c8ac93b00a9675c72b245d7bc"
                       "aeaeb379fa34addae792190af0bbee10",
    },
}


def write_config(directory, overrides=None):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in (overrides or {}).items():
        payload.setdefault(key, {}).update(value)
    path = directory / "config.json"
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One trained pipeline shared by the read-only CLI tests."""
    directory = tmp_path_factory.mktemp("cli")
    config = write_config(directory)
    assert main(["--config", str(config), "--out-dir", str(directory),
                 "train"]) == 0
    return directory, config


class TestVerifyEquivalence:
    def test_pass_exit_zero(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "verify-equivalence"]) == 0
        summary = json.loads(
            (tmp_path / "verify_equivalence.json").read_text())
        assert summary["results"]["passed"] is True
        assert summary["results"]["instances"] == 20

    def test_corruption_exit_one(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"equivalence": {"corrupt_delay_offsets": True}})
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "verify-equivalence"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "row" in out and "column" in out
        summary = json.loads(
            (tmp_path / "verify_equivalence.json").read_text())
        failure = summary["results"]["first_failure"]
        assert failure is not None
        assert {"instance", "row", "column"} <= set(failure)

    def test_seed_flag_recorded(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "--seed", "5", "verify-equivalence"]) == 0
        summary = json.loads(
            (tmp_path / "verify_equivalence.json").read_text())
        assert summary["seed"] == 5
        expected = run_equivalence_suite(instances=20, seed=5)
        assert summary["results"]["digest"] == expected.digest


class TestTrainAndInfer:
    def test_train_outputs(self, workdir):
        directory, _ = workdir
        assert (directory / "model.npz").exists()
        summary = json.loads((directory / "train.json").read_text())
        assert 0.0 <= summary["results"]["test_accuracy"] <= 1.0
        assert len(summary["results"]["model_hash"]) == 64
        assert "schema_version" in summary and "config_hash" in summary

    def test_infer(self, workdir):
        directory, config = workdir
        assert main(["--config", str(config), "--out-dir", str(directory),
                     "infer"]) == 0
        summary = json.loads((directory / "infer.json").read_text())
        res = summary["results"]
        # noiseless hybrid must reproduce the digital accuracy
        assert res["hybrid_accuracy"] == pytest.approx(
            res["digital_accuracy"])
        rows = read_csv(directory / "infer_confusion.csv")
        assert rows[0][0] == "true_class"
        total = sum(int(c) for row in rows[1:] for c in row[1:])
        assert total == res["n_samples"] == 40

    def test_missing_checkpoint_exit_three(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "infer"]) == 3

    def test_missing_mnist_exit_three(self, tmp_path, monkeypatch):
        monkeypatch.delenv("IPCNN_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, {"dataset": {"kind": "mnist"}})
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "train"]) == 3

    @pytest.mark.parametrize("command", ["infer", "sweep-noise"])
    def test_empty_test_split_exit_three(self, tmp_path, capsys, command):
        # valid IDX files whose t10k split holds no images
        images = np.random.default_rng(0).integers(
            0, 256, size=(2, 28, 28), dtype=np.uint8)
        write_idx(tmp_path / "train-images-idx3-ubyte", images)
        write_idx(tmp_path / "train-labels-idx1-ubyte",
                  np.array([1, 2], dtype=np.uint8))
        write_idx(tmp_path / "t10k-images-idx3-ubyte",
                  np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx(tmp_path / "t10k-labels-idx1-ubyte",
                  np.zeros(0, dtype=np.uint8))
        save_checkpoint(NetworkModel(seed=0), tmp_path / "model.npz")
        config = write_config(tmp_path, {"dataset": {
            "kind": "mnist", "directory": str(tmp_path)}})
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     command]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "t10k-images-idx3-ubyte" in err[0]


    def test_label_above_nine_exit_three(self, tmp_path, capsys):
        images = np.random.default_rng(0).integers(
            0, 256, size=(2, 28, 28), dtype=np.uint8)
        for split in ("train", "t10k"):
            write_idx(tmp_path / f"{split}-images-idx3-ubyte", images)
            write_idx(tmp_path / f"{split}-labels-idx1-ubyte",
                      np.array([1, 12], dtype=np.uint8))
        config = write_config(tmp_path, {"dataset": {
            "kind": "mnist", "directory": str(tmp_path)}})
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "train"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "label 12" in err[0]

    @pytest.mark.parametrize("command",
                             ["infer", "sweep-noise", "sweep-imbalance"])
    def test_broken_checkpoint_exit_code(self, tmp_path, capsys,
                                         broken_checkpoint, command):
        # an entry missing is a bad checkpoint (2), an unreadable file an
        # I/O error (3)
        _, error = broken_checkpoint
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     command]) == (2 if error is DimensionError else 3)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "checkpoint" in err[0]

    def test_imbalance_above_ceiling_exit_two(self, tmp_path, capsys):
        save_checkpoint(NetworkModel(seed=0), tmp_path / "model.npz")
        config = write_config(tmp_path, {"faults": {"imbalance_db": 5000.0}})
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "infer"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "imbalance level" in err[0]


class TestSweeps:
    def test_sweep_noise(self, workdir):
        directory, config = workdir
        assert main(["--config", str(config), "--out-dir", str(directory),
                     "sweep-noise"]) == 0
        rows = read_csv(directory / "sweep_noise.csv")
        assert rows[0] == ["neop_dbc", "seed", "accuracy"]
        assert len(rows) == 1 + 2 * 2
        summary = json.loads((directory / "sweep_noise.json").read_text())
        assert set(summary["results"]["levels"]) == {"-25.0", "-10.0"}

    def test_sweep_imbalance(self, workdir):
        directory, config = workdir
        assert main(["--config", str(config), "--out-dir", str(directory),
                     "sweep-imbalance"]) == 0
        rows = read_csv(directory / "sweep_imbalance.csv")
        # the statistics only: the per-trial accuracies stay in the JSON
        assert rows[0] == ["imbalance_db", "trials", "min", "q1", "median",
                           "q3", "max"]
        assert len(rows) == 1 + 2

    def test_threads_flag_equivalent(self, workdir, tmp_path):
        directory, config = workdir
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, threads in ((out_a, "1"), (out_b, "3")):
            out.mkdir()
            (out / "model.npz").write_bytes(
                (directory / "model.npz").read_bytes())
            assert main(["--config", str(config), "--out-dir", str(out),
                         "--threads", threads, "sweep-noise"]) == 0
        assert (out_a / "sweep_noise.csv").read_bytes() == \
            (out_b / "sweep_noise.csv").read_bytes()


class TestDesignSpace:
    def test_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "design-space"]) == 0
        grid = read_csv(tmp_path / "scale_grid.csv")
        scales = {row[1]: int(row[2]) for row in grid[1:]}
        assert scales["6.4"] == 363 and scales["7.4"] == 288
        summary = json.loads((tmp_path / "design_space.json").read_text())
        headline = summary["results"]["headline"]
        assert headline["scale_at_7p4_db"] == 288
        assert headline["macs_per_second"] == pytest.approx(92.16e12,
                                                            rel=1e-9)
        assert headline["ipcnn_pj_per_mac_capacitive"] == pytest.approx(
            0.157, rel=0.01)
        assert (tmp_path / "speed_curves.csv").exists()
        assert (tmp_path / "energy_budgets.csv").exists()

    def test_energy_command(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "energy"]) == 0
        rows = read_csv(tmp_path / "energy_budgets.csv")
        by_arch = {row[0]: row for row in rows[1:]}
        assert set(by_arch) == {"IPCNN", "DEAP", "BW", "Coherent"}
        assert float(by_arch["IPCNN"][3]) == pytest.approx(359.424)

    @pytest.mark.parametrize("command", sorted(DEFAULT_OUTPUT_SHA256))
    def test_default_outputs_bytes_pinned(self, tmp_path, command):
        assert main(["--out-dir", str(tmp_path), command]) == 0
        for name, digest in DEFAULT_OUTPUT_SHA256[command].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest, (
                f"{name}: pinned on x86-64 (Intel Xeon), CPython 3.11, "
                f"numpy 2.4.6, glibc 2.36 libm: on another libm or numpy "
                f"build a mismatch may be the environment, not the code")

    def test_byte_determinism(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--config", str(config), "--out-dir", str(out),
                         "design-space"]) == 0
        for name in ("scale_grid.csv", "speed_curves.csv",
                     "energy_budgets.csv", "design_space.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestErrorPaths:
    def test_bad_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no_such_section": {}}))
        assert main(["--config", str(path), "--out-dir", str(tmp_path),
                     "energy"]) == 2

    @pytest.mark.parametrize("text, needle, command", [
        ('{"hardware": {"c_in": 64.7}}', "hardware.c_in", "energy"),
        ('{"hardware": {"f_m_hz": NaN}}', "hardware.f_m_hz", "design-space"),
        ('{"hardware": {"snr_target": Infinity}}', "hardware.snr_target",
         "energy"),
        ('{"hardware": {"c_in": 1e400}}', "hardware.c_in", "energy"),
        ('{"sweep": {"trials": 0}}', "sweep.trials", "sweep-imbalance"),
        ('{"sweep": {"noise_seeds": []}}', "sweep.noise_seeds", "sweep-noise"),
        ('{"sweep": {"imbalance_levels_db": []}}',
         "sweep.imbalance_levels_db", "sweep-imbalance"),
        ('{"dataset": {"subset": 0}}', "dataset.subset", "infer"),
        ('{"network": {"epochs": 0}}', "network.epochs", "train"),
        ('{"noise_budget": {"bandwidth_hz": 1e10}}', "noise_budget",
         "energy"),
        ('{"dataset": {"kind": "synthetic", "synthetic_train": 40, '
         '"synthetic_test": 10}, "network": {"learning_rate": 0.0}}',
         "learning rate", "train"),
        ('{"equivalence": {"instances": 3, "max_width": 1}}',
         "equivalence.max_width", "verify-equivalence"),
    ])
    def test_bad_value_exit_two(self, tmp_path, capsys, text, needle,
                                command):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["--config", str(path), "--out-dir", str(tmp_path),
                     command]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and needle in err

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        assert main(["--seed", "-1", "--out-dir", str(tmp_path),
                     "verify-equivalence"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--seed" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        assert main(["--threads", threads, "--out-dir", str(tmp_path),
                     "sweep-imbalance"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--threads" in err

    def test_unreadable_config_exit_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json"),
                     "--out-dir", str(tmp_path), "energy"]) == 2

    def test_bad_dataset_kind_exit_two(self, tmp_path):
        config = write_config(tmp_path, {"dataset": {"kind": "cifar"}})
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "train"]) == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_csv_floats_round_trip(self, tmp_path):
        # repr-formatted floats parse back to the exact same value
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--out-dir", str(tmp_path),
                     "energy"]) == 0
        rows = read_csv(tmp_path / "energy_budgets.csv")
        for row in rows[1:]:
            for cell in row[1:]:
                value = float(cell)
                assert repr(value) == cell
