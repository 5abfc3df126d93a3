"""The benchmark's workloads: set-up, timed work and output checks.

Every workload mirrors one CLI command and calls the same public functions
that command calls, looking each one up on its module at call time so the
traced run's wrappers see it.  Inputs come from the workload seed only.
"""

from __future__ import annotations

import platform
import time
from dataclasses import replace

import numpy as np

from ipcnn import analog, config, design_space, hybrid, network, synth, verify
from ipcnn.layers import cross_entropy_loss
from tracing import SETUP_SPANS, forward_batch_peaks

MODULES = {"hybrid": hybrid, "network": network, "verify": verify,
           "design_space": design_space}

BATCH = 128  # the CLI's hybrid batch size

# Design-space headline numbers written by the seed commit's
# `ipcnn design-space` with the default config.
HEADLINE_REFERENCE = {
    "macs_per_second": 92160000000000.0,
    "scale_at_7p4_db": 288,
    "ipcnn_pj_per_mac_capacitive": 0.15725422505412523,
    "ipcnn_pj_per_mac_thermal": 4.057254225054125,
}
HEADLINE_REL_TOL = 1e-12


def _dataset(cfg: dict):
    ds = cfg["dataset"]
    return synth.make_synthetic_dataset(
        n_train=int(ds["synthetic_train"]),
        n_test=int(ds["synthetic_test"]),
        seed=int(ds["synthetic_seed"]),
    )


def build_fixture(path, params: dict) -> None:
    """Train the benchmark's own model deterministically and save it."""
    data = _dataset(config.load_config(None))
    model = network.NetworkModel(seed=params["seed"])
    network.train(model, data.train_images[:, None], data.train_labels,
                  network.Hyperparams(**params))
    network.save_checkpoint(model, path)


def setup(tracer, fixture_path):
    """Set-up shared by every workload; its time is the set-up metric."""
    load_config, make_dataset, load_checkpoint = SETUP_SPANS
    with tracer.span(load_config):
        cfg = config.load_config(None)
    with tracer.span(make_dataset):
        data = _dataset(cfg)
    with tracer.span(load_checkpoint):
        model = network.load_checkpoint(fixture_path)
    return cfg, data, model


def _check(ok: bool, **values) -> dict:
    return {"ok": bool(ok), **values}


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x


class Workload:
    """Defaults: the work phase is timed as one block, and there are no
    analog conv calls whose memory peak to probe."""

    def block_rates(self, items: int, work_s: float) -> list[float]:
        """Items per second of each separately timed block of the work."""
        return [items / work_s]

    def peak_probe(self) -> dict:
        return {}


class InferNoisy(Workload):
    """`ipcnn infer` on 1000 test images at -10 dBc, no imbalance."""

    NEOP_DBC = -10.0

    def __init__(self, cfg, data, model, seed):
        n = int(cfg["dataset"]["subset"])
        order = np.random.default_rng(seed).permutation(len(data.test_labels))
        self.images = data.test_images[order[:n]]
        self.labels = data.test_labels[order[:n]]
        self.model, self.seed = model, seed
        self.probe_repeats = int(cfg["faults"]["probe_repeats"])
        self.models = [model]

    def work(self) -> int:
        self.digital = self.model.accuracy(self.images[:, None], self.labels)
        self.report = hybrid.infer_hybrid(
            self.model, self.images, self.labels, neop_dbc=self.NEOP_DBC,
            imbalance_db=0.0, calibration=False, seed=self.seed,
            probe_repeats=self.probe_repeats, batch_size=BATCH)
        return len(self.labels)

    def noisy_setups(self):
        return hybrid.build_photonic_setups(
            self.model, neop_dbc=self.NEOP_DBC, seed=self.seed)

    def check(self) -> dict:
        first = self.images[:BATCH]
        x = first[:, None]
        ideal = hybrid.build_photonic_setups(self.model)
        logits = hybrid.hybrid_forward(self.model, first, ideal,
                                       np.random.default_rng(self.seed),
                                       batch_size=BATCH)
        reference = self.model.forward(x)
        rel = float(np.max(np.abs(logits - reference))
                    / np.max(np.abs(reference)))

        # conv1 output noise: the Q branch draws of variance sigma^2 are
        # summed, then scaled by the digital rescale factor.
        layer = self.noisy_setups()[0]
        xp = _pad(x, layer.pad)
        clean = analog.forward_batch(
            xp, layer.programming, layer.spec,
            replace(layer.faults, neop_dbc=-np.inf))
        noisy = analog.forward_batch(
            xp, layer.programming, layer.spec, layer.faults,
            rng=np.random.default_rng(self.seed))
        diff = noisy - clean
        expected = (layer.spec.q * layer.faults.noise_sigma(layer.spec) ** 2
                    * layer.programming.rescale ** 2)
        mean, var = float(diff.mean()), float(diff.var())
        mean_limit = 5 * np.sqrt(expected / diff.size)
        return {
            "noiseless_logits_match_digital": _check(
                rel <= 1e-9, relative_error=rel, tolerance=1e-9),
            "conv1_noise_mean": _check(
                abs(mean) <= mean_limit, mean=mean, limit=float(mean_limit)),
            "conv1_noise_variance": _check(
                abs(var / expected - 1) <= 0.05, variance=var,
                expected=expected, tolerance=0.05),
            "accuracy": _check(True, hybrid=self.report.accuracy,
                               digital=self.digital),
        }

    def peak_probe(self) -> dict:
        return forward_batch_peaks(hybrid, self.model, self.images[:BATCH],
                                   self.noisy_setups(),
                                   np.random.default_rng(self.seed))


class SweepImbalance(Workload):
    """`ipcnn sweep-imbalance --threads 2`: 1 level x 20 trials x 200
    images, calibration on, noise off.

    Twenty trials make a run long enough (about 17 s) that an invocation
    makes one, whose time averages over the host's short slow spells.
    """

    LEVEL_DB = 6.0
    TRIALS = 20
    N_IMAGES = 200
    threads = 2

    def __init__(self, cfg, data, model, seed):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(data.test_labels), self.N_IMAGES, replace=False)
        self.images, self.labels = data.test_images[idx], data.test_labels[idx]
        self.model, self.seed = model, seed
        self.neop_dbc = config.fault_neop_dbc(cfg)
        self.probe_repeats = int(cfg["faults"]["probe_repeats"])
        self.models = [model]

    def work(self) -> int:
        self.stats = hybrid.sweep_imbalance(
            self.model, self.images, self.labels, levels_db=[self.LEVEL_DB],
            trials=self.TRIALS, calibration=True, neop_dbc=self.neop_dbc,
            base_seed=self.seed, probe_repeats=self.probe_repeats,
            batch_size=BATCH, threads=self.threads)
        return self.N_IMAGES * self.TRIALS

    def check(self) -> dict:
        # Without noise the probes see the exact path gains, so calibration
        # restores the digital network on every trial.
        digital = self.model.accuracy(self.images[:, None], self.labels)
        accuracies = self.stats[0]["accuracies"]
        return {
            "trials_equal_digital": _check(
                len(accuracies) == self.TRIALS
                and all(a == digital for a in accuracies),
                digital=digital, trial_accuracies=accuracies),
        }

    def peak_probe(self) -> dict:
        setups = hybrid.build_photonic_setups(
            self.model, neop_dbc=self.neop_dbc, imbalance_db=self.LEVEL_DB,
            calibration=True, seed=self.seed,
            probe_repeats=self.probe_repeats)
        return forward_batch_peaks(hybrid, self.model, self.images[:BATCH],
                                   setups, np.random.default_rng(self.seed))


class Train(Workload):
    """`ipcnn train`: one epoch of SGD on the 4000 synthetic images.

    Initialisation and SGD seed are the config's (0), as for the CLI; the
    workload seed permutes the order of the training images.
    """

    MIN_ACCURACY = 0.95

    def __init__(self, cfg, data, model, seed):
        net = cfg["network"]
        order = np.random.default_rng(seed).permutation(len(data.train_labels))
        self.images = data.train_images[order][:, None]
        self.labels = data.train_labels[order]
        self.model = network.NetworkModel(seed=int(net["seed"]))
        self.hyper = network.Hyperparams(
            epochs=1, learning_rate=float(net["learning_rate"]),
            momentum=float(net["momentum"]),
            batch_size=int(net["batch_size"]), seed=int(net["seed"]))
        self.data = data
        self.models = [self.model]

    def work(self) -> int:
        network.train(self.model, self.images, self.labels, self.hyper)
        return len(self.labels)

    def check(self) -> dict:
        x, y = self.data.test_images[:, None], self.data.test_labels
        logits = np.concatenate([self.model.forward(x[i:i + 256])
                                 for i in range(0, len(x), 256)])
        loss = float(cross_entropy_loss(logits, y)[0])
        accuracy = float(np.mean(logits.argmax(axis=1) == y))
        return {
            "test_loss_finite": _check(np.isfinite(loss), loss=loss),
            "test_accuracy": _check(accuracy >= self.MIN_ACCURACY,
                                    accuracy=accuracy,
                                    minimum=self.MIN_ACCURACY),
        }


class Oracle(Workload):
    """`ipcnn verify-equivalence` on 1000 instances, then the
    `design-space` and `energy` computations.

    The suite runs in blocks of 200 instances, each timed on its own, so
    that the run's rate can be read at the slow end of its blocks (see
    ``run.end_to_end``).  Block b draws its instances from the b-th seed
    that the workload seed spawns.
    """

    BLOCK = 200
    BLOCKS = 5
    INSTANCES = BLOCK * BLOCKS

    def __init__(self, cfg, data, model, seed):
        eq = cfg["equivalence"]
        self.suite = dict(
            instances=self.BLOCK, max_channels=int(eq["max_channels"]),
            sigmas=tuple(eq["sigmas"]), max_width=int(eq["max_width"]))
        self.block_seeds = [int(s) for s in np.random.SeedSequence(
            seed).generate_state(self.BLOCKS)]
        self.hw = config.to_hardware_config(cfg)
        self.ds = cfg["design_space"]
        self.models = [model]

    def _budgets(self) -> dict:
        out = {}
        for arch in design_space.ARCHITECTURES:
            budget = design_space.energy_budget_comparative(arch, self.hw)
            rate = design_space.architecture_mac_rate(arch, self.hw)
            out[arch] = {
                mode: design_space.efficiency(budget, rate, mode)
                for mode in ("thermal", "capacitive")
            }
        return out

    def work(self) -> int:
        hw, ds = self.hw, self.ds
        self.results, self.block_s = [], []
        for block_seed in self.block_seeds:
            start = time.perf_counter()
            self.results.append(
                verify.run_equivalence_suite(seed=block_seed, **self.suite))
            self.block_s.append(time.perf_counter() - start)
        # design-space
        self.grid = design_space.scale_grid(
            [float(v) for v in ds["neop_grid_w"]],
            [float(v) for v in ds["loss_grid_db"]],
            hw.power_cap, hw.snr_target, requested=hw.c_out * hw.q)
        self.curves = design_space.speed_curve(
            hw, [float(v) for v in ds["f_m_grid_hz"]],
            [float(v) for v in ds["loss_per_meter_levels_db"]],
            int(ds["image_width"]), int(ds["sigma"]))
        budgets = self._budgets()
        speed = design_space.speed(hw, int(ds["image_width"]), int(ds["sigma"]))
        marked = design_space.max_scale(hw.power_cap, 7.4, hw.neop,
                                        hw.snr_target,
                                        requested=hw.c_out * hw.q)
        self.headline = {
            "macs_per_second": speed.macs_per_second,
            "scale_at_7p4_db": marked.scale,
            "ipcnn_pj_per_mac_capacitive": budgets["IPCNN"]["capacitive"],
            "ipcnn_pj_per_mac_thermal": budgets["IPCNN"]["thermal"],
        }
        # energy
        self._budgets()
        return self.INSTANCES

    def block_rates(self, items: int, work_s: float) -> list[float]:
        return [self.BLOCK / s for s in self.block_s]

    def check(self) -> dict:
        headline_ok = all(
            abs(self.headline[k] - v) <= HEADLINE_REL_TOL * abs(v)
            for k, v in HEADLINE_REFERENCE.items())
        failures = [r.first_failure for r in self.results if not r.passed]
        instances = sum(r.instances for r in self.results)
        return {
            "equivalence_suite_passed": _check(
                not failures and instances == self.INSTANCES,
                instances=instances,
                first_failure=failures[0] if failures else None),
            "design_space_headline": _check(
                headline_ok and len(self.grid) > 0 and len(self.curves) > 0,
                headline=self.headline, reference=HEADLINE_REFERENCE,
                relative_tolerance=HEADLINE_REL_TOL),
        }


WORKLOADS = {
    "infer-noisy": InferNoisy,
    "sweep-imbalance": SweepImbalance,
    "train": Train,
    "oracle": Oracle,
}


def environment(model) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "model_hash": model.model_hash(),
    }
