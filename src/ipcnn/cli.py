"""Command-line front end.

Subcommands: verify-equivalence, train, infer, sweep-noise,
sweep-imbalance, design-space, energy.  Every command reads one JSON
config (defaults if omitted), writes a CSV of plot-ready rows where it
makes sense plus a JSON summary carrying the schema version, config hash
and seed, and never embeds timestamps, so identical (config, seed) reruns
are byte-identical.

Exit codes: 0 success, 1 invariant/acceptance failure, 2 configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    SCHEMA_VERSION,
    config_hash,
    fault_neop_dbc,
    load_config,
    to_hardware_config,
)
from .design_space import (
    ARCHITECTURES,
    architecture_mac_rate,
    efficiency,
    energy_budget_comparative,
    max_scale,
    scale_grid,
    speed,
    speed_curve,
)
from .errors import ConfigError, IpcnnError
from .hybrid import infer_hybrid, sweep_imbalance, sweep_noise
from .mnist import IdxParseError, find_mnist_dir, load_mnist
from .network import Hyperparams, NetworkModel, load_checkpoint, save_checkpoint, train
from .synth import make_synthetic_dataset
from .verify import run_equivalence_suite


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, records: list[dict], columns=None) -> None:
    """One row per record; the columns default to the first record's keys."""
    columns = list(records[0]) if columns is None else columns
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in records:
            writer.writerow([_cell(record[c]) for c in columns])


def write_summary(path: Path, command: str, config: dict, seed: int,
                  results: dict) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "experiment_id": command,
        "config_hash": config_hash(config),
        "seed": seed,
        "results": results,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_dataset(config: dict):
    ds = config["dataset"]
    if ds["kind"] == "synthetic":
        return make_synthetic_dataset(n_train=ds["synthetic_train"],
                                      n_test=ds["synthetic_test"],
                                      seed=ds["synthetic_seed"])
    if ds["kind"] != "mnist":
        raise ConfigError(f"dataset.kind must be 'mnist' or 'synthetic', "
                          f"got {ds['kind']!r}")
    directory = find_mnist_dir(ds["directory"])
    if directory is None:
        raise FileNotFoundError(
            "MNIST IDX files not found; set dataset.directory or "
            "$IPCNN_DATA_DIR"
        )
    return load_mnist(directory)


def _checkpoint_path(config: dict, out_dir: Path) -> Path:
    raw = Path(config["paths"]["checkpoint"])
    return raw if raw.is_absolute() else out_dir / raw


def cmd_verify_equivalence(config, args, out_dir: Path) -> int:
    eq = dict(config["equivalence"])
    if args.seed is not None:
        eq["seed"] = args.seed
    seed = eq["seed"]
    result = run_equivalence_suite(**eq)
    write_summary(out_dir / "verify_equivalence.json", "verify-equivalence",
                  config, seed, {
                      "passed": result.passed,
                      "instances": result.instances,
                      "digest": result.digest,
                      "first_failure": result.first_failure,
                  })
    if result.passed:
        print(f"equivalence: PASS ({result.instances} instances, "
              f"digest {result.digest[:16]})")
        return 0
    print(f"equivalence: FAIL at instance "
          f"{result.first_failure['instance']}, first mismatch "
          f"(row {result.first_failure['row']}, "
          f"column {result.first_failure['column']})")
    return 1


def cmd_train(config, args, out_dir: Path) -> int:
    dataset = _load_dataset(config)
    hyper = Hyperparams(**config["network"])
    if args.seed is not None:
        hyper.seed = args.seed
    seed = hyper.seed
    model = NetworkModel(seed=seed)
    train(model, dataset.train_images[:, None, :, :], dataset.train_labels,
          hyper, log=print)
    accuracy = model.accuracy(dataset.test_images[:, None, :, :],
                              dataset.test_labels)
    model.metadata["test_accuracy"] = accuracy
    ckpt = _checkpoint_path(config, out_dir)
    save_checkpoint(model, ckpt)
    write_summary(out_dir / "train.json", "train", config, seed, {
        "test_accuracy": accuracy,
        "model_hash": model.model_hash(),
        # configured name, not the resolved path: summaries must not vary
        # with the output directory
        "checkpoint": config["paths"]["checkpoint"],
        "n_train": len(dataset.train_labels),
        "n_test": len(dataset.test_labels),
    })
    print(f"test accuracy: {accuracy:.4f}")
    return 0


def _model_and_test_subset(config, out_dir: Path):
    """The checkpointed model and the first ``dataset.subset`` test samples."""
    ckpt = _checkpoint_path(config, out_dir)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    model = load_checkpoint(ckpt)
    dataset = _load_dataset(config)
    n = config["dataset"]["subset"]
    return model, dataset.test_images[:n], dataset.test_labels[:n]


def cmd_infer(config, args, out_dir: Path) -> int:
    model, images, labels = _model_and_test_subset(config, out_dir)
    seed = args.seed if args.seed is not None else 0
    digital_accuracy = model.accuracy(images[:, None, :, :], labels)
    report = infer_hybrid(model, images, labels, seed=seed, **dict(
        config["faults"], neop_dbc=fault_neop_dbc(config)))
    write_csv(out_dir / "infer_confusion.csv", [
        {"true_class": t, **{f"pred_{c}": n for c, n in enumerate(row)}}
        for t, row in enumerate(report.confusion.tolist())])
    write_summary(out_dir / "infer.json", "infer", config, seed, {
        "digital_accuracy": digital_accuracy,
        "hybrid_accuracy": report.accuracy,
        "n_samples": report.n_samples,
        "fault_config": report.fault_config,
        "model_hash": model.model_hash(),
    })
    print(f"digital accuracy {digital_accuracy:.4f}, "
          f"hybrid accuracy {report.accuracy:.4f}")
    return 0


def cmd_sweep_noise(config, args, out_dir: Path) -> int:
    model, images, labels = _model_and_test_subset(config, out_dir)
    levels = config["sweep"]["noise_levels_dbc"]
    seeds = config["sweep"]["noise_seeds"]
    if args.seed is not None:
        seeds = [args.seed + s for s in range(len(seeds))]
    records = sweep_noise(model, images, labels, levels, seeds,
                          threads=args.threads)
    write_csv(out_dir / "sweep_noise.csv", records)
    per_level = {}
    for level in levels:
        acc = [r["accuracy"] for r in records if r["neop_dbc"] == level]
        per_level[str(level)] = {
            "mean": float(np.mean(acc)),
            "std": float(np.std(acc)),
        }
    write_summary(out_dir / "sweep_noise.json", "sweep-noise", config,
                  seeds[0], {"levels": per_level,
                             "model_hash": model.model_hash()})
    return 0


def cmd_sweep_imbalance(config, args, out_dir: Path) -> int:
    model, images, labels = _model_and_test_subset(config, out_dir)
    sweep = config["sweep"]
    faults = config["faults"]
    base_seed = args.seed if args.seed is not None else 0
    stats = sweep_imbalance(
        model, images, labels,
        levels_db=sweep["imbalance_levels_db"],
        trials=sweep["trials"],
        calibration=faults["calibration"],
        neop_dbc=fault_neop_dbc(config),
        base_seed=base_seed,
        probe_repeats=faults["probe_repeats"],
        threads=args.threads,
    )
    # the per-trial accuracies stay in the JSON summary
    write_csv(out_dir / "sweep_imbalance.csv", stats,
              ["imbalance_db", "trials", "min", "q1", "median", "q3", "max"])
    write_summary(out_dir / "sweep_imbalance.json", "sweep-imbalance",
                  config, base_seed, {
                      "levels": stats,
                      "model_hash": model.model_hash(),
                  })
    return 0


def _energy_budgets(config, out_dir: Path) -> dict[str, dict]:
    """Write energy_budgets.csv; return the budgets for the JSON summaries.

    Each architecture's CSV row is its power and pJ/MAC fields; its summary
    adds the MAC rate and the power ratios.
    """
    hw = to_hardware_config(config)
    rows, budgets = [], {}
    for arch in ARCHITECTURES:
        budget = energy_budget_comparative(arch, hw)
        rate = architecture_mac_rate(arch, hw)
        costs = {
            "lasers_w": budget.lasers,
            "eo_w": budget.eo_modulation,
            "weighting_w": budget.weighting,
            "tia_w": budget.tia,
            "adc_w": budget.adc,
            "total_w": budget.total,
            "pj_per_mac_thermal": efficiency(budget, rate, "thermal"),
            "pj_per_mac_capacitive": efficiency(budget, rate, "capacitive"),
        }
        rows.append({"architecture": arch, **costs})
        budgets[arch] = {
            **costs,
            "mac_rate_per_s": rate,
            "ratios": budget.ratios(),
            "ratios_without_weighting": budget.ratios_without_weighting(),
        }
    write_csv(out_dir / "energy_budgets.csv", rows)
    return budgets


def cmd_design_space(config, args, out_dir: Path) -> int:
    hw = to_hardware_config(config)
    ds = config["design_space"]

    write_csv(out_dir / "scale_grid.csv", scale_grid(
        ds["neop_grid_w"], ds["loss_grid_db"], hw.power_cap, hw.snr_target,
        requested=hw.c_out * hw.q))
    write_csv(out_dir / "speed_curves.csv", speed_curve(
        hw, ds["f_m_grid_hz"], ds["loss_per_meter_levels_db"],
        ds["image_width"], ds["sigma"]))
    budgets = _energy_budgets(config, out_dir)

    headline_speed = speed(hw, ds["image_width"], ds["sigma"])
    marked = max_scale(hw.power_cap, 7.4, hw.neop, hw.snr_target,
                       requested=hw.c_out * hw.q)
    write_summary(out_dir / "design_space.json", "design-space", config, 0, {
        "headline": {
            "macs_per_second": headline_speed.macs_per_second,
            "scale_at_7p4_db": marked.scale,
            "ipcnn_pj_per_mac_capacitive":
                budgets["IPCNN"]["pj_per_mac_capacitive"],
            "ipcnn_pj_per_mac_thermal":
                budgets["IPCNN"]["pj_per_mac_thermal"],
        },
        "budgets": budgets,
        # plot metadata only; reference lines for efficiency comparisons
        "reference_lines_pj_per_mac": {"electronic_asic": 1.0},
    })
    print(f"speed {headline_speed.macs_per_second / 1e12:.2f} TMAC/s, "
          f"capacitive IPCNN "
          f"{budgets['IPCNN']['pj_per_mac_capacitive']:.3f} pJ/MAC")
    return 0


def cmd_energy(config, args, out_dir: Path) -> int:
    budgets = _energy_budgets(config, out_dir)
    write_summary(out_dir / "energy.json", "energy", config, 0,
                  {"budgets": budgets})
    for arch, budget in budgets.items():
        print(f"{arch:>8}: total {budget['total_w']:.3f} W")
    return 0


COMMANDS = {
    "verify-equivalence": cmd_verify_equivalence,
    "train": cmd_train,
    "infer": cmd_infer,
    "sweep-noise": cmd_sweep_noise,
    "sweep-imbalance": cmd_sweep_imbalance,
    "design-space": cmd_design_space,
    "energy": cmd_energy,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipcnn",
        description="Delay-buffered WDM photonic CNN accelerator simulator",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="JSON experiment config (defaults if omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's base seed")
    parser.add_argument("--out-dir", type=str, default=".",
                        help="directory for CSV/JSON outputs")
    parser.add_argument("--threads", type=int, default=1,
                        help="threads a sweep's jobs run on, the calling "
                             "thread included")
    parser.add_argument("command", choices=sorted(COMMANDS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = load_config(args.config)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](config, args, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IdxParseError, FileNotFoundError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except IpcnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
