"""Experiment configuration: defaults, strict JSON loading, hashing.

The config file is plain JSON mirroring DEFAULT_CONFIG below.  Every
physical quantity carries its unit in the key name.  Unknown keys are
rejected rather than ignored: a typo that silently fell back to a default
would corrupt a sweep.  A null ``faults.neop_dbc`` means noise off.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .design_space import HardwareConfig
from .errors import ConfigError
from .optics import SPEED_OF_LIGHT, dbm_to_watts, watts_to_dbm

SCHEMA_VERSION = 1

# Config key of each HardwareConfig field whose key is not the field's own
# name.  HardwareConfig holds every hardware default.
_RENAMED_KEYS = {"f_m": "f_m_hz", "neop": "neop_w",
                 "power_cap": "power_cap_dbm", "group_velocity": "group_index",
                 "p_mrr": "p_mrr_w", "p_tia": "p_tia_w", "p_mod": "p_mod_w",
                 "e_adc": "e_adc_j_per_sample"}
# config key -> HardwareConfig field
_HARDWARE_FIELDS = {_RENAMED_KEYS.get(f.name, f.name): f.name
                    for f in fields(HardwareConfig)}
# the keys whose unit differs from their field's: (key -> field, field -> key)
_HARDWARE_UNITS = {
    "power_cap_dbm": (dbm_to_watts, watts_to_dbm),
    "group_index": (lambda n: SPEED_OF_LIGHT / n,
                    lambda v: SPEED_OF_LIGHT / v),
}
_SAME_UNIT = (lambda x: x, lambda x: x)

DEFAULT_CONFIG: dict = {
    "hardware": {
        key: _HARDWARE_UNITS.get(key, _SAME_UNIT)[1](
            getattr(HardwareConfig(), field))
        for key, field in _HARDWARE_FIELDS.items()
    },
    "network": {
        "epochs": 5,
        "learning_rate": 0.01,
        "momentum": 0.9,
        "batch_size": 64,
        "seed": 0,
    },
    "dataset": {
        "kind": "mnist",          # "mnist" | "synthetic"
        "directory": None,        # None -> $IPCNN_DATA_DIR or ./data
        "subset": 1000,           # samples used by fault sweeps
        "synthetic_train": 4000,
        "synthetic_test": 1000,
        "synthetic_seed": 1234,
    },
    "faults": {
        "neop_dbc": None,         # null -> noise off
        "imbalance_db": 0.0,
        "calibration": False,
        "probe_repeats": 1,
    },
    "sweep": {
        "noise_levels_dbc": [-25.0, -20.0, -15.0, -10.0, -5.0, 0.0],
        "noise_seeds": [0, 1, 2, 3, 4],
        "imbalance_levels_db": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        "trials": 100,
    },
    "equivalence": {
        "instances": 200,
        "seed": 0,
        "max_channels": 8,
        "sigmas": [1, 2, 3, 5],
        "max_width": 16,
        "corrupt_delay_offsets": False,
    },
    "design_space": {
        "neop_grid_w": [1.0e-6, 2.0e-6, 6.3e-6, 1.0e-5, 2.0e-5, 6.3e-5],
        "loss_grid_db": [0.0, 2.0, 4.0, 6.4, 7.4, 10.0, 14.0, 20.0],
        "f_m_grid_hz": [0.5e9 * k for k in range(1, 21)],
        "loss_per_meter_levels_db": [0.05, 0.5, 5.0],
        "image_width": 28,
        "sigma": 3,
    },
    "paths": {
        "checkpoint": "model.npz",
    },
}

# keys whose value may be JSON null, with an example of the type they take
_NULLABLE = {"dataset.directory": "", "faults.neop_dbc": 0.0}


def _check_value(path: str, default, value):
    """Check one value against its default's type; return it normalized.

    Numbers must be finite and are returned in their default's type.  Where
    the default is an integer the value must be integral and >= 1, or >= 0
    for seeds.
    """
    kinds = {bool: "a boolean", str: "a string"}
    if type(default) in kinds:
        if type(value) is not type(default):
            raise ConfigError(f"{path!r} must be {kinds[type(default)]}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path!r} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{path!r} must be a finite number, got {value!r}")
    if isinstance(default, float):
        return float(value)
    if value != int(value):
        raise ConfigError(f"{path!r} must be an integer, got {value!r}")
    minimum = 0 if "seed" in path else 1
    if value < minimum:
        raise ConfigError(f"{path!r} must be >= {minimum}, got {value!r}")
    return int(value)


def _merge(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    merged = {}
    for key, value in overrides.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key: {path!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path!r} must be a section (object)")
            merged[key] = _merge(default, value, prefix=f"{path}.")
        elif value is None:
            if path not in _NULLABLE:
                raise ConfigError(f"{path!r} may not be null")
            merged[key] = None
        elif isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"{path!r} must be a list")
            if not value:
                raise ConfigError(f"{path!r} must not be empty")
            merged[key] = [_check_value(f"{path}[{i}]", default[0], v)
                           for i, v in enumerate(value)]
        else:
            merged[key] = _check_value(path, _NULLABLE.get(path, default),
                                       value)
    for key, default in defaults.items():
        if key not in merged:
            merged[key] = json.loads(json.dumps(default)) \
                if isinstance(default, (dict, list)) else default
    return merged


def _check_pairs(config: dict) -> dict:
    """Checks that involve two keys, which ``_merge`` sees one at a time."""
    eq = config["equivalence"]
    if eq["max_width"] < max(eq["sigmas"]):
        raise ConfigError(
            f"'equivalence.max_width' ({eq['max_width']}) must be >= the "
            f"largest of 'equivalence.sigmas' ({max(eq['sigmas'])})")
    return config


def load_config(path=None) -> dict:
    """Load and validate a JSON config; missing path -> pure defaults."""
    if path is None:
        return _check_pairs(_merge(DEFAULT_CONFIG, {}))
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return _check_pairs(_merge(DEFAULT_CONFIG, user))


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def to_hardware_config(config: dict) -> HardwareConfig:
    hw = config["hardware"]
    return HardwareConfig(**{
        field: _HARDWARE_UNITS.get(key, _SAME_UNIT)[0](hw[key])
        for key, field in _HARDWARE_FIELDS.items()
    })


def fault_neop_dbc(config: dict) -> float:
    """faults.neop_dbc with null mapped to -inf (noise off)."""
    value = config["faults"]["neop_dbc"]
    return -np.inf if value is None else float(value)
