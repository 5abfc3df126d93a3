import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipcnn.cli import main
from ipcnn.config import (
    DEFAULT_CONFIG,
    config_hash,
    fault_neop_dbc,
    load_config,
    to_hardware_config,
)
from ipcnn.design_space import HardwareConfig
from ipcnn.errors import ConfigError


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoading:
    def test_defaults_when_omitted(self):
        assert load_config(None) == load_config(None)
        assert load_config(None)["hardware"]["c_in"] == 64

    def test_override_merges(self, tmp_path):
        path = write_config(tmp_path, {"hardware": {"c_in": 16}})
        config = load_config(path)
        assert config["hardware"]["c_in"] == 16
        assert config["hardware"]["c_out"] == 32  # untouched default

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"hardwear": {}})
        with pytest.raises(ConfigError, match="hardwear"):
            load_config(path)

    def test_unknown_nested_key_names_path(self, tmp_path):
        path = write_config(tmp_path, {"hardware": {"c_inn": 3}})
        with pytest.raises(ConfigError, match="hardware.c_inn"):
            load_config(path)

    def test_type_errors(self, tmp_path):
        path = write_config(tmp_path, {"hardware": {"c_in": "many"}})
        with pytest.raises(ConfigError, match="number"):
            load_config(path)
        path = write_config(tmp_path, {"faults": {"calibration": 1}})
        with pytest.raises(ConfigError, match="boolean"):
            load_config(path)
        path = write_config(tmp_path, {"dataset": {"kind": 5}})
        with pytest.raises(ConfigError, match="string"):
            load_config(path)
        path = write_config(tmp_path, {"sweep": {"noise_seeds": 3}})
        with pytest.raises(ConfigError, match="list"):
            load_config(path)

    def test_section_must_be_object(self, tmp_path):
        path = write_config(tmp_path, {"hardware": 3})
        with pytest.raises(ConfigError, match="section"):
            load_config(path)

    def test_nullable_keys(self, tmp_path):
        path = write_config(tmp_path, {
            "faults": {"neop_dbc": None},
            "dataset": {"directory": None},
        })
        config = load_config(path)
        assert config["faults"]["neop_dbc"] is None
        assert np.isneginf(fault_neop_dbc(config))

    def test_non_nullable_rejected(self, tmp_path):
        path = write_config(tmp_path, {"hardware": {"c_in": None}})
        with pytest.raises(ConfigError, match="null"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_integral_float_count_becomes_int(self, tmp_path):
        config = load_config(write_config(tmp_path, {"hardware": {"c_in": 16.0}}))
        assert config["hardware"]["c_in"] == 16
        assert isinstance(config["hardware"]["c_in"], int)

    def test_integer_for_float_key_becomes_float(self, tmp_path):
        config = load_config(write_config(tmp_path, {
            "faults": {"imbalance_db": 6},
            "sweep": {"noise_levels_dbc": [-20, -10.5]}}))
        assert config["faults"]["imbalance_db"] == 6.0
        assert type(config["faults"]["imbalance_db"]) is float
        assert config["sweep"]["noise_levels_dbc"] == [-20.0, -10.5]
        assert all(type(v) is float
                   for v in config["sweep"]["noise_levels_dbc"])

    def test_seed_may_be_zero(self, tmp_path):
        config = load_config(write_config(tmp_path, {
            "network": {"seed": 0}, "sweep": {"noise_seeds": [0]}}))
        assert config["network"]["seed"] == 0

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)


class TestBadNumbers:
    @pytest.mark.parametrize("text, key", [
        ('{"hardware": {"c_in": 64.7}}', "hardware.c_in"),
        ('{"hardware": {"q": 9.5}}', "hardware.q"),
        ('{"hardware": {"f_m_hz": NaN}}', "hardware.f_m_hz"),
        ('{"hardware": {"snr_target": Infinity}}', "hardware.snr_target"),
        ('{"hardware": {"c_in": 1e400}}', "hardware.c_in"),
        pytest.param('{"hardware": {"c_in": 1%s}}' % ("0" * 400),
                     "hardware.c_in", id="int-beyond-float-range"),
        ('{"faults": {"neop_dbc": -Infinity}}', "faults.neop_dbc"),
        ('{"faults": {"neop_dbc": "loud"}}', "faults.neop_dbc"),
        ('{"dataset": {"directory": 3}}', "dataset.directory"),
        ('{"sweep": {"trials": 0}}', "sweep.trials"),
        ('{"sweep": {"noise_seeds": []}}', "sweep.noise_seeds"),
        ('{"sweep": {"noise_seeds": [0, -1]}}', "sweep.noise_seeds[1]"),
        ('{"sweep": {"noise_seeds": [0, 1.5]}}', "sweep.noise_seeds[1]"),
        ('{"sweep": {"imbalance_levels_db": []}}', "sweep.imbalance_levels_db"),
        ('{"sweep": {"noise_levels_dbc": [0.0, "x"]}}',
         "sweep.noise_levels_dbc[1]"),
        ('{"sweep": {"noise_levels_dbc": [[0.0]]}}',
         "sweep.noise_levels_dbc[0]"),
        ('{"dataset": {"subset": 0}}', "dataset.subset"),
        ('{"network": {"epochs": 0}}', "network.epochs"),
        ('{"network": {"seed": -1}}', "network.seed"),
        ('{"equivalence": {"sigmas": [1, true]}}', "equivalence.sigmas[1]"),
    ])
    def test_rejected_naming_key(self, tmp_path, text, key):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert repr(key) in str(info.value)

    @pytest.mark.parametrize("equivalence", [
        {"max_width": 1},
        {"sigmas": [1, 17]},
        {"sigmas": [2], "max_width": 1},
    ])
    def test_max_width_below_largest_sigma(self, tmp_path, equivalence):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"equivalence": equivalence}))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "'equivalence.max_width'" in str(info.value)
        assert "'equivalence.sigmas'" in str(info.value)

    def test_max_width_equal_to_largest_sigma(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"equivalence": {"max_width": 5}}))
        assert load_config(path)["equivalence"]["max_width"] == 5


def _numeric_leaves(section, prefix=""):
    """(dotted key, default) of every numeric or numeric-list config value."""
    for key, default in section.items():
        path = f"{prefix}{key}"
        if isinstance(default, dict):
            yield from _numeric_leaves(default, f"{path}.")
        elif path == "faults.neop_dbc":
            yield path, 0.0
        elif isinstance(default, (int, float, list)) \
                and not isinstance(default, bool):
            yield path, default


NUMERIC_LEAVES = sorted(_numeric_leaves(DEFAULT_CONFIG))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def bad_number(default):
    """Values no key with this default accepts."""
    if isinstance(default, float):
        return NON_FINITE
    return st.one_of(
        NON_FINITE,
        st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()),
        st.integers(max_value=-1),
    )


def bad_value(path, default):
    if isinstance(default, list):
        return st.one_of(st.just([]), bad_number(default[0]).map(
            lambda v: default[:1] + [v]))
    counts = bad_number(default)
    if isinstance(default, int) and "seed" not in path:
        counts = st.one_of(counts, st.just(0))
    return counts


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(NUMERIC_LEAVES).flatmap(
        lambda leaf: st.tuples(st.just(leaf[0]), bad_value(*leaf))))
    def test_bad_value_exits_two(self, tmp_path_factory, case):
        path, value = case
        section, key = path.split(".")
        directory = tmp_path_factory.mktemp("fuzz")
        config = write_config(directory, {section: {key: value}})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(config), "--out-dir", str(directory),
                         "energy"])
        assert code == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("configuration error:") and path in lines[0]


class TestHashing:
    def test_stable(self):
        assert config_hash(load_config(None)) == config_hash(load_config(None))

    def test_sensitive_to_values(self, tmp_path):
        base = load_config(None)
        other = load_config(write_config(tmp_path, {"hardware": {"c_in": 2}}))
        assert config_hash(base) != config_hash(other)

    def test_key_order_independent(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)


class TestHardwareMapping:
    def test_defaults_map_to_operating_point(self):
        assert to_hardware_config(load_config(None)) == HardwareConfig()
        assert DEFAULT_CONFIG["hardware"] == {
            "c_in": 64, "c_out": 32, "q": 9, "f_m_hz": 5.0e9,
            "neop_w": 6.3e-6, "snr_target": 10.0, "power_cap_dbm": 20.0,
            "loss_wdm_to_pd_db": 6.4, "loss_modulator_db": 4.0,
            "loss_input_port_db": 2.0, "loss_wdm_stage_db": 1.0,
            "loss_delay_per_meter_db": 0.5, "group_index": 2.0,
            "p_mrr_w": 0.0195, "p_tia_w": 0.0022, "p_mod_w": 0.09,
            "e_adc_j_per_sample": 1.0e-12, "wall_plug_efficiency": 0.05,
        }
        hw = to_hardware_config(load_config(None))
        assert hw.c_in == 64 and hw.c_out == 32 and hw.q == 9
        assert hw.power_cap == pytest.approx(0.1)  # 20 dBm
        assert hw.neop == pytest.approx(6.3e-6)
        assert hw.total_insertion_loss_db == pytest.approx(13.4)

    def test_group_index_to_velocity(self, tmp_path):
        path = write_config(tmp_path, {"hardware": {"group_index": 4.0}})
        hw = to_hardware_config(load_config(path))
        assert hw.group_velocity == pytest.approx(299792458.0 / 4.0)

    def test_fault_neop_value(self, tmp_path):
        path = write_config(tmp_path, {"faults": {"neop_dbc": -10.0}})
        assert fault_neop_dbc(load_config(path)) == -10.0

    def test_defaults_not_mutated(self, tmp_path):
        before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
        config = load_config(write_config(tmp_path,
                                          {"sweep": {"trials": 3}}))
        config["sweep"]["noise_seeds"].append(99)
        assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before
