from dataclasses import replace

import numpy as np
import pytest

from ipcnn.design_space import (
    ARCHITECTURES,
    HardwareConfig,
    architecture_mac_rate,
    delay_line_loss_db,
    efficiency,
    energy_budget_comparative,
    energy_budget_ipcnn,
    max_scale,
    scale_grid,
    speed,
    speed_curve,
)
from ipcnn.errors import InfeasibleDesignError, InvalidSpecError

CFG = HardwareConfig()
# the design-space defaults' speed-curve grid: 20 rates x 3 delay losses
F_M_GRID = [0.5e9 * k for k in range(1, 21)]
LOSS_LEVELS = [0.05, 0.5, 5.0]
# 2 dB chain: below the comparison architectures' 4 dB loss advantage
LOW_LOSS = HardwareConfig(loss_wdm_to_pd_db=0.5, loss_modulator_db=0.5,
                          loss_input_port_db=0.5, loss_wdm_stage_db=0.5)


class TestScale:
    def test_operating_point_288(self):
        # 100 mW cap, 7.4 dB chain, 6.3 uW NEOP, SNR 10 -> 288 branches
        result = max_scale(0.1, 7.4, 6.3e-6, 10.0, requested=288)
        assert result.scale == 288
        assert result.feasible
        assert result.limiting_factor == "none"

    def test_lower_loss_363(self):
        assert max_scale(0.1, 6.4, 6.3e-6, 10.0).scale == 363

    def test_floor_semantics(self):
        # exactly-integer ratio is kept, epsilon below is floored
        assert max_scale(1.0, 0.0, 0.1, 10.0).scale == 1
        assert max_scale(0.999999, 0.0, 0.1, 10.0).scale == 0

    def test_limiting_factor_loss(self):
        result = max_scale(0.1, 40.0, 6.3e-6, 10.0, requested=288)
        assert not result.feasible
        assert result.limiting_factor == "loss"

    def test_limiting_factor_neop(self):
        result = max_scale(1e-6, 0.0, 1e-3, 10.0, requested=4)
        assert not result.feasible
        assert result.limiting_factor == "neop"

    def test_scale_monotone_in_loss(self):
        scales = [max_scale(0.1, loss, 6.3e-6, 10.0).scale
                  for loss in (0.0, 3.0, 6.0, 9.0, 12.0)]
        assert scales == sorted(scales, reverse=True)

    def test_scale_monotone_in_neop(self):
        scales = [max_scale(0.1, 7.4, neop, 10.0).scale
                  for neop in (1e-6, 3e-6, 1e-5, 3e-5)]
        assert scales == sorted(scales, reverse=True)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidSpecError):
            max_scale(0.0, 7.4, 6.3e-6, 10.0)
        with pytest.raises(InvalidSpecError):
            max_scale(0.1, -1.0, 6.3e-6, 10.0)

    def test_grid_rows(self):
        rows = scale_grid([6.3e-6], [6.4, 7.4], 0.1, 10.0, requested=288)
        assert [r["scale"] for r in rows] == [363, 288]
        assert all(r["feasible"] for r in rows)


class TestSpeed:
    def test_headline_rate(self):
        # defaults evaluate to 92.16 TMAC/s for 28x28, 3x3 kernels
        result = speed(CFG, 28, 3)
        assert result.macs_per_second == pytest.approx(92.16e12, rel=1e-9)
        assert result.effective_c_out == CFG.c_out

    def test_scale_limits_output_channels(self):
        # 297 branches feed 33 of 64 requested output channels of q = 9
        result = speed(HardwareConfig(c_out=64), 28, 3)
        assert result.scale == 297
        assert result.effective_c_out == 33
        assert result.macs_per_second == 64 * 33 * 9 * 5e9

    def test_delay_loss_value(self):
        # D_max = 58 cycles at 5 GHz, c/2, 0.5 dB/m
        loss = delay_line_loss_db(CFG, 28, 3)
        expected = 0.5 * 58 / 5e9 * CFG.group_velocity
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("loss_pm", LOSS_LEVELS)
    def test_delay_loss_closed_form(self, loss_pm):
        # the delay bank's last tap: D_max = (sigma - 1)(L + 1) cycles
        velocity = CFG.group_velocity
        for width in range(3, 60):
            for f_m in F_M_GRID:
                cfg = replace(CFG, f_m=f_m, loss_delay_per_meter_db=loss_pm)
                loss = delay_line_loss_db(cfg, width, 3)
                assert type(loss) is float
                assert loss == loss_pm * (2 * (width + 1) * velocity / f_m)

    @pytest.mark.parametrize("c_out", [32, 64])
    @pytest.mark.parametrize("loss_pm", LOSS_LEVELS)
    def test_speed_is_ipcnn_mac_rate(self, c_out, loss_pm):
        feasible = 0
        for f_m in F_M_GRID:
            cfg = replace(CFG, c_out=c_out, f_m=f_m,
                          loss_delay_per_meter_db=loss_pm)
            try:
                result = speed(cfg, 28, 3)
            except InfeasibleDesignError:
                continue
            feasible += 1
            at_scale = replace(cfg, c_out=result.effective_c_out)
            assert result.macs_per_second == architecture_mac_rate(
                "IPCNN", at_scale)
            assert result.macs_per_second == (64 * result.effective_c_out
                                              * 9 * f_m)
        assert feasible > 0

    def test_lower_rate_costs_loss(self):
        # halving f_m doubles the line length, adding delay loss
        slow = HardwareConfig(f_m=2.5e9)
        assert delay_line_loss_db(slow, 28, 3) == pytest.approx(
            2 * delay_line_loss_db(CFG, 28, 3))

    def test_speed_zero_delay_loss_equals_lossless(self):
        cfg = HardwareConfig(loss_delay_per_meter_db=0.0)
        result = speed(cfg, 28, 3)
        assert result.macs_per_second == result.lossless_macs_per_second

    def test_sigma_q_consistency(self):
        with pytest.raises(InvalidSpecError):
            speed(CFG, 28, 4)

    def test_infeasible_when_loss_dominates(self):
        cfg = HardwareConfig(loss_delay_per_meter_db=500.0)
        with pytest.raises(InfeasibleDesignError):
            speed(cfg, 28, 3)

    def test_speed_curve_marks_infeasible(self):
        rows = speed_curve(CFG, [0.5e9, 5e9], [0.5, 5000.0], 28, 3)
        by_level = {}
        for r in rows:
            by_level.setdefault(r["loss_per_meter_db"], []).append(r)
        assert all(r["feasible"] for r in by_level[0.5])
        assert not any(r["feasible"] for r in by_level[5000.0])

    def test_speed_curve_monotone_in_rate(self):
        f_grid = [0.5e9 * k for k in range(1, 21)]
        rows = [r for r in speed_curve(CFG, f_grid, [0.05], 28, 3)
                if r["feasible"]]
        macs = [r["macs_per_second"] for r in rows]
        assert macs == sorted(macs)


class TestEnergyBudgets:
    def test_ipcnn_component_values(self):
        b = energy_budget_ipcnn(CFG)
        assert b.weighting == pytest.approx(359.424, rel=1e-9)
        assert b.eo_modulation == pytest.approx(5.76, rel=1e-9)
        assert b.tia == pytest.approx(0.6336, rel=1e-9)
        assert b.adc == pytest.approx(0.16, rel=1e-9)
        assert b.lasers == pytest.approx(7.939, rel=1e-3)

    def test_deap_components(self):
        b = energy_budget_comparative("DEAP", CFG)
        assert b.lasers == pytest.approx(0.0988, rel=1e-3)
        assert b.eo_modulation == pytest.approx(11.232, rel=1e-9)
        assert b.weighting == pytest.approx(11.232, rel=1e-9)
        assert b.tia == pytest.approx(0.0198, rel=1e-9)
        assert b.adc == pytest.approx(0.005, rel=1e-9)

    def test_bw_components(self):
        b = energy_budget_comparative("BW", CFG)
        assert b.lasers == pytest.approx(0.3512, rel=1e-3)
        assert b.eo_modulation == pytest.approx(5.76, rel=1e-9)
        assert b.weighting == pytest.approx(39.936, rel=1e-9)
        assert b.tia == pytest.approx(0.0704, rel=1e-9)
        assert b.adc == pytest.approx(0.16, rel=1e-9)

    def test_coherent_components(self):
        b = energy_budget_comparative("Coherent", CFG)
        assert b.lasers == pytest.approx(3.1606, rel=1e-3)
        assert b.eo_modulation == pytest.approx(51.84, rel=1e-9)
        assert b.weighting == pytest.approx(359.424, rel=1e-9)
        assert b.tia == pytest.approx(0.0704, rel=1e-9)
        assert b.adc == pytest.approx(0.16, rel=1e-9)

    def test_ipcnn_selector(self):
        for cfg in (CFG, LOW_LOSS):
            assert energy_budget_comparative("IPCNN", cfg) == \
                energy_budget_ipcnn(cfg)

    def test_comparative_loss_below_advantage(self):
        assert LOW_LOSS.total_insertion_loss_db < 4.0
        with pytest.raises(InvalidSpecError, match="advantage"):
            energy_budget_comparative("DEAP", LOW_LOSS)

    def test_unknown_architecture(self):
        with pytest.raises(InvalidSpecError, match="architecture"):
            energy_budget_comparative("TPU", CFG)

    def test_ratios_sum_to_one(self):
        for arch in ARCHITECTURES:
            b = energy_budget_comparative(arch, CFG)
            assert sum(b.ratios().values()) == pytest.approx(1.0, rel=1e-12)
            assert sum(b.ratios_without_weighting().values()) == \
                pytest.approx(1.0, rel=1e-12)

    def test_coherent_eo_is_q_times_ipcnn(self):
        ipcnn = energy_budget_ipcnn(CFG)
        coherent = energy_budget_comparative("Coherent", CFG)
        assert coherent.eo_modulation == pytest.approx(
            CFG.q * ipcnn.eo_modulation, rel=1e-12)


class TestEfficiency:
    def test_capacitive_value(self):
        b = energy_budget_ipcnn(CFG)
        value = efficiency(b, CFG.mac_rate, "capacitive")
        assert value == pytest.approx(0.157, rel=0.01)

    def test_thermal_value(self):
        b = energy_budget_ipcnn(CFG)
        value = efficiency(b, CFG.mac_rate, "thermal")
        assert value == pytest.approx(4.06, rel=0.01)

    def test_capacitive_never_worse(self):
        for arch in ARCHITECTURES:
            b = energy_budget_comparative(arch, CFG)
            assert efficiency(b, CFG.mac_rate, "capacitive") <= \
                efficiency(b, CFG.mac_rate, "thermal")

    def test_bad_mode(self):
        with pytest.raises(InvalidSpecError):
            efficiency(energy_budget_ipcnn(CFG), CFG.mac_rate, "magic")

    def test_architecture_rates(self):
        assert architecture_mac_rate("IPCNN", CFG) == CFG.mac_rate
        assert architecture_mac_rate("Coherent", CFG) == CFG.mac_rate
        assert architecture_mac_rate("DEAP", CFG) == 64 * 9 * 5e9
        assert architecture_mac_rate("BW", CFG) == 64 * 32 * 5e9
        with pytest.raises(InvalidSpecError):
            architecture_mac_rate("TPU", CFG)

    def test_thermal_efficiency_above_asic_line(self):
        # every photonic option burns > 1 pJ/MAC with thermal weight holding
        for arch in ARCHITECTURES:
            b = energy_budget_comparative(arch, CFG)
            rate = architecture_mac_rate(arch, CFG)
            assert efficiency(b, rate, "thermal") > 1.0


class TestHardwareConfig:
    def test_total_insertion_loss(self):
        assert CFG.total_insertion_loss_db == pytest.approx(13.4)

    def test_mac_rate(self):
        assert CFG.mac_rate == pytest.approx(64 * 32 * 9 * 5e9)

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            HardwareConfig(c_in=0)
        with pytest.raises(InvalidSpecError):
            HardwareConfig(snr_target=0.5)
        with pytest.raises(InvalidSpecError):
            HardwareConfig(wall_plug_efficiency=0.0)
        with pytest.raises(InvalidSpecError):
            HardwareConfig(loss_modulator_db=-1.0)
