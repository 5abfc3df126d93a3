import numpy as np
import pytest

from ipcnn.conv_math import ConvLayerSpec
from ipcnn.errors import InfeasibleDesignError, InvalidSpecError
from ipcnn.optics import (
    DEFAULT_GROUP_VELOCITY,
    aggregate_neop,
    dbm_to_watts,
    design_delay_bank,
    nonlinear_coefficient,
    watts_to_dbm,
)


class TestDelayBank:
    def test_lossless_coupling_pattern(self):
        # equal split over Q lossless drops: couplings 1/Q, 1/(Q-1), ..., 1
        spec = ConvLayerSpec(1, 1, 2, 4)  # Q = 4
        design = design_delay_bank(spec, 5e9)
        couplings = [t.drop_coupling for t in design.taps]
        np.testing.assert_allclose(couplings, [1 / 4, 1 / 3, 1 / 2, 1],
                                   rtol=1e-12)

    def test_lossless_equal_drops_any_q(self):
        spec = ConvLayerSpec(1, 1, 2, 5)
        design = design_delay_bank(spec, 5e9)
        powers = design.drop_powers(1.0)
        np.testing.assert_allclose(powers, 0.25, rtol=1e-12)
        assert abs(powers.sum() - 1.0) < 1e-12

    def test_lossy_q9_l28_equalized(self):
        # forward-propagation oracle confirms the coupling algebra
        spec = ConvLayerSpec(1, 1, 3, 28)
        design = design_delay_bank(spec, 5e9, loss_per_meter=0.5)
        powers = design.drop_powers(1.0)
        np.testing.assert_allclose(powers, powers[0], rtol=1e-10)
        # loss destroys some power: less than lossless 1/9 each
        assert powers[0] < 1 / 9
        assert powers.sum() < 1.0

    def test_last_tap_drops_everything(self):
        spec = ConvLayerSpec(1, 1, 3, 8)
        design = design_delay_bank(spec, 5e9, loss_per_meter=1.0)
        assert design.taps[-1].drop_coupling == 1.0

    def test_delay_cycles_and_lengths(self):
        spec = ConvLayerSpec(1, 1, 3, 28)
        f_m = 5e9
        design = design_delay_bank(spec, f_m)
        cycles = [t.delay_cycles for t in design.taps]
        assert cycles == [0, 1, 2, 28, 29, 30, 56, 57, 58]
        # longest line: 58 cycles at 5 GHz and v_g = c/2 -> about 1.74 m
        expected = 58 / f_m * DEFAULT_GROUP_VELOCITY
        assert design.taps[-1].physical_length == pytest.approx(expected)

    def test_single_tap(self):
        spec = ConvLayerSpec(1, 1, 1, 4)
        design = design_delay_bank(spec, 5e9)
        assert len(design.taps) == 1
        assert design.taps[0].drop_coupling == 1.0

    def test_excessive_loss_infeasible(self):
        spec = ConvLayerSpec(1, 1, 3, 28)
        with pytest.raises(InfeasibleDesignError):
            design_delay_bank(spec, 5e9, loss_per_meter=1e4)

    def test_bad_rate(self):
        spec = ConvLayerSpec(1, 1, 3, 6)
        with pytest.raises(InvalidSpecError):
            design_delay_bank(spec, -1.0)


class TestNeop:
    def test_operating_point(self):
        # 30 pW/rtHz PD, 50 pA/rtHz TIA at 0.9 A/W, 10 GHz -> 6.3 uW
        value = aggregate_neop(30e-12, 0.9, 50e-12, 10e9)
        assert value == pytest.approx(6.3e-6, rel=0.02)

    def test_rss_structure(self):
        pd_only = aggregate_neop(30e-12, 0.9, 0.0, 10e9)
        tia_only = aggregate_neop(0.0, 0.9, 50e-12, 10e9)
        both = aggregate_neop(30e-12, 0.9, 50e-12, 10e9)
        assert both == pytest.approx(np.hypot(pd_only, tia_only), rel=1e-12)

    def test_sqrt_bandwidth_scaling(self):
        base = aggregate_neop(30e-12, 0.9, 50e-12, 10e9)
        doubled = aggregate_neop(30e-12, 0.9, 50e-12, 20e9)
        assert doubled == pytest.approx(base * np.sqrt(2), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidSpecError):
            aggregate_neop(-1e-12, 0.9, 50e-12, 10e9)
        with pytest.raises(InvalidSpecError):
            aggregate_neop(30e-12, 0.0, 50e-12, 10e9)
        with pytest.raises(InvalidSpecError):
            aggregate_neop(30e-12, 0.9, 50e-12, 0.0)


class TestNonlinearity:
    def test_gamma_small_core(self):
        # n2 = 2.4e-19 m^2/W, 1550 nm, A_eff = 0.702 um^2 -> 2.77 /W/m
        gamma = nonlinear_coefficient(2.4e-19, 1550e-9, 0.702e-12)
        assert gamma == pytest.approx(2.77, rel=0.01)

    def test_gamma_large_core(self):
        gamma = nonlinear_coefficient(2.4e-19, 1550e-9, 1.599e-12)
        assert gamma == pytest.approx(1.21, rel=0.01)

    def test_gamma_inverse_in_area(self):
        g1 = nonlinear_coefficient(2.4e-19, 1550e-9, 1e-12)
        g2 = nonlinear_coefficient(2.4e-19, 1550e-9, 2e-12)
        assert g1 == pytest.approx(2 * g2, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidSpecError):
            nonlinear_coefficient(0.0, 1550e-9, 1e-12)


class TestPowerCapAndLinks:
    """dBm/W conversions, which the config applies to ``power_cap_dbm``."""

    def test_dbm_round_trip(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)
        assert watts_to_dbm(0.1) == pytest.approx(20.0, rel=1e-12)
        assert watts_to_dbm(dbm_to_watts(-3.7)) == pytest.approx(-3.7)
