"""Closed-form scale, speed, and power/energy models.

The splitting scale is set by how many detector branches the capped
waveguide power can feed at the target SNR after insertion loss; speed
follows from the achievable scale and the modulation rate (longer delay
lines at lower rates add loss and eat into the scale); the power budget
books lasers, E/O modulation, weighting elements, TIAs, and ADCs per
architecture.  Everything here is a pure function over an immutable
config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .conv_math import ConvLayerSpec
from .errors import InfeasibleDesignError, InvalidSpecError
from .optics import DEFAULT_GROUP_VELOCITY, design_delay_bank

# Comparison architectures carry no delay lines; their end-to-end insertion
# loss is taken 4 dB below the delay-buffered chain.
COMPARATIVE_LOSS_ADVANTAGE_DB = 4.0


class Architecture(NamedTuple):
    """One row of ARCHITECTURES: device counts as products of C_I, C_O, Q.

    The rows are the delay-buffered design and three delay-line-free
    comparisons: DEAP-CNN (Bangari et al., arXiv 1907.01525) evaluates one
    output channel per cycle, broadcast-and-weight (Tait et al., Sci. Rep.
    2017) one kernel tap position per cycle, and the coherent mesh (Shen et
    al., Nat. Photonics 2017) all C_I*C_O*Q products, as IPCNN does.
    """

    branches: str
    modulators: str
    modulator_power: str   # HardwareConfig field: "p_mod" (MZM) | "p_mrr"
    weights: str
    tias: str
    adcs: str
    macs_per_cycle: str
    loss_advantage_db: float


ARCHITECTURES = {
    "IPCNN": Architecture("C_O*Q", "C_I", "p_mod", "C_I*C_O*Q", "C_O*Q",
                          "C_O", "C_I*C_O*Q", 0.0),
    "DEAP": Architecture("Q", "C_I*Q", "p_mrr", "C_I*Q", "Q", "1", "C_I*Q",
                         COMPARATIVE_LOSS_ADVANTAGE_DB),
    "BW": Architecture("C_O", "C_I", "p_mod", "C_I*C_O", "C_O", "C_O",
                       "C_I*C_O", COMPARATIVE_LOSS_ADVANTAGE_DB),
    "Coherent": Architecture("C_O*Q", "C_I*Q", "p_mod", "C_I*C_O*Q", "C_O",
                             "C_O", "C_I*C_O*Q",
                             COMPARATIVE_LOSS_ADVANTAGE_DB),
}

# Tolerance for "exact integer" scale counts: a branch count that misses an
# integer by float noise only still counts as feasible.
_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class HardwareConfig:
    """Physical parameter set; defaults are the evaluated operating point."""

    c_in: int = 64
    c_out: int = 32
    q: int = 9
    f_m: float = 5e9                      # Hz
    # W, aggregate at the detector: optics.aggregate_neop(30 pW/sqrt(Hz)
    # photodetector, 0.9 A/W, 50 pA/sqrt(Hz) TIA, 10 GHz) = 6.31 uW, used
    # rounded to the evaluated operating point's 6.3 uW
    neop: float = 6.3e-6
    snr_target: float = 10.0              # linear power ratio
    power_cap: float = 0.1                # W (20 dBm) at the shared waveguide
    loss_wdm_to_pd_db: float = 6.4        # splitting network + MRRs + drops
    loss_modulator_db: float = 4.0
    loss_input_port_db: float = 2.0
    loss_wdm_stage_db: float = 1.0        # reconstructed combiner-stage loss
    loss_delay_per_meter_db: float = 0.5  # dB/m of delay-line waveguide
    group_velocity: float = DEFAULT_GROUP_VELOCITY
    p_mrr: float = 19.5e-3                # W per thermally tuned MRR
    p_tia: float = 2.2e-3                 # W per TIA
    p_mod: float = 90e-3                  # W per high-speed E/O modulator
    e_adc: float = 1e-12                  # J per ADC sample
    wall_plug_efficiency: float = 0.05

    def __post_init__(self):
        if min(self.c_in, self.c_out, self.q) < 1:
            raise InvalidSpecError("channel/tap counts must be >= 1")
        if self.f_m <= 0 or self.neop <= 0 or self.power_cap <= 0:
            raise InvalidSpecError("f_m, neop and power_cap must be positive")
        if self.snr_target < 1:
            raise InvalidSpecError(f"snr_target must be >= 1, got {self.snr_target}")
        if not 0 < self.wall_plug_efficiency <= 1:
            raise InvalidSpecError("wall-plug efficiency must be in (0, 1]")
        for name in ("loss_wdm_to_pd_db", "loss_modulator_db",
                     "loss_input_port_db", "loss_wdm_stage_db",
                     "loss_delay_per_meter_db"):
            if getattr(self, name) < 0:
                raise InvalidSpecError(f"{name} must be >= 0")
        if min(self.p_mrr, self.p_tia, self.p_mod, self.e_adc) < 0:
            raise InvalidSpecError("per-device powers must be >= 0")

    @property
    def total_insertion_loss_db(self) -> float:
        """Laser-to-photodetector chain, excluding delay-line loss."""
        return (self.loss_input_port_db + self.loss_modulator_db
                + self.loss_wdm_stage_db + self.loss_wdm_to_pd_db)

    @property
    def mac_rate(self) -> float:
        """Nominal MAC/s at full scale."""
        return architecture_mac_rate("IPCNN", self)


@dataclass(frozen=True)
class ScaleResult:
    scale: int
    feasible: bool
    limiting_factor: str   # "power_cap" | "loss" | "neop" | "none"


def max_scale(
    power_cap: float,
    insertion_loss_db: float,
    neop: float,
    snr_target: float,
    requested: int | None = None,
) -> ScaleResult:
    """Detector branches supportable at the SNR target.

    Each branch needs snr_target * neop of optical power, delivered from
    the capped waveguide through the insertion loss.
    """
    if power_cap <= 0 or neop <= 0 or snr_target <= 0:
        raise InvalidSpecError("power_cap, neop and snr_target must be positive")
    if insertion_loss_db < 0:
        raise InvalidSpecError("insertion loss must be >= 0 dB")
    per_branch = snr_target * neop
    delivered = power_cap * 10 ** (-insertion_loss_db / 10)
    scale = int(np.floor(delivered / per_branch + _FLOOR_EPS))
    feasible = requested is None or scale >= requested
    if feasible:
        limiting = "none"
    else:
        # if removing the loss would make the point feasible, loss is the
        # binding constraint; otherwise the cap/NEOP ratio itself is short
        lossless = int(np.floor(power_cap / per_branch + _FLOOR_EPS))
        if lossless >= (requested or 0):
            limiting = "loss"
        elif neop * snr_target > power_cap:
            limiting = "neop"
        else:
            limiting = "power_cap"
    return ScaleResult(scale=scale, feasible=feasible, limiting_factor=limiting)


@dataclass(frozen=True)
class SpeedResult:
    macs_per_second: float
    lossless_macs_per_second: float
    scale: int
    effective_c_out: int
    delay_loss_db: float


def delay_line_loss_db(config: HardwareConfig, image_width: int,
                       sigma: int) -> float:
    """Loss of the longest delay line, the delay bank's last tap (D_max
    cycles at f_m).  Tap lengths do not depend on loss, and the lossless
    bank is always feasible, so this never raises InfeasibleDesignError."""
    spec = ConvLayerSpec(config.c_in, config.c_out, sigma, image_width)
    bank = design_delay_bank(spec, config.f_m, config.group_velocity)
    return config.loss_delay_per_meter_db * bank.taps[-1].physical_length


def speed(config: HardwareConfig, image_width: int, sigma: int) -> SpeedResult:
    """Achievable MAC/s once delay-line loss is folded into the scale limit."""
    if sigma * sigma != config.q:
        raise InvalidSpecError(
            f"sigma {sigma} inconsistent with q = {config.q}"
        )
    delay_loss = delay_line_loss_db(config, image_width, sigma)
    base = config.loss_wdm_to_pd_db

    def rate(total_loss_db: float) -> tuple[float, int, int]:
        """(MAC/s, scale, effective C_O) at one chain loss."""
        scale = max_scale(config.power_cap, total_loss_db, config.neop,
                          config.snr_target).scale
        c_out_eff = min(config.c_out, scale // config.q)
        if c_out_eff < 1:
            raise InfeasibleDesignError(
                f"scale {scale} cannot support a single output "
                f"channel of q = {config.q}"
            )
        at_scale = replace(config, c_out=c_out_eff)
        return architecture_mac_rate("IPCNN", at_scale), scale, c_out_eff

    macs, scale, c_out_eff = rate(base + delay_loss)
    lossless, _, _ = rate(base)
    return SpeedResult(
        macs_per_second=macs,
        lossless_macs_per_second=lossless,
        scale=scale,
        effective_c_out=c_out_eff,
        delay_loss_db=delay_loss,
    )


@dataclass(frozen=True)
class PowerBudget:
    architecture: str
    lasers: float
    eo_modulation: float
    weighting: float
    tia: float
    adc: float

    @property
    def total(self) -> float:
        return self.lasers + self.eo_modulation + self.weighting + self.tia + self.adc

    @property
    def total_without_weighting(self) -> float:
        return self.total - self.weighting

    def ratios(self) -> dict[str, float]:
        t = self.total
        return {
            "lasers": self.lasers / t,
            "eo_modulation": self.eo_modulation / t,
            "weighting": self.weighting / t,
            "tia": self.tia / t,
            "adc": self.adc / t,
        }

    def ratios_without_weighting(self) -> dict[str, float]:
        t = self.total_without_weighting
        return {
            "lasers": self.lasers / t,
            "eo_modulation": self.eo_modulation / t,
            "tia": self.tia / t,
            "adc": self.adc / t,
        }


def _laser_power(config: HardwareConfig, branches: int,
                 chain_loss_db: float) -> float:
    """Wall-plug laser power to give every branch snr*neop after the chain."""
    optical = (branches * config.snr_target * config.neop
               * 10 ** (chain_loss_db / 10))
    return optical / config.wall_plug_efficiency


def _architecture(name: str) -> Architecture:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise InvalidSpecError(
            f"unknown architecture {name!r}; expected one of "
            f"{tuple(ARCHITECTURES)}"
        ) from None


def _count(term: str, config: HardwareConfig) -> int:
    """Evaluate a device count such as "C_I*C_O*Q" at the config's sizes."""
    sizes = {"1": 1, "C_I": config.c_in, "C_O": config.c_out, "Q": config.q}
    return math.prod(sizes[factor] for factor in term.split("*"))


def energy_budget_ipcnn(config: HardwareConfig) -> PowerBudget:
    return energy_budget_comparative("IPCNN", config)


def energy_budget_comparative(architecture: str,
                              config: HardwareConfig) -> PowerBudget:
    """Power budget of one architecture from its ARCHITECTURES row."""
    arch = _architecture(architecture)
    chain = config.total_insertion_loss_db - arch.loss_advantage_db
    if chain < 0:
        raise InvalidSpecError(
            "comparative chain loss went negative; lower the 4 dB advantage"
        )
    return PowerBudget(
        architecture=architecture,
        lasers=_laser_power(config, _count(arch.branches, config), chain),
        eo_modulation=(_count(arch.modulators, config)
                       * getattr(config, arch.modulator_power)),
        weighting=_count(arch.weights, config) * config.p_mrr,
        tia=_count(arch.tias, config) * config.p_tia,
        adc=_count(arch.adcs, config) * config.f_m * config.e_adc,
    )


def architecture_mac_rate(architecture: str, config: HardwareConfig) -> float:
    """MACs per second each architecture completes at the same f_m."""
    arch = _architecture(architecture)
    return _count(arch.macs_per_cycle, config) * config.f_m


def efficiency(budget: PowerBudget, macs_per_second: float,
               weighting: str = "thermal") -> float:
    """Energy per MAC in pJ; capacitive weighting holds state at ~zero power."""
    if macs_per_second <= 0:
        raise InvalidSpecError("speed must be positive")
    if weighting == "thermal":
        total = budget.total
    elif weighting == "capacitive":
        total = budget.total_without_weighting
    else:
        raise InvalidSpecError(
            f"weighting mode {weighting!r} not in ('thermal', 'capacitive')"
        )
    return total / macs_per_second * 1e12


def scale_grid(
    neop_values: list[float],
    loss_values_db: list[float],
    power_cap: float,
    snr_target: float,
    requested: int | None = None,
) -> list[dict]:
    """Max-scale over a (NEOP, loss) grid; infeasible cells are flagged."""
    rows = []
    for neop in neop_values:
        for loss in loss_values_db:
            result = max_scale(power_cap, loss, neop, snr_target,
                               requested=requested)
            rows.append({
                "neop_w": neop,
                "insertion_loss_db": loss,
                "scale": result.scale,
                "feasible": result.feasible,
                "limiting_factor": result.limiting_factor,
            })
    return rows


def speed_curve(
    config: HardwareConfig,
    f_m_values: list[float],
    loss_per_meter_levels: list[float],
    image_width: int,
    sigma: int,
) -> list[dict]:
    """Speed vs modulation rate per delay-line loss level."""
    rows = []
    for loss_pm in loss_per_meter_levels:
        for f_m in f_m_values:
            cfg = replace(config, f_m=f_m, loss_delay_per_meter_db=loss_pm)
            try:
                result = speed(cfg, image_width, sigma)
                rates = (result.macs_per_second,
                         result.lossless_macs_per_second)
            except InfeasibleDesignError:
                rates = None
            rows.append({
                "loss_per_meter_db": loss_pm,
                "f_m_hz": f_m,
                "macs_per_second": rates[0] if rates else 0.0,
                "lossless_macs_per_second": rates[1] if rates else 0.0,
                "feasible": rates is not None,
            })
    return rows
