"""Physical models of the passive/active optical components.

Covers the cascaded delay-line bank with intensity-equalizing drop ports,
noise-equivalent optical power (NEOP) aggregation at the photodetector/TIA,
the Kerr nonlinearity coefficient, and dBm/W conversions.  All pure
functions over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv_math import ConvLayerSpec, delay_offsets, physical_delay
from .errors import InfeasibleDesignError, InvalidSpecError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Group index 2.0 is typical for Si3N4 waveguides; configurable everywhere.
DEFAULT_GROUP_VELOCITY = SPEED_OF_LIGHT / 2.0


@dataclass(frozen=True)
class DelayTap:
    delay_cycles: int
    physical_length: float   # m of accumulated travel before the drop
    accumulated_loss: float  # dB of propagation loss up to the drop
    drop_coupling: float     # fraction of arriving power sent to the drop


@dataclass(frozen=True)
class DelayBankDesign:
    taps: tuple[DelayTap, ...]
    group_velocity: float
    loss_per_meter: float

    def drop_powers(self, input_power: float = 1.0) -> np.ndarray:
        """Forward power-propagation: power emitted at each drop port.

        Independent of the coupling-solving algebra in
        :func:`design_delay_bank`; used as its oracle.
        """
        powers = []
        p = input_power
        prev_len = 0.0
        for tap in self.taps:
            seg = tap.physical_length - prev_len
            p *= 10 ** (-self.loss_per_meter * seg / 10)
            powers.append(p * tap.drop_coupling)
            p *= 1 - tap.drop_coupling
            prev_len = tap.physical_length
        return np.array(powers)


def design_delay_bank(
    spec: ConvLayerSpec,
    f_m: float,
    group_velocity: float = DEFAULT_GROUP_VELOCITY,
    loss_per_meter: float = 0.0,
) -> DelayBankDesign:
    """Solve drop couplings so all Q outputs carry equal intensity.

    With arrival power P_k at tap k and per-segment transmission a_k, the
    recurrence P_{k+1} = (P_k - E) a_k is linear in the common drop power
    E, and the last tap drops everything (coupling 1), which pins E.
    """
    if loss_per_meter < 0:
        raise InvalidSpecError(f"loss must be >= 0 dB/m, got {loss_per_meter}")

    offsets = delay_offsets(spec.sigma, spec.image_width)
    _, lengths = physical_delay(offsets, f_m, group_velocity)
    n_taps = len(offsets)

    # Segment transmissions between consecutive drops (first segment reaches
    # tap 0 from the input).
    seg_lengths = np.diff(lengths, prepend=0.0)
    seg_trans = 10 ** (-loss_per_meter * seg_lengths / 10)

    # P_k = alpha_k * P_in - beta_k * E, accumulated through the cascade.
    alpha, beta = seg_trans[0], 0.0
    for a in seg_trans[1:]:
        alpha, beta = alpha * a, (beta + 1.0) * a
    drop_power = alpha / (1.0 + beta)  # for unit input power

    taps = []
    p = 1.0
    for k in range(n_taps):
        p *= seg_trans[k]
        coupling = 1.0 if k == n_taps - 1 else drop_power / p
        if not 0.0 < coupling <= 1.0 + 1e-12:
            raise InfeasibleDesignError(
                f"tap {k} requires drop coupling {coupling:.6g} outside (0, 1]; "
                "propagation loss too high to equalize intensities"
            )
        taps.append(
            DelayTap(
                delay_cycles=int(offsets[k]),
                physical_length=float(lengths[k]),
                accumulated_loss=float(loss_per_meter * lengths[k]),
                drop_coupling=float(min(coupling, 1.0)),
            )
        )
        p *= 1 - taps[-1].drop_coupling
    return DelayBankDesign(
        taps=tuple(taps),
        group_velocity=group_velocity,
        loss_per_meter=loss_per_meter,
    )


def aggregate_neop(
    pd_noise: float,
    pd_responsivity: float,
    tia_noise_current: float,
    bandwidth: float,
) -> float:
    """Root-sum-square NEOP of photodetector and TIA over the bandwidth.

    Densities are per sqrt(Hz), so each contribution scales with sqrt(B);
    uncorrelated noise powers add, hence the RSS.
    """
    if pd_noise < 0 or tia_noise_current < 0:
        raise InvalidSpecError("noise densities must be >= 0")
    if pd_responsivity <= 0 or bandwidth <= 0:
        raise InvalidSpecError("responsivity and bandwidth must be positive")
    rt_b = np.sqrt(bandwidth)
    pd_term = pd_noise * rt_b
    tia_term = tia_noise_current * rt_b / pd_responsivity
    return float(np.hypot(pd_term, tia_term))


def nonlinear_coefficient(n2: float, wavelength: float, mode_area: float) -> float:
    """Effective nonlinear coefficient gamma = 2 * (2 pi n2) / (lambda A_eff).

    The leading factor 2 is a deliberate convention choice (some texts fold
    a factor-2 polarization/field overlap into gamma); it is kept explicit
    here rather than silently absorbed.
    """
    if n2 <= 0 or wavelength <= 0 or mode_area <= 0:
        raise InvalidSpecError("n2, wavelength and mode_area must be positive")
    return 2.0 * (2.0 * np.pi * n2) / (wavelength * mode_area)


def dbm_to_watts(dbm: float) -> float:
    return 10 ** (dbm / 10) * 1e-3


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise InvalidSpecError(f"power must be positive, got {watts}")
    return float(10 * np.log10(watts / 1e-3))
