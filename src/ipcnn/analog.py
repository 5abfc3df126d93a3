"""Analog forward model of one photonic convolutional layer.

The layer is modeled at intensity level: serialized input channels ride on
separate wavelengths, the delay bank presents Q = sigma^2 shifted copies,
micro-ring weights scale each (input-channel, tap) pair per output channel,
balanced detection sums wavelengths into per-tap branch voltages, and a
voltage adder sums the Q branches.  At every valid time step the delayed
copies are exactly one im2col patch (the equivalence that
``conv_math.build_delayed_matrix`` and ``verify`` check), so the summed
output is simulated directly as the im2col matrix times the effective
weights ``rescale * gains * settings``: the digital conv's own chunked
GEMM (``layers.conv_gemm``), one GEMM per chunk of ``layers.CHUNK``
images.  The delayed tensor itself exists only in ``conv_math`` and
``verify``, as the oracle.

Activations are channel-major, as in ``layers``: each GEMM multiplies the
(C_O, C_I*Q) weights into the contiguous (C_I*Q, n*V*V) rows of a chunk's
lowering, one row per (channel, tap), into the chunk's columns of one
(C_O, B*V*V) product, returned as a (B, C_O, V, V) view with no transpose
copy.

Two fault mechanisms are injectable: additive Gaussian detection noise
(a single lumped NEOP level in dBc relative to the all-ones full-scale
branch value) and one multiplicative gain per (u, q, v) signal path.  The
Q branch noises are independent, so their sum at an output element is one
Gaussian of Q times the branch variance; it is drawn once per output
element, then scaled by the digital rescale.  A digital calibration
estimates the path gains from one-hot probes and pre-compensates the
programmed weights.

Every Gaussian value comes from ``box_muller``, which turns ceil(n/2)
uint64 steps of a generator into n N(0, 1) values: the two uint32 halves
of each step give two 23-bit uniforms, the first half of them radii and
the second angles.  The values have float32 precision, and their
magnitude is at most sqrt(2 ln 2**23) = 5.65, where a true Gaussian goes
past with probability 1.6e-8 per value.  ``standard_normal`` draws those
steps in one ``rng.integers`` call, and ``forward_batch`` draws each
chunk's in one call after the chunk's GEMM, one row of P =
ceil(C_O*V*V/2) steps per image, chunk after chunk, so image b takes the
P steps after the first b*P: the same values as P-step draws image by
image.  So detection noise is keyed by stream position (``noise_stream``):
conv k of a pass rooted at r draws from one PCG64 stream seeded by (r, k),
and image n owns its P steps from n*P on.  A block starting at image
``first`` gets the stream advanced by first*P, an O(log n) jump, and
``forward_batch`` draws the whole block from it.

Simulator state is immutable; forward passes are pure given (input,
generator), and a noisy call without a generator raises InvalidSpecError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv_math import ConvLayerSpec, kernels_to_weight_matrix
from .errors import (
    DegenerateHardwareError,
    DimensionError,
    EncodingError,
    InfeasibleDesignError,
    InvalidSpecError,
    check_count,
)
from .layers import CHUNK, conv_gemm, rows_to_batch

# Guards division by zero for the all-zero kernel tensor; far below any
# representable real kernel magnitude.
_ZERO_KERNEL_EPS = 1e-30

# Highest imbalance level, in dB.  Path gains span 10**(+-level/20), and the
# network's two convs in cascade scale activations by up to 10**(level/10):
# 10**100 here, far from float64's 1.8e308.  At 5000 dB the conv GEMM
# overflows and the logits turn NaN.
MAX_IMBALANCE_DB = 1000.0

# The bits of float32 1.0: OR'd over 23 random mantissa bits, they give a
# uniform float in [1, 2).
_FLOAT32_ONE = np.uint32(0x3F800000)


@dataclass(frozen=True)
class WeightProgramming:
    """MRR settings in [-1, 1] per (u, q, v) path plus the digital rescale."""

    settings: np.ndarray  # shape (C_I, Q, C_O)
    rescale: float


@dataclass(frozen=True)
class AnalogFaultModel:
    """Lumped noise level and per-path gains."""

    neop_dbc: float = -np.inf
    path_gains: np.ndarray | None = None  # (C_I, Q, C_O); None = all unity

    def __post_init__(self):
        # -inf is noise off; NaN, +inf and levels whose power ratio
        # 10**(dBc/10) overflows a float fail the comparison
        if not (np.isneginf(self.neop_dbc) or self.neop_dbc < 3080):
            raise InvalidSpecError(
                f"noise level must be -inf or below 3080 dBc, "
                f"got {self.neop_dbc}")

    @property
    def noiseless(self) -> bool:
        return np.isneginf(self.neop_dbc)

    def gains(self, spec: ConvLayerSpec) -> np.ndarray:
        shape = (spec.c_in, spec.q, spec.c_out)
        if self.path_gains is None:
            return np.ones(shape)
        g = np.asarray(self.path_gains, dtype=float)
        if g.shape != shape:
            raise DimensionError(f"path_gains shape {g.shape} != {shape}")
        return g

    def noise_sigma(self, spec: ConvLayerSpec) -> float:
        """Std of additive branch noise as a power ratio of full scale.

        Full scale is the single-wavelength signal intensity, normalized
        to 1 (unit image value through a unit weight).
        """
        if self.noiseless:
            return 0.0
        return 10 ** (self.neop_dbc / 10)


IDEAL = AnalogFaultModel()


@dataclass(frozen=True)
class CalibrationTable:
    estimated_gains: np.ndarray  # (C_I, Q, C_O)
    residual: float  # max relative deviation of a calibrated all-ones probe


def program_weights(kernels, spec: ConvLayerSpec) -> WeightProgramming:
    """Normalize kernels into MRR settings: settings = w / max|w|."""
    w = kernels_to_weight_matrix(kernels, spec)  # (C_O, C_I*Q)
    if not np.all(np.isfinite(w)):
        raise InvalidSpecError("kernel values must be finite")
    r = float(np.max(np.abs(w)))
    if r <= _ZERO_KERNEL_EPS:
        return WeightProgramming(
            settings=np.zeros((spec.c_in, spec.q, spec.c_out)), rescale=1.0
        )
    settings = (w / r).reshape(spec.c_out, spec.c_in, spec.q).transpose(1, 2, 0)
    return WeightProgramming(settings=settings, rescale=r)


def forward_batch(
    images: np.ndarray,
    programming: WeightProgramming,
    spec: ConvLayerSpec,
    faults: AnalogFaultModel = IDEAL,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Analog forward pass over a batch of images, shape (B, C_O, V, V).

    Computes rescale * (im2col(x) @ (gains * settings)) plus one Gaussian
    value of std ``output_noise_std`` per output element: the sum of the Q
    independent branch noises at each valid time step.  The noise of a
    chunk of n images is ``std * standard_normal(rng, n, C_O*V*V)``, one
    ``rng.integers`` call for an (n, P) array of uint64 steps, P =
    ceil(C_O*V*V/2), drawn chunk after chunk, none for an empty block; an
    image's values come from its row, laid out as its (C_O, V, V) output,
    so they have float32 precision and a tail cut at 5.65 std.  A noisy
    call without ``rng`` raises InvalidSpecError.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 4 or images.shape[1:] != (
        spec.c_in, spec.image_width, spec.image_width
    ):
        raise DimensionError(
            f"batch shape {images.shape} != "
            f"(B, {spec.c_in}, {spec.image_width}, {spec.image_width})"
        )
    if not np.all(np.isfinite(images)):
        raise EncodingError("non-finite image values cannot be intensity-encoded")
    if np.min(images, initial=0.0) < 0:
        raise EncodingError(
            "negative image values cannot be intensity-encoded"
        )
    std = output_noise_std(programming, spec, faults)
    if std > 0 and rng is None:
        raise InvalidSpecError("a noisy analog call needs a generator (rng)")

    eff = faults.gains(spec) * programming.settings     # (C_I, Q, C_O)
    w_eff = programming.rescale * eff.reshape(spec.c_in * spec.q, spec.c_out)
    add_noise = None
    if std > 0:
        per_image = spec.c_out * spec.valid_width ** 2
        # scaled in float64, which holds any std below the 3080 dBc cap,
        # into one chunk-sized buffer
        scaled = np.empty((spec.c_out, min(len(images), CHUNK),
                           spec.valid_width ** 2))

        def add_noise(n, part):                         # (C_O, n*V*V)
            z = standard_normal(rng, n, per_image).reshape(
                n, spec.c_out, -1).transpose(1, 0, 2)
            buffer = scaled[:, :n]
            np.multiply(z, std, out=buffer, dtype=np.float64)
            np.reshape(part, buffer.shape, copy=False)[...] += buffer

    out, dims = conv_gemm(images, spec.sigma, w_eff.T, each=add_noise)
    return rows_to_batch(out, dims)                     # (B, C_O, V, V)


def step_count(n: int) -> int:
    """uint64 steps ``box_muller`` takes for ``n`` values: ceil(n/2)."""
    return (n + 1) // 2


def noise_stream(root: int, conv: int, spec: ConvLayerSpec,
                 first: int) -> np.random.Generator:
    """Conv ``conv``'s detection-noise stream, positioned at image ``first``.

    One PCG64 stream per (root, conv), advanced by ``first`` times the P =
    ceil(C_O*V*V/2) uint64 steps each image owns.
    """
    stream = np.random.PCG64(np.random.SeedSequence([root, conv]))
    stream.advance(first * step_count(spec.c_out * spec.valid_width ** 2))
    return np.random.Generator(stream)


def standard_normal(rng, *shape: int) -> np.ndarray:
    """N(0, 1) float32 values of ``shape``: ``box_muller`` of one
    ``rng.integers`` call for ``step_count(shape[-1])`` uint64 steps per
    row, so row i takes the steps from i * step_count(shape[-1]) on."""
    *rows, n = shape
    steps = rng.integers(0, 2 ** 64, size=(*rows, step_count(n)),
                         dtype=np.uint64)
    return box_muller(steps, n)


def box_muller(steps: np.ndarray, n: int) -> np.ndarray:
    """``n`` N(0, 1) values from each row of ``step_count(n)`` uint64
    ``steps`` (the last axis, contiguous), overwritten in place; the
    result is a float32 view of ``steps``, of shape (..., n).

    Each uint32 half h of a row gives f = 1 + (h >> 9) / 2**23 in [1, 2),
    its float32 bits set directly.  The first half of the row and the
    second give the radius r = sqrt(-2 ln(2 - f)) and the angle
    2 pi (f - 1), both differences exact; r cos and r sin of the angle are
    independent N(0, 1) (Box & Muller 1958).  The first half of a result
    row is the cosines, the second the sines, and an odd ``n`` drops the
    last sine.  Each step of the transform is one ufunc over all rows.
    Radius and angle are float32, so the values have float32 precision;
    2 - f is at least 2**-23, so no value exceeds sqrt(2 ln 2**23) = 5.65
    in magnitude, which a true Gaussian does with probability 1.6e-8.
    """
    f = steps.view(np.uint32)
    f >>= np.uint32(9)
    f |= _FLOAT32_ONE
    f = f.view(np.float32)
    half = steps.shape[-1]
    radius, angle = f[..., :half], f[..., half:]
    np.subtract(np.float32(2.0), radius, out=radius)
    np.log(radius, out=radius)
    radius *= np.float32(-2.0)
    np.sqrt(radius, out=radius)
    angle -= np.float32(1.0)
    angle *= np.float32(2 * np.pi)
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    np.multiply(cos, radius, out=radius)
    return f[..., :n]


def output_noise_std(
    programming: WeightProgramming,
    spec: ConvLayerSpec,
    faults: AnalogFaultModel,
) -> float:
    """Std of the lumped Gaussian at one output element; 0 when noiseless.

    The Q independent branch noises of std sigma_n sum to one Gaussian of
    std sigma_n * sqrt(Q), which the digital rescale then multiplies.
    """
    return programming.rescale * faults.noise_sigma(spec) * np.sqrt(spec.q)


def sample_imbalance(
    spec: ConvLayerSpec, level_db: float, seed: int
) -> np.ndarray:
    """Draw per-path gains whose max/min ratio is exactly ``level_db``.

    Gains are drawn log-uniform, then affinely stretched in the log domain
    to hit the requested spread exactly, centered on 0 dB.
    """
    if not 0 <= level_db <= MAX_IMBALANCE_DB:
        raise InvalidSpecError(
            f"imbalance level must be in [0, {MAX_IMBALANCE_DB:g}] dB, "
            f"got {level_db}")
    shape = (spec.c_in, spec.q, spec.c_out)
    if level_db == 0:
        return np.ones(shape)
    n_paths = spec.c_in * spec.q * spec.c_out
    if n_paths < 2:
        raise InvalidSpecError(
            "a nonzero imbalance level needs at least two signal paths"
        )
    # Draw on [0, 1) and stretch after: draws scaled by a subnormal level
    # would collapse to one value, and a zero span divides 0 by 0.
    raw = np.random.default_rng(seed).random(shape)
    lo, hi = raw.min(), raw.max()
    stretched = (raw - lo) / (hi - lo) * level_db - level_db / 2
    return 10 ** (stretched / 10)


def probe_path_responses(
    spec: ConvLayerSpec,
    faults: AnalogFaultModel,
    rng: np.random.Generator | None = None,
    repeats: int = 1,
) -> np.ndarray:
    """Measured one-hot probe response per path.

    Probing sets a single MRR to 1 and drives an all-ones image, so the
    noiseless branch response at every valid time step is exactly the path
    gain.  With noise, each probe is the mean over ``repeats`` runs times
    the V^2 valid samples of one run; the mean of that many independent
    Gaussian draws is sampled directly, one ``standard_normal`` value per
    path from ``rng``, which a noisy call needs.  ``repeats`` must be an
    integer >= 1.
    """
    check_count("repeats", repeats)
    gains = faults.gains(spec)
    sigma_n = faults.noise_sigma(spec)
    if sigma_n == 0:
        return gains.copy()
    if rng is None:
        raise InvalidSpecError("a noisy analog call needs a generator (rng)")
    n_avg = repeats * spec.valid_width ** 2
    z = standard_normal(rng, gains.size).reshape(gains.shape)
    return gains + np.multiply(z, sigma_n / np.sqrt(n_avg), dtype=np.float64)


def calibrate(
    spec: ConvLayerSpec,
    faults: AnalogFaultModel,
    repeats: int = 1,
    rng: np.random.Generator | None = None,
) -> CalibrationTable:
    """Estimate per-path gains from one-hot probes (ideal response is 1)."""
    measured = probe_path_responses(spec, faults, rng=rng, repeats=repeats)
    if np.min(measured) <= 0:
        raise DegenerateHardwareError("zero or negative probe response")
    true_gains = faults.gains(spec)
    residual = float(np.max(np.abs(true_gains / measured - 1.0)))
    return CalibrationTable(estimated_gains=measured, residual=residual)


def apply_calibration(
    programming: WeightProgramming, table: CalibrationTable
) -> WeightProgramming:
    """Pre-compensate settings by the estimated gains, keeping |s| <= 1.

    The renormalization enlarges the digital rescale factor, which also
    amplifies detected noise proportionally.
    """
    if np.min(table.estimated_gains) <= 0:
        raise InfeasibleDesignError(
            "cannot compensate a non-positive gain estimate"
        )
    compensated = programming.settings / table.estimated_gains
    # dividing and multiplying by 1.0 are exact; a NaN peak counts as 1.0
    peak = max(1.0, float(np.max(np.abs(compensated))))
    return WeightProgramming(
        settings=compensated / peak, rescale=programming.rescale * peak
    )
