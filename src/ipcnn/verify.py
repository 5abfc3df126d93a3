"""Randomized delay-GeMM equivalence suite.

Draws random layer shapes and data, runs both convolution routes, and
compares them.  A deliberate-corruption mode shifts one delay tap so the
suite's failure reporting can itself be tested.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .conv_math import (
    ConvLayerSpec,
    DelayedMatrix,
    _valid_columns,
    build_delayed_matrix,
    conv2d_reference,
    gemm_conv,
    im2col_oracle,
    kernels_to_weight_matrix,
    valid_output,
)
from .errors import InvalidSpecError, check_count, check_seed

REL_TOL = 1e-12


@dataclass(frozen=True)
class EquivalenceResult:
    passed: bool
    instances: int
    first_failure: dict | None
    digest: str


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


def run_equivalence_suite(
    instances: int = 200,
    seed: int = 0,
    max_channels: int = 8,
    sigmas=(1, 2, 3, 5),
    max_width: int = 16,
    corrupt_delay_offsets: bool = False,
) -> EquivalenceResult:
    """Compare the routes on ``instances`` random layers drawn from ``seed``.

    Raises InvalidSpecError, before drawing anything, unless the counts are
    integers >= 1, the seed an integer >= 0, ``sigmas`` a non-empty list of
    counts and ``max_width`` at least the largest of them.
    """
    check_count("instances", instances)
    check_seed("seed", seed)
    check_count("max_channels", max_channels)
    if len(sigmas) == 0:
        raise InvalidSpecError("sigmas must not be empty")
    for sigma in sigmas:
        check_count("each of sigmas", sigma)
    check_count("max_width", max_width, minimum=max(sigmas))

    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    first_failure = None
    for instance in range(instances):
        sigma = int(rng.choice(sigmas))
        spec = ConvLayerSpec(
            c_in=int(rng.integers(1, max_channels + 1)),
            c_out=int(rng.integers(1, max_channels + 1)),
            sigma=sigma,
            image_width=int(rng.integers(sigma, max_width + 1)),
        )
        images = rng.random((spec.c_in, spec.image_width, spec.image_width))
        kernels = rng.standard_normal(
            (spec.c_in, spec.c_out, spec.sigma, spec.sigma))

        delayed = build_delayed_matrix(images, spec)
        if corrupt_delay_offsets and spec.q > 1:
            # shift the last tap's stream one clock late
            bad = delayed.data.copy()
            bad[spec.q - 1::spec.q] = np.roll(bad[spec.q - 1::spec.q], 1,
                                              axis=1)
            delayed = DelayedMatrix(data=bad, spec=spec)

        # the valid columns of X' as a (C_I*Q, V, V) view, im2col to match
        x_valid = _valid_columns(delayed.data, spec)
        x_cols = im2col_oracle(images, spec).reshape(x_valid.shape)
        reference = conv2d_reference(images, kernels, spec)
        y_full = gemm_conv(kernels_to_weight_matrix(kernels, spec), delayed)
        y_valid = valid_output(y_full, delayed)

        digest.update(y_valid.tobytes())
        matrix_ok = np.array_equal(x_cols, x_valid)
        err = _relative_error(y_valid, reference)
        if (not matrix_ok or err > REL_TOL) and first_failure is None:
            if not matrix_ok:
                row, m, n = np.argwhere(x_cols != x_valid)[0]
            else:
                row, m, n = np.unravel_index(
                    np.argmax(np.abs(y_valid - reference)), y_valid.shape)
            first_failure = {
                "instance": instance,
                "spec": {
                    "c_in": spec.c_in, "c_out": spec.c_out,
                    "sigma": spec.sigma, "image_width": spec.image_width,
                },
                "row": int(row),
                "column": int(m * spec.valid_width + n),
                "relative_error": err,
            }
    return EquivalenceResult(
        passed=first_failure is None,
        instances=instances,
        first_failure=first_failure,
        digest=digest.hexdigest(),
    )
