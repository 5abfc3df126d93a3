"""Exception types shared across the package, and the count and seed
checks that raise one."""

import operator


class IpcnnError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(IpcnnError, ValueError):
    """Tensor shape inconsistent with the layer spec; message names the axis."""


class InvalidSpecError(IpcnnError, ValueError):
    """Layer/hardware parameters violate a precondition (e.g. L < sigma)."""


class InfeasibleDesignError(IpcnnError, ValueError):
    """No physical design satisfies the request (e.g. coupling outside (0,1])."""


class EncodingError(IpcnnError, ValueError):
    """Data cannot be intensity-encoded (negative values reaching optics)."""


class DegenerateHardwareError(IpcnnError, ValueError):
    """A probe measured a non-positive response; hardware model is degenerate."""


class ConfigError(IpcnnError, ValueError):
    """Experiment configuration file is malformed or contains unknown keys."""


class TrainingError(IpcnnError, RuntimeError):
    """Training diverged (non-finite loss); message carries epoch/batch index."""


class CheckpointError(IpcnnError, OSError):
    """A file cannot be read as a checkpoint: not an .npz archive, cut
    short, or with metadata that is not a JSON object."""


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise InvalidSpecError unless ``value`` is an integer >= ``minimum``;
    a float such as 2.0 or 1.5 is not one."""
    try:
        operator.index(value)
    except TypeError:
        raise InvalidSpecError(
            f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise InvalidSpecError(f"{name} must be >= {minimum}, got {value}")


def check_seed(name: str, value) -> None:
    """Raise InvalidSpecError unless ``value`` is an integer >= 0, as a
    numpy seed must be."""
    check_count(name, value, minimum=0)
