"""Exception types shared across the package."""


class ShiftPoseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ShiftPoseError):
    """A tensor dimension does not match what an operation requires.

    The message names the offending axis so shape bugs are diagnosable
    from the error alone.
    """


class ConfigError(ShiftPoseError):
    """A configuration value is invalid; the message carries the key path."""

    def __init__(self, key_path, message):
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}")


class StateError(ShiftPoseError):
    """An operation was applied in a state that forbids it (e.g. backward
    from a root that requires no gradient)."""


class NumericError(ShiftPoseError):
    """Training produced a non-finite value; names the first offending layer."""


class GenerationError(ShiftPoseError):
    """Synthetic-sample placement was infeasible after bounded retries."""


class CheckpointError(ShiftPoseError):
    """A checkpoint file is malformed, truncated, or of an unknown version."""
