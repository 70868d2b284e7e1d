"""Exception types shared across the package."""


class SpinDtcError(Exception):
    """Base class for all package errors."""


class ShapeError(SpinDtcError):
    """Dimension or layout mismatch between states/operators."""


class CapacityError(SpinDtcError):
    """Requested Hilbert space exceeds the memory budget."""


class NotTabulatedError(SpinDtcError):
    """(n_sat, s) combination has no row in the requested table."""


class CheckpointError(SpinDtcError):
    """Corrupt or malformed checkpoint data."""
