"""Exception types shared across the package."""


class QecError(Exception):
    """Base class for all domain errors raised by this package."""


class NotTracePreserving(QecError):
    """Kraus family does not sum to the identity."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"channel is not trace preserving (residual {residual:.3e})")


class NotCorrectable(QecError):
    """Subspace fails the error-correction compression conditions."""

    def __init__(self, residual: float, threshold: float):
        self.residual = residual
        self.threshold = threshold
        super().__init__(
            f"subspace is not a correctable code (max residual {residual:.3e}, "
            f"threshold {threshold:.3e})"
        )


class NoCodeError(QecError):
    """The rank-k numerical range is empty, so no rank-k code exists."""


class LambdaOutsideRegionError(QecError):
    """Requested compression value lies outside the rank-k numerical range."""


class NoFeasiblePartitionError(QecError):
    """No eigenstate grouping realises the requested compression value: for
    k | N, a lambda accepted within the membership slack outside the exact
    range, where the hull of a group interleaved about it misses it by more
    than the slack (no such lambda is known)."""


class UnsupportedCodeDimensionError(QecError):
    """Eigenstate grouping requires the code dimension to divide the space dimension."""


class RecoveryVerificationError(QecError):
    """Constructed recovery operation failed its process-identity check."""
