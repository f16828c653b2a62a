"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """A scalar parameter or discretization control is out of range."""


class StructureError(ValueError):
    """A mode profile carries a component its function space forbids."""


class DegenerateShiftError(ParameterError):
    """A mode-operator shift vanished, so its inverse does not exist."""


class SingularOperatorError(ParameterError):
    """A dense mode operator has an exactly zero pivot, so it has no inverse."""


class NonFiniteError(ParameterError):
    """A dense solve was handed an operator or right-hand side holding inf or NaN."""


class SignConditionError(RuntimeError):
    """A pointwise sign condition on the stream profile failed.

    Carries the offending quantity and the (beta, phi) location so the
    caller can report where the iterate left the admissible region.
    """

    def __init__(self, quantity: str, beta: float, phi: float, value: float):
        self.quantity = quantity
        self.beta = beta
        self.phi = phi
        self.value = value
        super().__init__(
            f"sign condition failed for {quantity} at "
            f"(beta={beta:.6g}, phi={phi:.6g}): value {value:.6g}"
        )


class ConvergenceError(RuntimeError):
    """An iteration failed to converge; carries the last iterate and report."""

    def __init__(self, message: str, last_iterate=None, report=None):
        self.last_iterate = last_iterate
        self.report = report
        super().__init__(message)


class AccuracyError(RuntimeError):
    """A quadrature did not reach the requested tolerance.

    ``achieved`` is the best error estimate at the point of failure.
    """

    def __init__(self, message: str, achieved: float):
        self.achieved = achieved
        super().__init__(f"{message} (achieved {achieved:.3e})")


class InversionError(RuntimeError):
    """A chart inversion or radius solve stalled, or the radial derivative lost its sign."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


class DroppedMassWarning(UserWarning):
    """A residual evaluation dropped harmonic mass large against its scale."""

    def __init__(self, dropped: float, limit: float, scale: float):
        self.dropped = dropped
        self.scale = scale
        super().__init__(
            f"dropped harmonic mass {dropped:.3e} exceeds {limit:.1e} "
            f"of the residual scale {scale:.3e}"
        )
