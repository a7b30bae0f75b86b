"""Exception and warning types shared across the package."""


class OmstirapError(Exception):
    """Base of every domain and integration error the package raises."""


class InvalidDimensionError(OmstirapError, ValueError):
    """The dimensions of an operator and a state disagree, or fall below the minimum."""


class OutOfRangeError(OmstirapError, ValueError):
    """An occupation number or index lies outside the truncated space."""


class InvalidArgumentError(OmstirapError, ValueError):
    """An argument violates a documented precondition."""


class InvalidStateError(OmstirapError, ValueError):
    """A density matrix or state vector violates its invariants."""


class UndefinedModeError(OmstirapError, ValueError):
    """Collective mode is undefined (all couplings vanish)."""


class DegenerateAngleError(OmstirapError, ValueError):
    """Mixing angle makes the requested analysis degenerate."""


class DomainError(OmstirapError, ValueError):
    """Input outside the mathematical domain of a closed-form expression."""


class TruncationError(OmstirapError, ValueError):
    """Truncated representation would drop too much probability mass."""


class OracleTooLargeError(OmstirapError, ValueError):
    """Dense-superoperator oracle requested above its dimension cap."""


class UndefinedSteadyStateError(OmstirapError, ValueError):
    """Steady-state formulas are undefined for the given rates."""


class ConfigError(OmstirapError, ValueError):
    """Run configuration failed validation."""


class StiffnessError(OmstirapError, RuntimeError):
    """Adaptive step size underflowed; carries the last good time."""

    def __init__(self, last_good_time: float):
        self.last_good_time = last_good_time
        super().__init__(f"step size underflow at t = {last_good_time:.6e} s")

    def __reduce__(self):  # survives the trip back from a worker process
        return type(self), (self.last_good_time,)


class IntegrationDivergedError(OmstirapError, RuntimeError):
    """A trace drift (of |psi|^2 for a pure state) exceeded the tolerance named,
    or, without a drift, the state turned non-finite in the step from ``time``."""

    def __init__(self, time: float, drift: float | None = None, tolerance: float | None = None):
        self.time = time
        self.drift = drift
        self.tolerance = tolerance
        if drift is None:
            super().__init__(f"non-finite state in the step from t = {time:.6e} s")
        else:
            super().__init__(
                f"trace drift {drift:.3e} exceeded {tolerance:.0e} at t = {time:.6e} s"
            )

    def __reduce__(self):
        return type(self), (self.time, self.drift, self.tolerance)


class TruncationWarning(UserWarning):
    """Truncated tail mass is non-negligible; state was renormalized."""


class SidebandResolutionWarning(UserWarning):
    """Cavity linewidth is not small against a mechanical frequency."""
