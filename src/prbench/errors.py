"""Exception types shared across the package."""


class CapabilityError(RuntimeError):
    """Requested operation exceeds a configured size or budget limit."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DegenerateSpectrumError(RuntimeError):
    """The leading eigenvalue is not strictly positive."""
