"""Exception types shared across the package."""


class CapabilityError(RuntimeError):
    """Requested operation exceeds a configured size or budget limit."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; the message carries the last residual."""


class DegenerateSpectrumError(RuntimeError):
    """The leading eigenvalue is not strictly positive."""
