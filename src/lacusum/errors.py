"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, out-of-range parameter, shape mismatch."""


class NumericError(RuntimeError):
    """A numeric procedure failed (no root, divergence, non-convergence)."""


class NoPositiveRootError(NumericError):
    """E[Y] >= 0, so no positive MGF root exists."""


class MgfDivergenceError(NumericError):
    """The moment generating function became non-finite before a root was bracketed."""

    def __init__(self, message, last_finite_lambda=None):
        super().__init__(message)
        self.last_finite_lambda = last_finite_lambda


class NoDensityError(ConfigError):
    """A density was requested for a distribution that has none (point mass)."""


class DegenerateCoefficientError(ConfigError):
    """A baseline coefficient has zero variance and cannot be standardized."""

    def __init__(self, index):
        super().__init__(f"coefficient {index} is degenerate (zero variance) in the training pool")
        self.index = index


class CalibrationError(NumericError):
    """Threshold calibration could not bracket or meet its target."""
