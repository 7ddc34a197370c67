"""Exception types shared across the package."""


class InputError(ValueError):
    """Bad argument: wrong shape, wrong domain, or out-of-range parameter."""


class UnsupportedConfigurationError(InputError):
    """Operation requested for a kernel / model configuration it does not support."""


class NumericalError(RuntimeError):
    """Numerical computation produced an internally inconsistent result."""


class SingularMatrixError(NumericalError):
    """Symmetric factorization hit a non-positive pivot."""

    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(message or f"non-positive pivot at index {pivot_index}")


class DivergenceError(NumericalError):
    """Iterates became non-finite (bad step size or corrupted input)."""


class InstabilityError(NumericalError):
    """Value iteration diverged; a larger ridge parameter usually helps."""
