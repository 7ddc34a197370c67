"""The two exception types of the package, one per CLI failure exit."""


class InputError(ValueError):
    """Bad argument or configuration (exit 2): wrong shape, domain, range or kernel."""


class NumericalError(RuntimeError):
    """Numerical failure (exit 3): a singular system, non-finite iterates or values."""
