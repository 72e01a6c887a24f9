"""The package's own exception type."""


class ExactnessError(RuntimeError):
    """An internal exactness check tripped: a result failed its own
    cross-check, or an exact computation would leave its integer range.
    It signals a bug, never bad input, so the CLI exits 1 on it."""
