"""Exception types shared across the package."""

__all__ = ["ValidationError"]


class ValidationError(ValueError):
    """Invalid input data or configuration (CLI maps this to exit code 2)."""
