"""Exception types shared across the package."""

__all__ = ["ValidationError", "SchemaError", "ParseError"]


class ValidationError(ValueError):
    """Invalid input data or configuration (CLI maps this to exit code 2)."""


class SchemaError(ValidationError):
    """A required column is missing or a file does not match its schema."""


class ParseError(ValidationError):
    """A field could not be parsed; carries the offending row index."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row

