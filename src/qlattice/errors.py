"""Shared exception types and the enumeration ceiling."""

#: Default ceiling on the number of elements any enumeration may produce.
DEFAULT_MAX_SIZE = 500_000


class NotPrimePowerError(ValueError):
    """Raised when a field cardinality is not a prime power."""


class UnsupportedFieldError(ValueError):
    """Raised when a field cardinality exceeds the supported bound."""


class TooLargeError(ValueError):
    """Raised when an enumeration would exceed the configured size ceiling."""


def _check_ceiling(total, max_size, what):
    """Raise TooLargeError when ``total`` elements, described by ``what``,
    exceed ``max_size`` (DEFAULT_MAX_SIZE when None)."""
    limit = DEFAULT_MAX_SIZE if max_size is None else max_size
    if total > limit:
        raise TooLargeError(f"{what}, above the ceiling {limit}")
