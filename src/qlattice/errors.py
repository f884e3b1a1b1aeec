"""Shared exception types and the enumeration ceiling."""

#: Default ceiling on the number of elements any enumeration may produce.
DEFAULT_MAX_SIZE = 500_000


class NotPrimePowerError(ValueError):
    """Raised when a field cardinality is not a prime power."""


class UnsupportedFieldError(ValueError):
    """Raised when a field cardinality exceeds the supported bound."""


class TooLargeError(ValueError):
    """Raised when an enumeration would exceed the configured size ceiling."""


def _check_length(n):
    """ValueError unless the length or dimension n is nonnegative: every
    running count of an enumeration, and every constructor of a subspace or
    an involution, starts here."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _check_ceiling(counts, max_size, what):
    """Raise TooLargeError when the running counts ``counts`` of an
    enumeration, nondecreasing up to its total, pass ``max_size``
    (DEFAULT_MAX_SIZE when None); ``what(count)`` names it.  A count past
    both the ceiling and 2^63 is left unfinished and shown as "at least
    2^63"."""
    limit = DEFAULT_MAX_SIZE if max_size is None else max_size
    stop = max(limit, 2**63 - 1)
    for total in counts:
        if total > stop:
            break
    if total > limit:
        shown = total if total < 2**63 else "at least 2^63"
        raise TooLargeError(f"{what(shown)}, above the ceiling {limit}")
