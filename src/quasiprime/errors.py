"""Exception types and the int guard shared across the package.

Nothing here depends on the wheel or grid machinery, so the sieve oracle
can share the guard and stay independent of what it checks.
"""

__all__ = ["ConsistencyError", "NoFactorsError", "NotOnPrimeModuliError", "NotQuasiPrimeError",
           "ResourceLimitError"]


def require_int(value, what: str) -> None:
    """Reject anything but a plain int, bool included, before any work is done."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")


class NotOnPrimeModuliError(ValueError):
    """Input is divisible by 2 or 3, so it never appears on the 6k±1 moduli."""


class NoFactorsError(ValueError):
    """Grid factorization was asked to split a prime."""


class NotQuasiPrimeError(ValueError):
    """Grid factorization was asked to split a number with factor 2 or 3."""


class ResourceLimitError(ValueError):
    """A size cap (64-bit input, sieve limit, region extent, render limit) was exceeded."""


class ConsistencyError(RuntimeError):
    """The staged pipeline and the sieve oracle disagreed; rendering aborts."""
