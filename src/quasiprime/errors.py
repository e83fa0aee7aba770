"""Exception types and the int and size guards shared across the package.

Nothing here depends on the wheel or grid machinery, so the sieve oracle
can share the guards and stay independent of what it checks.
"""

__all__ = ["ConsistencyError", "NoFactorsError", "NotOnPrimeModuliError", "NotQuasiPrimeError",
           "ResourceLimitError"]


def require_int(value, what: str) -> None:
    """Reject anything but a plain int, bool included, before any work is done."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")


def require_limit(value, what: str, least: int, cap: int | None = None) -> None:
    """Reject a size argument that is not an int, below ``least`` or above ``cap``."""
    require_int(value, what)
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    if cap is not None and value > cap:
        raise ResourceLimitError(f"{what} {value} exceeds cap {cap}")


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
