"""Exception types, the int and size guards shared across the package, and
the hooks that serve a name from the module it moved to.

Nothing here depends on the wheel or grid machinery, so the sieve oracle
can share the guards and stay independent of what it checks.
"""

__all__ = ["ConsistencyError", "NoFactorsError", "NotOnPrimeModuliError", "NotQuasiPrimeError",
           "ResourceLimitError"]


def serve_moved(namespace: dict, homes: dict[str, str]):
    """The PEP 562 __getattr__ and __dir__ of the module whose globals are
    namespace, serving each name in homes from its home module, loaded on
    the first access to one of its names.  A package serves each home by
    its own name too.

    CPython 3.11 does not specialize an attribute load from a module that
    has __getattr__ (~20 ns more per load), so the package's own modules
    import a served name from its home rather than read it from the module
    that serves it.
    """
    module = namespace["__name__"]
    served = {home: home for home in homes.values()} | homes if "__path__" in namespace else homes

    def __getattr__(name: str):
        home = served.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        loaded = import_module(f".{home}", namespace["__package__"])
        # Bound once, so that later lookups and vars() find every name, as an
        # eager import left them.
        namespace.update({n: getattr(loaded, n) for n, h in homes.items() if h == home})
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted({*namespace, *served})

    return __getattr__, __dir__


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
