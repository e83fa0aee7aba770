"""Digital-root algebra and 6m-sided wheel residue geometry.

Digital roots are plain ints in 1..9; wheel moduli are ints in 1..sides.
All functions are pure.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd

from .errors import require_int

__all__ = ["TripletClass", "WheelConfig", "admissible_moduli", "digital_root", "dr_add", "dr_mul",
           "fibonacci_dr_cycle", "modulus_of", "prime_moduli", "triplet_class"]


class TripletClass(Enum):
    """The three digital-root classes: [3,6,9], [1,4,7], [2,5,8]."""

    T369 = (3, 6, 9)
    T147 = (1, 4, 7)
    T258 = (2, 5, 8)


# Indexed by a digital root mod 3: roots 3, 6, 9 give 0; 1, 4, 7 give 1; 2, 5, 8 give 2.
_TRIPLETS_BY_RESIDUE = (TripletClass.T369, TripletClass.T147, TripletClass.T258)


def digital_root(n: int) -> int:
    """Iterated digit sum of a positive integer, via the mod-9 closed form.

    Equals 1 + (n-1) mod 9, which is what repeatedly summing decimal
    digits converges to.
    """
    if type(n) is not int:
        require_int(n, "n")
    if n < 1:
        raise ValueError(f"digital root is defined for positive integers, got {n}")
    return 1 + (n - 1) % 9


def triplet_class(n: int) -> TripletClass:
    """Triplet class of digital_root(n), which the root's residue mod 3 picks."""
    return _TRIPLETS_BY_RESIDUE[digital_root(n) % 3]


def dr_add(a: int, b: int) -> int:
    """Digital root of a+b, computed from the roots of a and b."""
    return digital_root(digital_root(a) + digital_root(b))


def dr_mul(a: int, b: int) -> int:
    """Digital root of a*b, computed from the roots of a and b."""
    return digital_root(digital_root(a) * digital_root(b))


def fibonacci_dr_cycle() -> list[int]:
    """Digital roots of the Fibonacci numbers, one full period.

    Runs the recurrence on digital roots only (never on big integers)
    and stops when the state pair returns to (1, 1).  The period is 24.
    """
    cycle: list[int] = []
    a, b = 1, 1
    while True:
        cycle.append(a)
        a, b = b, dr_add(a, b)
        if (a, b) == (1, 1):
            return cycle


def _check_sides(sides: int) -> None:
    if type(sides) is not int:
        require_int(sides, "wheel sides")
    if sides < 6 or sides % 6 != 0:
        raise ValueError(f"wheel sides must be a positive multiple of 6, got {sides}")


def modulus_of(n: int, sides: int) -> int:
    """Spoke of n on an s-sided wheel, in 1..sides.

    Positions run 1..sides, so n = sides sits on spoke ``sides`` and
    n = sides+1 wraps back to spoke 1.
    """
    if type(n) is not int:
        require_int(n, "n")
    if n < 1:
        raise ValueError(f"wheel positions start at 1, got {n}")
    _check_sides(sides)
    return (n - 1) % sides + 1


def prime_moduli(sides: int) -> frozenset[int]:
    """Spokes of the form 6k±1: the only spokes that can hold primes > 3."""
    _check_sides(sides)
    return frozenset(r for r in range(1, sides + 1) if r % 6 in (1, 5))


def admissible_moduli(sides: int) -> frozenset[int]:
    """Spokes coprime to the wheel size (equal to prime_moduli when sides = 24).

    Strictly smaller for e.g. sides = 30, where spokes 5 and 25 are 6k±1
    but share a factor with the wheel and hold at most one prime.
    """
    _check_sides(sides)
    return frozenset(r for r in range(1, sides + 1) if gcd(r, sides) == 1)


class WheelConfig(namedtuple("WheelConfig", "sides rings")):
    """An s-sided wheel (s a multiple of 6) with ``rings`` concentric rows."""

    __slots__ = ()

    def __new__(cls, sides: int, rings: int):
        _check_sides(sides)
        if type(rings) is not int:
            require_int(rings, "rings")
        if rings < 1:
            raise ValueError(f"rings must be positive, got {rings}")
        return tuple.__new__(cls, (sides, rings))

    @property
    def prime_moduli(self) -> frozenset[int]:
        return prime_moduli(self.sides)

    @property
    def admissible_moduli(self) -> frozenset[int]:
        return admissible_moduli(self.sides)

    @property
    def limit(self) -> int:
        """Largest number placed on the wheel."""
        return self.sides * self.rings

    def modulus_of(self, n: int) -> int:
        return modulus_of(n, self.sides)
