"""Completely multiplicative functions into k-th roots of unity.

A function here is determined by an exponent in Z_k for every prime
(unlisted primes fall back to a default exponent); the value at n is the
exponent sum over the prime factorization of n.  Values are always
handled as exponents, never as floating-point complex numbers, so
f(a) = 1 reads as exponent 0.

Any such function partitions the positive integers into at most k color
classes.  Every k-coloring of {1..B} contains a monochromatic triple
x + y = z with x | y once B reaches the restricted Schur number for k
colors, and dividing that triple by x produces consecutive integers
a = y/x and a+1 = z/x on which the function is 1.  That pipeline is what
`verify_consecutive_ones_bound` runs and cross-checks.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .primes import factorize, is_prime

__all__ = [
    "ConsecutiveOnesWitness",
    "UnityFunction",
    "evaluate",
    "min_consecutive_ones",
    "verify_consecutive_ones_bound",
]


class _UnityFields(NamedTuple):
    k: int
    prime_exponents: Mapping[int, int] = MappingProxyType({})
    default_exponent: int = 0


class UnityFunction(_UnityFields):
    """Exponent data: prime -> exponent mod k, plus a default exponent."""

    __slots__ = ()

    def __new__(cls, k: int, prime_exponents: Mapping[int, int] = MappingProxyType({}),
                default_exponent: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        normalized = {}
        for p, e in dict(prime_exponents).items():
            if not is_prime(p):
                raise ValueError(f"exponent assigned to non-prime {p}")
            normalized[p] = e % k
        return super().__new__(cls, k, MappingProxyType(normalized), default_exponent % k)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    def exponent_of(self, p: int) -> int:
        return self.prime_exponents.get(p, self.default_exponent)


def evaluate(f: UnityFunction, n: int) -> int:
    """Exponent of f(n) in {0..k-1}; f(1) is exponent 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 0
    for p, e in factorize(n):
        total += e * f.exponent_of(p)
    return total % f.k


def min_consecutive_ones(f: UnityFunction, search_bound: int) -> int | None:
    """Minimal a <= search_bound with f(a) = f(a+1) = 1, or None."""
    if search_bound < 1:
        raise ValueError(f"search_bound must be >= 1, got {search_bound}")
    prev = evaluate(f, 1)
    for a in range(1, search_bound + 1):
        cur = evaluate(f, a + 1)
        if prev == 0 and cur == 0:
            return a
        prev = cur
    return None


class ConsecutiveOnesWitness(NamedTuple):
    x: int
    y: int
    z: int
    a: int
    min_a: int
    bound: int
    color: int


def verify_consecutive_ones_bound(f: UnityFunction, restricted_schur_bound: int) -> ConsecutiveOnesWitness:
    """Run the coloring pipeline and return a <= bound with f(a) = f(a+1) = 1.

    `restricted_schur_bound` must be an exact restricted Schur number for
    f.k colors; the monochromatic triple search below is then guaranteed
    to succeed, and its failure is loudly fatal rather than a value.
    """
    from .coloring import unity_coloring
    from .ramsey import direct_schur_div_search

    witness = direct_schur_div_search(unity_coloring(f), restricted_schur_bound)
    if witness is None:
        raise RuntimeError(
            f"no monochromatic divisible triple in 1..{restricted_schur_bound} under a "
            f"{f.k}-class coloring; the claimed restricted Schur bound is wrong (or the "
            f"partition guarantee itself failed, which should be impossible)"
        )
    a = witness.y // witness.x
    if evaluate(f, a) != 0 or evaluate(f, a + 1) != 0:
        raise RuntimeError(f"pipeline produced a={a} but f is not 1 at a and a+1")
    if a > restricted_schur_bound:
        raise RuntimeError(f"pipeline produced a={a} above the bound {restricted_schur_bound}")
    min_a = min_consecutive_ones(f, restricted_schur_bound)
    if min_a is None or min_a > a:
        raise RuntimeError(f"direct scan disagrees with pipeline witness a={a}: min={min_a}")
    return ConsecutiveOnesWitness(
        x=witness.x,
        y=witness.y,
        z=witness.z,
        a=a,
        min_a=min_a,
        bound=restricted_schur_bound,
        color=witness.color,
    )
