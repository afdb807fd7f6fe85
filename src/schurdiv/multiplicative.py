"""Completely multiplicative functions into k-th roots of unity.

A function here is determined by an exponent in Z_k for every prime
(unlisted primes fall back to a default exponent); the value at n is the
exponent sum over the prime factorization of n.  Values are always
handled as exponents, never as floating-point complex numbers, so
f(a) = 1 reads as exponent 0.  `min_consecutive_ones` walks f(r) = f(q) +
f(r/q) over `primes.smallest_prime_factors`, factorizing only past it.

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

from .primes import _check_int, factorize, is_prime, smallest_prime_factors

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
        exponents = dict(prime_exponents)
        if not all(type(v) is int for v in (k, default_exponent, *exponents, *exponents.values())):
            raise ValueError("k, primes and exponents must be integers")
        _check_int("k", k, 1)
        normalized = {}
        for p, e in exponents.items():
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
    _check_int("n", n, 1)
    return sum(e * f.exponent_of(p) for p, e in factorize(n)) % f.k


def min_consecutive_ones(f: UnityFunction, search_bound: int) -> int | None:
    """Minimal a <= search_bound with f(a) = f(a+1) = 1, or None."""
    _check_int("search_bound", search_bound, 1)
    spf = smallest_prime_factors()
    values = [0, 0]  # values[r] = exponent of f(r), appended for each r in the table
    prev = 0  # f(1)
    for r in range(2, search_bound + 2):
        if r < len(spf):
            q = spf[r]
            cur = f.exponent_of(r) if q == r else (values[q] + values[r // q]) % f.k
            values.append(cur)
        else:
            cur = evaluate(f, r)
        if prev == 0 and cur == 0:
            return r - 1
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
    from .coloring import UnityColoring
    from .ramsey import direct_schur_div_search

    _check_int("restricted_schur_bound", restricted_schur_bound, 1)
    witness = direct_schur_div_search(UnityColoring(f), restricted_schur_bound)
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
