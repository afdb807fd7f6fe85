"""Completely multiplicative functions into k-th roots of unity.

A function here is determined by an exponent in Z_k for every prime
(unlisted primes fall back to a default exponent); the value at n is the
exponent sum over the prime factorization of n.  Values are always
handled as exponents, never as floating-point complex numbers, so
f(a) = 1 reads as exponent 0.  `min_consecutive_ones` walks f(r) = f(q) +
f(r/q) over `primes.smallest_prime_factors`, factorizing only past it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .primes import _check_int, factorize, is_prime, smallest_prime_factors

__all__ = [
    "UnityFunction",
    "evaluate",
    "min_consecutive_ones",
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
    """Exponent of f(n) in {0..k-1}; f(1) is exponent 0.  `factorize` checks n."""
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

