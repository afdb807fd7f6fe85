"""Prime listing, primality testing, and trial-division factorization.

Shared arithmetic plumbing: residue scanners iterate primes from
`primes_in_range`, coset colorings validate the primality of their modulus,
and the multiplicative-function evaluator factorizes small integers.
`smallest_prime_factors` is the one least-prime-factor table (n < 4096);
both run finders walk it, as g(r) = g(q) * g(r/q) for multiplicative g.
`_check_int` is the library's one rule for an integer argument: an `int`
(bools refused), and at least its least value when it has one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt

__all__ = [
    "FactorizationBudgetError",
    "factorize",
    "is_prime",
    "prime_table",
    "primes_in_range",
    "smallest_prime_factors",
]

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

FACTOR_BOUND = 10**6


class FactorizationBudgetError(ValueError):
    """Trial division ran out of primes before the cofactor was resolved."""


def _check_int(name: str, value, least: int | None = None) -> None:
    """Raise ValueError unless value is an int (bools refused) and, when least is given, >= least."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, ascending, found by striking the
    multiples of every prime up to isqrt(hi) from the window."""
    _check_int("lo", lo)
    _check_int("hi", hi)
    lo = max(lo, 2)
    if hi < lo:
        return []
    base = primes_in_range(2, isqrt(hi))
    flags = bytearray([1]) * (hi - lo + 1)
    for p in base:
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start > hi:
            continue
        flags[start - lo :: p] = bytearray(len(flags[start - lo :: p]))
        if lo <= p <= hi:
            flags[p - lo] = 1
    return list(compress(range(lo, hi + 1), flags))


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic for n < 3.3e24."""
    _check_int("n", n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=8)
def prime_table(limit: int) -> tuple[int, ...]:
    """Cached ascending prime tuple for repeated trial division."""
    _check_int("limit", limit)
    return tuple(primes_in_range(2, limit))


@lru_cache(maxsize=1)
def smallest_prime_factors() -> tuple[int, ...]:
    """Least prime factor of each n < 4096 (0, 1 map to themselves); fixed, so no bound sets its size."""
    spf = list(range(1 << 12))
    for q in reversed(primes_in_range(2, isqrt(len(spf) - 1))):  # smaller q overwrite larger
        spf[q * q :: q] = [q] * len(spf[q * q :: q])
    return tuple(spf)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending.

    Trial division goes up to FACTOR_BOUND; a leftover cofactor is accepted
    when it is provably prime, otherwise FactorizationBudgetError is raised.
    """
    _check_int("n", n, 1)
    out: list[tuple[int, int]] = []
    rest = n
    # Primes up to isqrt(n) decide the factorization; a power-of-two table
    # size keeps the cached table sizes few.
    for p in prime_table(min(FACTOR_BOUND, 1 << isqrt(n).bit_length())):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
    if rest > 1:
        # No factor <= FACTOR_BOUND remains, so a cofactor below its square is prime.
        if rest <= FACTOR_BOUND * FACTOR_BOUND or is_prime(rest):
            out.append((rest, 1))
        else:
            raise FactorizationBudgetError(
                f"cofactor {rest} of {n} has no prime factor <= {FACTOR_BOUND} and is composite"
            )
    return out
