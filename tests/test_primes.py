from math import isqrt

import pytest

from schurdiv import primes
from schurdiv.primes import (
    FactorizationBudgetError,
    factorize,
    is_prime,
    primes_in_range,
    smallest_prime_factors,
)


def brute_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, n)):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    assert primes_in_range(2, 1000) == brute_primes(1000)
    assert primes_in_range(2, 1) == []
    assert primes_in_range(2, 2) == [2]


@pytest.mark.parametrize("lo,hi", [(2, 100), (90, 130), (1000, 1100), (7, 7), (8, 8), (0, 3)])
def test_primes_in_range_matches_sieve(lo, hi):
    assert primes_in_range(lo, hi) == [p for p in primes_in_range(2, max(hi, 2)) if lo <= p <= hi]


def test_is_prime_against_sieve():
    table = set(primes_in_range(2, 20000))
    for n in range(20000):
        assert is_prime(n) == (n in table), n


def test_is_prime_rejects_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2**89 - 1)
    assert is_prime(2**107 - 1)
    assert not is_prime((2**89 - 1) * (2**107 - 1))


@pytest.mark.parametrize("n", [1, 2, 12, 360, 1024, 9973, 2**20 + 7, 600851475143])
def test_factorize_recombines(n):
    factors = factorize(n)
    prod = 1
    for p, e in factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert factors == sorted(factors)


def test_factorize_budget():
    p, q = 1000003, 1000033
    big = 10**12 + 39
    assert is_prime(p) and is_prime(q) and is_prime(big)
    # A cofactor at most FACTOR_BOUND**2 is prime; a larger one must pass is_prime.
    assert factorize(2 * p) == [(2, 1), (p, 1)]
    assert factorize(2 * big) == [(2, 1), (big, 1)]
    with pytest.raises(FactorizationBudgetError, match=f"cofactor {p * q} of {p * q} has no prime factor <= 1000000"):
        factorize(p * q)


def reference_factorize(n):
    """Trial division by every integer up to FACTOR_BOUND, with the same
    budget rule for the leftover cofactor; None where a budget error is due."""
    bound = primes.FACTOR_BOUND
    out, rest, d = [], n, 2
    while d <= bound and d * d <= rest:
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if rest > 1:
        if rest > bound * bound and not is_prime(rest):
            return None
        out.append((rest, 1))
    return out


# Squares and products of primes just below and above powers of two, where
# a trial-division table sized to isqrt(n) is tightest.
EDGE_N = [8191**2, 8191 * 8209, 65521**2, 65537**2, 65521 * 65537, 2**31 - 1, 4 * 65537**2]


def test_factorize_matches_reference():
    for n in list(range(1, 3001)) + EDGE_N:
        expected = reference_factorize(n)
        if expected is None:
            with pytest.raises(FactorizationBudgetError):
                factorize(n)
        else:
            assert factorize(n) == expected, n


def test_factorize_sizes_its_table_to_n(monkeypatch):
    limits = []
    table = primes.prime_table

    def recording_table(limit):
        limits.append(limit)
        return table(limit)

    monkeypatch.setattr(primes, "prime_table", recording_table)
    for n in (12, 10**6 + 3, 65537**2):
        limits.clear()
        factorize(n)
        assert limits and max(limits) <= 2 * isqrt(n) + 1, (n, limits)
    limits.clear()
    factorize(2**61 - 1)
    assert limits == [primes.FACTOR_BOUND]


def test_smallest_prime_factors_match_factorize():
    spf = smallest_prime_factors()
    assert len(spf) == 4096 and spf[:2] == (0, 1)
    for n in range(2, 4096):
        assert spf[n] == factorize(n)[0][0], n


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("bad", [12.0, True, "12"])
def test_non_int_arguments_are_refused(bad):
    # A float used to fail in isqrt or range with TypeError; a bool passed as 1.
    with pytest.raises(ValueError, match="n must be an int, got"):
        factorize(bad)
    with pytest.raises(ValueError, match="lo must be an int, got"):
        primes_in_range(bad, 30)
    with pytest.raises(ValueError, match="hi must be an int, got"):
        primes_in_range(2, bad)
