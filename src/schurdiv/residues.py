"""Consecutive k-th power residues modulo primes.

A residue r (0 < r < p) is a k-th power mod p exactly when its character
chi(r) = r^((p-1)/d) mod p is 1, with d = gcd(k, p-1).  `is_kth_residue`
answers one query with one modular exponentiation.

`residue_run_start` finds the least r whose run r, r+1, ..., r+m-1
consists entirely of k-th power residues below p; primes with no such
run are exceptional.  Its kernel walks r upwards and never exponentiates
a composite: chi is completely multiplicative, so chi(r) = chi(q) *
chi(r/q) mod p for the smallest prime factor q of r, read from the table
`primes.smallest_prime_factors`.  Only prime r (and r past the table) pay
a `pow`, and when d = 1 every unit is a residue, so no `pow` runs at all.
`scan_primes` sweeps a prime range and `summarize_reports` aggregates
its rows into the running maximum of those run starts — a range-limited
empirical view of a quantity whose true supremum ranges over all
non-exceptional primes.
Scans take their primes from `primes_in_range` and validate k and m
once, so the kernel never re-proves primality.  A scan is a list of
plain (p, r) rows, r None for an exceptional prime, from the kernel to
its consumer: `summarize_reports`, `exceptional_primes` and the CLI all
read rows.  Every scan works through its range in blocks, one after
another in this process or across the pool of
`schur_search._process_pool`, which imports `concurrent.futures` only
for threads > 1, so importing this module loads no multiprocessing
machinery.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .primes import _check_int, is_prime, primes_in_range, smallest_prime_factors
from .schur_search import _process_pool

__all__ = [
    "LambdaEstimate",
    "exceptional_primes",
    "is_kth_residue",
    "residue_run_start",
    "scan_primes",
    "summarize_reports",
]


class LambdaEstimate(NamedTuple):
    k: int
    m: int
    p_min: int
    p_max: int
    max_r: int | None  # None when every scanned prime was exceptional
    argmax_p: int | None  # smallest prime attaining max_r
    exceptional: tuple[int, ...]


def is_kth_residue(r: int, p: int, k: int) -> bool:
    """True iff r is congruent to a k-th power mod p, for 0 < r < p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_int("r", r)
    if not 0 < r < p:
        raise ValueError(f"residue must satisfy 0 < r < p, got r={r}, p={p}")
    _check_int("power", k, 1)
    return pow(r, _exponent(p, k), p) == 1


def residue_run_start(p: int, k: int, m: int) -> int | None:
    """Minimal r with r..r+m-1 all k-th power residues and r+m-1 <= p-1;
    None when no such run exists (an exceptional prime)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_int("power", k, 1)
    _check_int("run length", m, 1)
    return _run_start(p, k, m)


def _exponent(p: int, k: int) -> int:
    """(p-1)/d with d = gcd(k, p-1): r is a k-th power iff r^exponent == 1."""
    return (p - 1) // gcd(k, p - 1)


def _run_start(p: int, k: int, m: int) -> int | None:
    """`residue_run_start` for a p known to be prime and k, m >= 1."""
    exponent = _exponent(p, k)
    if exponent == p - 1 or m == 1:
        # d = 1 makes every unit a residue; and 1 itself always is one.
        return 1 if m <= p - 1 else None
    spf = smallest_prime_factors()
    size = len(spf)
    chi = [0, 1]  # chi[r] = r^exponent mod p, appended for each r < size
    run = 1
    for r in range(2, p):
        if r < size:
            q = spf[r]
            c = pow(r, exponent, p) if q == r else chi[q] * chi[r // q] % p
            chi.append(c)
        else:
            c = pow(r, exponent, p)
        if c == 1:
            run += 1
            if run == m:
                return r - m + 1
        else:
            run = 0
    return None


def _scan_block(args: tuple[int, int, int, int]) -> list[tuple[int, int | None]]:
    k, m, lo, hi = args
    return [(p, _run_start(p, k, m)) for p in primes_in_range(lo, hi)]


def scan_primes(k: int, m: int, p_min: int, p_max: int, threads: int = 1) -> list[tuple[int, int | None]]:
    """One (p, r) row per prime in [p_min, p_max], r None for an exceptional
    prime; ascending regardless of threads."""
    _check_int("p_min", p_min)
    _check_int("p_max", p_max)
    if not 2 <= p_min <= p_max:
        raise ValueError(f"need 2 <= p_min <= p_max, got {p_min}..{p_max}")
    _check_int("power", k, 1)
    _check_int("run length", m, 1)
    _check_int("threads", threads, 1)
    span = p_max - p_min + 1
    width = max(1024, span // (threads * 8) + 1)
    blocks = [(k, m, lo, min(lo + width - 1, p_max)) for lo in range(p_min, p_max + 1, width)]
    with _process_pool(threads) as pool:
        block_rows = (map if pool is None else pool.map)(_scan_block, blocks)
        return [row for rows in block_rows for row in rows]


def summarize_reports(
    k: int, m: int, p_min: int, p_max: int, rows: list[tuple[int, int | None]]
) -> LambdaEstimate:
    """Summarise ascending (p, r) rows: the largest r at its least p, and the p with r None."""
    max_r: int | None = None
    argmax_p: int | None = None
    exceptional = []
    for p, r in rows:
        if r is None:
            exceptional.append(p)
        elif max_r is None or r > max_r:
            max_r, argmax_p = r, p
    return LambdaEstimate(k, m, p_min, p_max, max_r, argmax_p, tuple(exceptional))


def exceptional_primes(k: int, m: int, p_max: int) -> list[int]:
    """Primes p <= p_max admitting no run of m consecutive k-th power residues."""
    return [p for p, r in scan_primes(k, m, 2, p_max) if r is None]

