"""Witness sequences whose interval sums form a divisibility chain.

Two constructions are provided.  The factorial kind starts at 1 and takes
each next term to be the factorial of the running total:

    a(1) = 1,   a(n+1) = (a(1) + ... + a(n))!

Every block sum a(i) + ... + a(j-1) is at most the running total before
a(n) for n >= j, so it appears as a factor inside that factorial: block
sums divide all later terms, hence earlier block sums divide later block
sums.  That chain is what turns a monochromatic triangle over interval
sums into a triple x + y = z with x | y.

The product kind multiplies all block sums seen so far instead of taking
a factorial:

    b(1) = 1,   b(n+1) = product of (b(i) + ... + b(j-1)) over 1 <= i < j <= n+1

Each factor is a block sum with right endpoint <= n, so the divisibility
chain survives, while terms grow far slower than the factorial kind.

Factorial terms stop being materializable at index 6 (the sixth term is a
factorial of a 30-digit number).  `interval_sum_mod` therefore evaluates
block sums modulo any m >= 1 directly (every sum is 0 mod 1): a factorial
t! vanishes mod m as soon as t reaches the least integer whose factorial
m divides (computed per prime power via Legendre's valuation formula),
and only the first five terms ever fall below that threshold for any
representable modulus.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .primes import _check_int, factorize

__all__ = [
    "DEFAULT_DIGIT_BUDGET",
    "EvaluationInfeasibleError",
    "FACTORIAL",
    "LemmaReport",
    "LemmaViolation",
    "PRODUCT",
    "SequenceBudgetError",
    "WitnessSequence",
    "check_divisibility_lemma",
    "generate",
    "interval_sum",
    "interval_sum_mod",
    "kempner",
]

FACTORIAL = "factorial"
PRODUCT = "product"

DEFAULT_DIGIT_BUDGET = 10**6

# math.factorial refuses arguments past this even under a raised budget;
# the result would not be materializable in reasonable time or memory.
_FACTORIAL_ARG_CAP = 10**6

_LOG10_2 = math.log10(2)


class SequenceBudgetError(ValueError):
    """A term would overflow the digit budget (or is plain infeasible)."""

    def __init__(self, kind: str, term_index: int, estimated_digits: float, budget: int):
        self.kind = kind
        self.term_index = term_index
        self.estimated_digits = estimated_digits
        self.budget = budget
        super().__init__(
            f"{kind} term {term_index} needs about {estimated_digits:.3g} decimal digits; "
            f"budget is {budget} total digits"
        )


class EvaluationInfeasibleError(ValueError):
    """The requested quantity cannot be evaluated exactly at feasible cost."""


class WitnessSequence(NamedTuple):
    """Terms plus prefix sums; prefix_sums[t] is the sum of the first t terms."""

    kind: str
    terms: tuple[int, ...]
    prefix_sums: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.terms)


def _digits_of_factorial(t: int) -> float:
    """Approximate decimal digits of t! (exact enough for budget checks)."""
    if t < 2:
        return 1.0
    return math.lgamma(t + 1) / math.log(10)


def _digits_of_int(n: int) -> float:
    return max(1.0, n.bit_length() * _LOG10_2)


def generate(kind: str, count: int, size_budget: int = DEFAULT_DIGIT_BUDGET) -> WitnessSequence:
    """Build the first `count` terms of the chosen witness sequence.

    Raises SequenceBudgetError naming the first term whose size estimate
    exceeds `size_budget` total decimal digits across all terms.
    """
    _check_int("count", count, 1)
    _check_int("size_budget", size_budget, 1)
    if kind == FACTORIAL:
        terms = _generate_factorial(count, size_budget)
    elif kind == PRODUCT:
        terms = _generate_product(count, size_budget)
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")
    prefix = [0]
    for t in terms:
        prefix.append(prefix[-1] + t)
    return WitnessSequence(kind=kind, terms=tuple(terms), prefix_sums=tuple(prefix))


def _generate_factorial(count: int, budget: int) -> list[int]:
    terms = [1]
    digits_used = 1.0
    running = 1
    while len(terms) < count:
        est = _digits_of_factorial(running)
        index = len(terms) + 1
        if digits_used + est > budget or running > _FACTORIAL_ARG_CAP:
            raise SequenceBudgetError(FACTORIAL, index, est, budget)
        term = math.factorial(running)
        terms.append(term)
        digits_used += _digits_of_int(term)
        running += term
    return terms


def _generate_product(count: int, budget: int) -> list[int]:
    terms = [1]
    digits_used = 1.0
    prefix = [0, 1]
    while len(terms) < count:
        n1 = len(terms) + 1  # index of the term being built
        sums = [
            prefix[j - 1] - prefix[i - 1]
            for i, j in combinations(range(1, n1 + 1), 2)
        ]
        est = sum(_digits_of_int(s) for s in sums)
        if digits_used + est > budget:
            raise SequenceBudgetError(PRODUCT, n1, est, budget)
        term = math.prod(sums)
        terms.append(term)
        digits_used += _digits_of_int(term)
        prefix.append(prefix[-1] + term)
    return terms


def interval_sum(seq: WitnessSequence, i: int, j: int) -> int:
    """Block sum terms[i] + ... + terms[j-1] (1-based, half-open at j)."""
    _check_int("i", i)
    _check_int("j", j)
    n = len(seq.terms)
    if not (1 <= i < j <= n + 1):
        raise IndexError(f"need 1 <= i < j <= {n + 1}, got i={i}, j={j}")
    return seq.prefix_sums[j - 1] - seq.prefix_sums[i - 1]


class LemmaViolation(NamedTuple):
    i: int
    j: int
    k: int
    x: int
    y: int


class LemmaReport(NamedTuple):
    kind: str
    limit: int
    triples_checked: int
    violations: tuple[LemmaViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_divisibility_lemma(seq: WitnessSequence) -> LemmaReport:
    """Check sum(i..j-1) | sum(j..k-1) for all i < j < k <= N+1, N the term count."""
    limit = len(seq.terms) + 1
    prefix = seq.prefix_sums
    violations = []
    checked = 0
    for i, j, k in combinations(range(1, limit + 1), 3):
        checked += 1
        x = prefix[j - 1] - prefix[i - 1]
        y = prefix[k - 1] - prefix[j - 1]
        if y % x:
            violations.append(LemmaViolation(i, j, k, x, y))
    return LemmaReport(seq.kind, limit, checked, tuple(violations))


# First five factorial terms and their prefix sums are exact constants;
# everything past them is only ever needed modulo something.
_EXACT_FACTORIAL_TERMS = (1, 1, 2, 24, math.factorial(28))
_EXACT_FACTORIAL_PREFIX = (0, 1, 2, 4, 28, 28 + math.factorial(28))


def _legendre_valuation(t: int, p: int) -> int:
    """Exponent of p in t!."""
    v = 0
    q = p
    while q <= t:
        v += t // q
        q *= p
    return v


@lru_cache(maxsize=4096)
def kempner(m: int) -> int:
    """Least t >= 1 with m | t!."""
    _check_int("modulus", m, 1)
    if m == 1:
        return 1
    best = 1
    for p, e in factorize(m):
        lo, hi = 1, e * p  # valuation of (e*p)! in p is >= e
        while lo < hi:
            mid = (lo + hi) // 2
            if _legendre_valuation(mid, p) >= e:
                hi = mid
            else:
                lo = mid + 1
        best = max(best, lo)
    return best


def interval_sum_mod(i: int, j: int, m: int) -> int:
    """Block sum terms[i] + ... + terms[j-1] of the factorial kind reduced
    mod m, without materializing any term.

    Its terms past index 5 are congruent to 0 for every feasible modulus,
    so arbitrarily deep block sums reduce to at most five exact summands.
    """
    _check_int("i", i)
    _check_int("j", j)
    if not 1 <= i < j:
        raise IndexError(f"need 1 <= i < j, got i={i}, j={j}")
    _check_int("modulus", m, 1)
    # Each term from 6 on is the factorial of at least the 30-digit fifth
    # prefix sum t, so it vanishes mod m whenever m divides t!, and
    # kempner(m) <= m settles every m <= t without factorizing it.
    if j > 6 and m > _EXACT_FACTORIAL_PREFIX[5] and kempner(m) > _EXACT_FACTORIAL_PREFIX[5]:
        raise EvaluationInfeasibleError(
            f"term {max(i, 6)} of the factorial sequence cannot be reduced mod {m}: "
            f"the modulus divides no factorial below the materializable range"
        )
    return sum(_EXACT_FACTORIAL_TERMS[i - 1 : j - 1]) % m
