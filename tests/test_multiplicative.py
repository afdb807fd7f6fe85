import random

import pytest

from schurdiv.multiplicative import (
    UnityFunction,
    evaluate,
    min_consecutive_ones,
    verify_consecutive_ones_bound,
)
from schurdiv.primes import FactorizationBudgetError


def brute_exponent(f, n):
    """Oracle: peel prime factors one by one."""
    total = 0
    d = 2
    while n > 1:
        while n % d == 0:
            total += f.exponent_of(d)
            n //= d
        d += 1
    return total % f.k


LIOUVILLE = UnityFunction(2, {}, default_exponent=1)


class TestEvaluate:
    def test_constant_one_function(self):
        f = UnityFunction(3, {})
        assert all(evaluate(f, n) == 0 for n in range(1, 100))

    def test_liouville_type(self):
        assert evaluate(LIOUVILLE, 12) == 1  # three prime factors with multiplicity
        signs = [evaluate(LIOUVILLE, n) for n in range(1, 11)]
        assert signs == [0, 1, 1, 0, 1, 0, 1, 1, 0, 0]

    def test_single_prime_mod_3(self):
        f = UnityFunction(3, {2: 1})
        assert evaluate(f, 8) == 0  # exponent 3 wraps around

    def test_at_one(self):
        assert evaluate(UnityFunction(5, {3: 2}), 1) == 0

    def test_matches_brute_factorization(self):
        rng = random.Random(3)
        for k in (2, 3, 4):
            f = UnityFunction(k, {p: rng.randrange(k) for p in (2, 3, 5, 7, 11)}, rng.randrange(k))
            for n in range(1, 400):
                assert evaluate(f, n) == brute_exponent(f, n), (k, n)

    def test_complete_multiplicativity(self):
        rng = random.Random(11)
        f = UnityFunction(4, {p: rng.randrange(4) for p in (2, 3, 5, 7)}, 1)
        for m in range(1, 101):
            for n in range(1, 101):
                assert evaluate(f, m * n) == (evaluate(f, m) + evaluate(f, n)) % 4
        # sampled pairs across the full desk-scale range
        for _ in range(2000):
            m, n = rng.randint(1, 10**4), rng.randint(1, 10**4)
            assert evaluate(f, m * n) == (evaluate(f, m) + evaluate(f, n)) % 4

    def test_exponents_normalized_mod_k(self):
        f = UnityFunction(2, {3: 7}, default_exponent=-1)
        assert f.exponent_of(3) == 1
        assert f.exponent_of(5) == 1

    def test_rejects_nonprime_keys(self):
        with pytest.raises(ValueError):
            UnityFunction(2, {4: 1})

    def test_factor_budget(self):
        f = UnityFunction(2, {}, 1)
        with pytest.raises(FactorizationBudgetError):
            evaluate(f, 1000003 * 1000033)


class TestMinConsecutiveOnes:
    def test_constant_function(self):
        assert min_consecutive_ones(UnityFunction(2, {}), 10) == 1

    def test_liouville_type(self):
        assert min_consecutive_ones(LIOUVILLE, 20) == 9

    def test_single_prime(self):
        assert min_consecutive_ones(UnityFunction(2, {2: 1}), 10) == 3

    def test_not_found_is_none(self):
        assert min_consecutive_ones(LIOUVILLE, 8) is None


class TestBoundPipeline:
    def test_constant_function_trivial_bound(self):
        record = verify_consecutive_ones_bound(UnityFunction(1, {}), 2)
        assert (record.x, record.y, record.z, record.a) == (1, 1, 2, 1)

    def test_liouville_at_exact_bound(self, restricted_two_colors):
        record = verify_consecutive_ones_bound(LIOUVILLE, restricted_two_colors.S)
        assert (record.x, record.y, record.z) == (1, 9, 10)
        assert record.a == 9
        assert record.min_a == 9
        assert record.a <= restricted_two_colors.S

    def test_seeded_random_functions(self, restricted_two_colors):
        bound = restricted_two_colors.S
        for seed in range(20):
            rng = random.Random(seed)
            f = UnityFunction(
                2,
                {p: rng.randrange(2) for p in (2, 3, 5, 7, 11, 13)},
                rng.randrange(2),
            )
            record = verify_consecutive_ones_bound(f, bound)
            assert evaluate(f, record.a) == 0
            assert evaluate(f, record.a + 1) == 0
            assert record.min_a <= record.a <= bound

    def test_failure_is_loud(self):
        # 5 is below the real two-color restricted bound, so the triple
        # search can come up empty and must escalate
        with pytest.raises(RuntimeError):
            verify_consecutive_ones_bound(LIOUVILLE, 5)
