import random

import pytest

from schurdiv import multiplicative
from schurdiv.multiplicative import (
    UnityFunction,
    evaluate,
    min_consecutive_ones,
)
from schurdiv.primes import FactorizationBudgetError, smallest_prime_factors
from schurdiv.ramsey import verify_consecutive_ones_bound


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

    @pytest.mark.parametrize(
        "exponents, default", [({2: 0.5}, 0), ({2: True}, 0), ({2: "1"}, 0), ({}, 1.0), ({2.0: 1}, 0), ({"2": 1}, 0)]
    )
    def test_rejects_exponents_that_are_not_ints(self, exponents, default):
        # The last two are prime keys that are not ints.
        with pytest.raises(ValueError, match="must be integers"):
            UnityFunction(3, exponents, default)

    @pytest.mark.parametrize("k", [True, 3.0])
    def test_rejects_k_that_is_not_an_int(self, k):
        with pytest.raises(ValueError, match="must be integers"):
            UnityFunction(k)

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


def brute_min_consecutive_ones(f, bound):
    """Oracle: the definition, through `evaluate` at a and a + 1."""
    for a in range(1, bound + 1):
        if evaluate(f, a) == 0 and evaluate(f, a + 1) == 0:
            return a
    return None


# Bounds on both sides of the factor table's end (4096).
WALK_BOUNDS = (1, 2, 4094, 4095, 4096, 4200)


@pytest.fixture(scope="module")
def walk_cases():
    """(f, first pair up to 4200) for random functions with k = 1..6, plus
    one whose first pair lies past the table and one with none at all."""
    rng = random.Random(7)
    functions = [UnityFunction(6, {2: 3, 3: 1}, 1), UnityFunction(6, {2: 1, 3: 0}, 1)]
    for k in range(1, 7):
        for _ in range(8):
            functions.append(UnityFunction(k, {p: rng.randrange(k) for p in (2, 3, 5)}, rng.randrange(k)))
    cases = [(f, brute_min_consecutive_ones(f, max(WALK_BOUNDS))) for f in functions]
    assert cases[0][1] == 4130 and cases[1][1] is None
    return cases


class TestMinConsecutiveOnesWalk:
    """`min_consecutive_ones` walks the shared smallest-prime-factor table."""

    @staticmethod
    def check(cases):
        for f, first in cases:
            for bound in WALK_BOUNDS:
                want = first if first is not None and first <= bound else None
                assert min_consecutive_ones(f, bound) == want, (f, bound)

    def test_matches_evaluate(self, walk_cases):
        self.check(walk_cases)

    def test_evaluate_fallback_past_the_factor_table(self, monkeypatch, walk_cases):
        table = smallest_prime_factors()[:16]
        monkeypatch.setattr(multiplicative, "smallest_prime_factors", lambda: table)
        self.check(walk_cases)

    def test_first_pair_past_the_table(self):
        assert min_consecutive_ones(UnityFunction(7, {}, 1), 40000) == 29888

    def test_evaluates_only_past_the_table(self, monkeypatch):
        seen = []

        def refuse(*args):
            raise AssertionError(f"factorize or evaluate called with {args}")

        def recording(f, n):
            seen.append(n)
            return evaluate(f, n)

        monkeypatch.setattr(multiplicative, "factorize", refuse)
        monkeypatch.setattr(multiplicative, "evaluate", refuse)
        assert min_consecutive_ones(UnityFunction(7, {}, 1), 4094) is None
        assert min_consecutive_ones(LIOUVILLE, 20) == 9
        monkeypatch.undo()
        monkeypatch.setattr(multiplicative, "evaluate", recording)
        assert min_consecutive_ones(UnityFunction(7, {}, 1), 4096) is None
        assert seen == [4096, 4097]


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
