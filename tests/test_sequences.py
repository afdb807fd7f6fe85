import math
from itertools import combinations

import pytest

from schurdiv.sequences import (
    FACTORIAL,
    PRODUCT,
    EvaluationInfeasibleError,
    SequenceBudgetError,
    WitnessSequence,
    check_divisibility_lemma,
    generate,
    interval_sum,
    interval_sum_mod,
    kempner,
)

FACT_28 = math.factorial(28)


def brute_factorial_terms(count):
    """Independent re-derivation: next term is the factorial of the total."""
    terms = [1]
    while len(terms) < count:
        terms.append(math.factorial(sum(terms)))
    return terms


def brute_product_terms(count):
    """Independent re-derivation: next term multiplies every block sum of
    the first n terms, blocks indexed by pairs i < j <= n+1."""
    terms = [1]
    while len(terms) < count:
        n1 = len(terms) + 1
        prod = 1
        for i, j in combinations(range(1, n1 + 1), 2):
            prod *= sum(terms[i - 1 : j - 1])
        terms.append(prod)
    return terms


class TestGenerate:
    def test_factorial_first_terms(self):
        seq = generate(FACTORIAL, 5)
        assert seq.terms == (1, 1, 2, 24, FACT_28)
        assert seq.terms == tuple(brute_factorial_terms(5))
        assert seq.prefix_sums == (0, 1, 2, 4, 28, 28 + FACT_28)

    def test_factorial_single_term(self):
        assert generate(FACTORIAL, 1).terms == (1,)

    def test_product_first_terms(self):
        seq = generate(PRODUCT, 5)
        assert seq.terms == (1, 1, 2, 48, 305510400)
        assert seq.terms == tuple(brute_product_terms(5))

    def test_product_sixth_term(self):
        assert generate(PRODUCT, 6).terms[5] == brute_product_terms(6)[5]

    def test_prefix_sums_strictly_increase(self):
        for kind, count in ((FACTORIAL, 5), (PRODUCT, 7)):
            seq = generate(kind, count)
            assert all(a < b for a, b in zip(seq.prefix_sums, seq.prefix_sums[1:]))
            assert all(t >= 1 for t in seq.terms)

    def test_factorial_budget_error_names_term_six(self):
        with pytest.raises(SequenceBudgetError, match="digits; budget is 1000000 total digits$") as exc:
            generate(FACTORIAL, 6)
        assert exc.value.term_index == 6
        assert exc.value.estimated_digits > 10**30

    def test_factorial_infeasible_even_with_huge_budget(self):
        # the sixth term is a factorial of a 30-digit number; no budget helps,
        # and the message names the per-term size rule, not the budget it fits
        with pytest.raises(SequenceBudgetError, match="digits; no term may pass 100000000 digits$") as exc:
            generate(FACTORIAL, 6, size_budget=10**40)
        assert (exc.value.term_index, exc.value.budget) == (6, 10**40)

    def test_product_budget_error(self):
        with pytest.raises(SequenceBudgetError) as exc:
            generate(PRODUCT, 60, size_budget=10**4)
        assert exc.value.kind == PRODUCT
        assert exc.value.term_index == 9
        assert exc.value.estimated_digits == pytest.approx(25667.30198)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate(FACTORIAL, 0)
        with pytest.raises(ValueError):
            generate("fibonacci", 3)

    def test_budget_below_one(self):
        # Refused as an argument, not as a term past the budget, however few terms.
        for count, budget in ((1, 0), (3, -5)):
            with pytest.raises(ValueError, match=f"size_budget must be >= 1, got {budget}") as exc:
                generate(FACTORIAL, count, size_budget=budget)
            assert not isinstance(exc.value, SequenceBudgetError)


class TestIntervalSum:
    def test_examples(self):
        seq = generate(FACTORIAL, 5)
        assert interval_sum(seq, 1, 3) == 2
        assert interval_sum(seq, 3, 5) == 26
        for t in range(1, 6):
            assert interval_sum(seq, t, t + 1) == seq.terms[t - 1]

    def test_range_errors(self):
        seq = generate(FACTORIAL, 5)
        for i, j in ((0, 3), (3, 3), (4, 2), (1, 7), (6, 7)):
            with pytest.raises(IndexError):
                interval_sum(seq, i, j)


class TestDivisibilityLemma:
    def test_factorial_limit_6_on_five_terms(self):
        # index triples from {1..6} only read the five materializable terms
        report = check_divisibility_lemma(generate(FACTORIAL, 5))
        assert report.triples_checked == 20
        assert report.violations == ()

    def test_specific_triple_1_3_5(self):
        seq = generate(FACTORIAL, 5)
        assert interval_sum(seq, 3, 5) % interval_sum(seq, 1, 3) == 0

    def test_product_limit_5(self):
        report = check_divisibility_lemma(generate(PRODUCT, 5))
        assert report.ok

    def test_product_limit_7(self):
        report = check_divisibility_lemma(generate(PRODUCT, 6))
        assert report.triples_checked == 35
        assert report.ok

    def test_violations_are_reported_not_raised(self):
        bad = WitnessSequence(kind=PRODUCT, terms=(1, 1, 1), prefix_sums=(0, 1, 2, 3))
        report = check_divisibility_lemma(bad)
        assert not report.ok
        v = report.violations[0]
        assert (v.i, v.j, v.k, v.x, v.y) == (1, 3, 4, 2, 1)

    def test_checks_every_triple_up_to_one_past_the_terms(self):
        for kind, count in ((FACTORIAL, 1), (FACTORIAL, 4), (PRODUCT, 3), (PRODUCT, 6)):
            report = check_divisibility_lemma(generate(kind, count))
            assert (report.limit, report.triples_checked) == (count + 1, math.comb(count + 1, 3))


class TestKempner:
    def test_against_brute_force(self):
        for m in range(1, 400):
            acc, t = 1, 0
            while True:
                t += 1
                acc *= t
                if acc % m == 0:
                    break
            assert kempner(m) == t, m

    def test_prime_is_itself(self):
        for p in (2, 3, 5, 7, 97, 9973):
            assert kempner(p) == p

    def test_exponent_past_the_prime_and_unequal_factors(self):
        assert kempner(2**100) == 104
        assert kempner(5**30) == 125
        assert kempner(2**10 * 1_000_003) == 1_000_003

    @pytest.mark.parametrize("bad", [2.0, True, 0])
    def test_bad_modulus_is_refused(self, bad):
        # kempner(2.0) used to raise TypeError from isqrt, and kempner(True) returned 1.
        with pytest.raises(ValueError, match="modulus must be (an int|>= 1), got"):
            kempner(bad)


class TestIntervalSumMod:
    def test_examples(self):
        assert interval_sum_mod(4, 5, 7) == 3  # 24 mod 7
        assert interval_sum_mod(5, 6, 7) == 0  # 28! contains 7
        assert interval_sum_mod(1, 3, 5) == 2
        # Terms from index 6 on vanish mod any m <= 28 + 28!, so this m is never factorized.
        assert interval_sum_mod(1, 7, (10**6 + 3) * (10**6 + 33)) == 73979533564

    def test_matches_exact_sums(self):
        seq = generate(FACTORIAL, 5)
        for i, j in combinations(range(1, 7), 2):
            exact = interval_sum(seq, i, j)
            for m in range(2, 98):
                assert interval_sum_mod(i, j, m) == exact % m, (i, j, m)

    def test_deep_sums_only_see_first_five_terms(self):
        for m in (2, 3, 7, 11, 29, 97, 360):
            assert interval_sum_mod(1, 17, m) == interval_sum_mod(1, 6, m)
            assert interval_sum_mod(7, 17, m) == 0

    def test_wilson_case(self):
        # 28! is one short of a multiple of 29
        assert interval_sum_mod(5, 6, 29) == 28

    def test_infeasible_modulus(self):
        big_prime = 2**107 - 1  # above 10^31: no factorial below it is divisible by it
        assert interval_sum_mod(5, 6, big_prime) == FACT_28 % big_prime
        # The error names the first term of the block past the fifth.
        for i, j, term in ((6, 7, 6), (1, 17, 6), (7, 20, 7), (8, 9, 8)):
            with pytest.raises(EvaluationInfeasibleError, match=rf"^term {term} of the factorial sequence"):
                interval_sum_mod(i, j, big_prime)

    def test_modulus_one(self):
        # Every block sum is 0 mod 1, deep blocks past the fifth term included.
        for i, j in combinations(range(1, 21), 2):
            assert interval_sum_mod(i, j, 1) == 0, (i, j)

    def test_bad_arguments(self):
        with pytest.raises(IndexError):
            interval_sum_mod(3, 3, 5)
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            interval_sum_mod(1, 2, 0)
