import concurrent.futures
import os
from functools import partial

import pytest

from schurdiv import residues as residues_module
from schurdiv.coloring import CosetColoring, ExplicitColoring, ResidueColoring, UnityColoring, parse_coloring_spec
from schurdiv.multiplicative import UnityFunction, evaluate, min_consecutive_ones
from schurdiv.primes import factorize, is_prime, prime_table, primes_in_range, smallest_prime_factors
from schurdiv.ramsey import (
    consecutive_pair_via_triple,
    direct_schur_div_search,
    find_mono_triangle,
    r3_value_or_bound,
    verify_consecutive_ones_bound,
)
from schurdiv.residues import (
    exceptional_primes,
    is_kth_residue,
    residue_run_start,
    scan_primes,
    summarize_reports,
)
from schurdiv.schur_search import exists_valid_coloring, forbidden_triples, schur_number
from schurdiv.sequences import generate, interval_sum, interval_sum_mod, kempner


def brute_residue_set(p, k):
    return {pow(s, k, p) for s in range(1, p)}


def brute_run_start(p, k, m, residues=None):
    if residues is None:
        residues = brute_residue_set(p, k)
    for r in range(1, p - m + 1):
        if all(r + t in residues for t in range(m)):
            return r
    return None


class TestIsKthResidue:
    def test_examples(self):
        assert is_kth_residue(2, 7, 2)
        assert not is_kth_residue(2, 11, 2)
        assert all(is_kth_residue(r, 13, 1) for r in range(1, 13))

    def test_oracle_equivalence_small(self):
        for p in primes_in_range(2, 200):
            for k in range(1, 7):
                residues = brute_residue_set(p, k)
                for r in range(1, p):
                    assert is_kth_residue(r, p, k) == (r in residues), (r, p, k)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            is_kth_residue(0, 7, 2)
        with pytest.raises(ValueError):
            is_kth_residue(7, 7, 2)
        with pytest.raises(ValueError):
            is_kth_residue(2, 15, 2)
        with pytest.raises(ValueError):
            is_kth_residue(2, 7, 0)


class TestRunStart:
    def test_examples(self):
        assert residue_run_start(7, 2, 2) == 1
        assert residue_run_start(11, 2, 2) == 3
        assert residue_run_start(5, 2, 2) is None

    def test_m3_values(self):
        assert residue_run_start(11, 2, 3) == 3  # 3, 4, 5 are all squares mod 11
        assert residue_run_start(13, 2, 3) is None
        assert residue_run_start(19, 2, 3) == 4

    def test_oracle_equivalence(self):
        for p in primes_in_range(2, 300):
            for k in (1, 2, 3):
                for m in (1, 2, 3):
                    assert residue_run_start(p, k, m) == brute_run_start(p, k, m), (p, k, m)

    def test_minimality(self):
        for p in primes_in_range(2, 300):
            r = residue_run_start(p, 2, 2)
            if r is None:
                continue
            residues = brute_residue_set(p, 2)
            for smaller in range(1, r):
                assert not (smaller in residues and smaller + 1 in residues), (p, r)

    def test_bijection_when_gcd_is_one(self):
        # k-th powers are all of the units when gcd(k, p-1) = 1
        for p in primes_in_range(2, 100):
            for k in (1, 3, 5, 7):
                if (p - 1) % k and p > 4:
                    assert residue_run_start(p, k, 3) == 1, (p, k)
        assert residue_run_start(5, 3, 2) == 1

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            residue_run_start(9, 2, 2)


class TestRunStartKernel:
    """`_run_start`, the kernel behind every scan, for primes it trusts."""

    def test_oracle_equivalence_below_3000(self):
        # p = 2 and 3, d = 1, m > p - 1 and exceptional primes all occur.
        for p in primes_in_range(2, 2999):
            for k in range(1, 9):
                residues = brute_residue_set(p, k)
                for m in range(1, 5):
                    want = brute_run_start(p, k, m, residues)
                    assert residues_module._run_start(p, k, m) == want, (p, k, m)

    def test_pow_fallback_past_the_factor_table(self, monkeypatch):
        table = smallest_prime_factors()[:16]
        monkeypatch.setattr(residues_module, "smallest_prime_factors", lambda: table)
        for p in primes_in_range(2, 400):
            for k in (2, 3, 4, 6):
                residues = brute_residue_set(p, k)
                for m in (2, 3):
                    want = brute_run_start(p, k, m, residues)
                    assert residues_module._run_start(p, k, m) == want, (p, k, m)

    def test_scans_never_retest_primality(self, monkeypatch):
        expected = scan_primes(3, 2, 2, 3000)
        expected_exceptional = exceptional_primes(2, 3, 200)

        def refuse(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(residues_module, "is_prime", refuse)
        assert scan_primes(3, 2, 2, 3000) == expected
        assert scan_primes(3, 2, 2, 3000, threads=2) == expected
        assert exceptional_primes(2, 3, 200) == expected_exceptional
        monkeypatch.undo()
        with pytest.raises(ValueError):
            residue_run_start(9, 2, 2)


class TestScan:
    def test_scan_7_to_50(self):
        reports = scan_primes(2, 2, 7, 50)
        assert [p for p, _ in reports] == primes_in_range(2, 50)[3:]
        got = dict(reports)
        assert got == {p: brute_run_start(p, 2, 2) for p in got}
        assert got[43] == 9
        est = summarize_reports(2, 2, 7, 50, reports)
        assert (est.max_r, est.argmax_p) == (9, 43)
        assert est.exceptional == ()

    def test_scan_all_exceptional(self):
        est = summarize_reports(2, 2, 2, 6, scan_primes(2, 2, 2, 6))
        assert est.max_r is None and est.argmax_p is None
        assert est.exceptional == (2, 3, 5)

    def test_scan_single_prime(self):
        reports = scan_primes(3, 2, 5, 5)
        assert len(reports) == 1 and reports[0] == (5, 1)

    def test_threads_match_sequential(self):
        seq = scan_primes(2, 2, 7, 400)
        par = scan_primes(2, 2, 7, 400, threads=2)
        assert seq == par

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("window", ["narrow", "eight-blocks", "prime-block-start"])
    def test_blocks_match_per_prime_rows(self, window, k, threads):
        # Every scan runs in blocks of scan_primes' width; the rows must not show where blocks meet.
        lo, hi = {"narrow": (100, 900), "eight-blocks": (2, 20_000), "prime-block-start": (3003, 6003)}[window]
        starts = range(lo, hi + 1, max(1024, (hi - lo + 1) // (threads * 8) + 1))
        assert {
            "narrow": hi - lo + 1 < 1024,
            "eight-blocks": len(starts) >= 8,
            "prime-block-start": any(is_prime(start) for start in starts[1:]),
        }[window]
        want = [(p, residue_run_start(p, k, 2)) for p in primes_in_range(lo, hi)]
        assert scan_primes(k, 2, lo, hi, threads) == want

    def test_blocks_follow_the_workers_not_the_threads(self, monkeypatch):
        # A pool has one worker per CPU at most, and a scan cuts its blocks for the workers it gets.
        mapped = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks):
                mapped.append(blocks)
                return map(fn, blocks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = [scan_primes(3, 2, 2, 10**5, threads=threads) for threads in (2, 500)]
        assert rows[0] == rows[1]
        assert mapped[0] == mapped[1]
        assert len(mapped[0]) == 16

    def test_monotone_in_range_growth(self):
        maxima = []
        for p_max in (50, 200, 1000):
            est = summarize_reports(2, 2, 7, p_max, scan_primes(2, 2, 7, p_max))
            maxima.append(est.max_r)
        assert maxima == sorted(maxima)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            scan_primes(2, 2, 10, 5)

    @pytest.mark.parametrize("k, m", [(0, 2), (2, 0), (-1, 1)])
    def test_bad_power_or_run_even_without_primes(self, k, m):
        with pytest.raises(ValueError):
            scan_primes(k, m, 4, 4)
        with pytest.raises(ValueError):
            scan_primes(k, m, 24, 28, threads=2)
        with pytest.raises(ValueError):
            exceptional_primes(k, m, 2)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            scan_primes(2, 2, 7, 50, threads=threads)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (residue_run_start, (7, 2, 2.0), "run length must be an int, got 2.0"),
        (scan_primes, (True, 2, 2, 20), "power must be an int, got True"),
        (is_kth_residue, (2, 7, 2.0), "power must be an int, got 2.0"),
        (interval_sum_mod, (1, 3, 2.0), "modulus must be an int, got 2.0"),
        (schur_number, (True,), "color count must be an int, got True"),
        (partial(schur_number, max_nodes=100.0), (3,), "max_nodes must be an int, got 100.0"),
        (partial(schur_number, max_n=3.0), (2,), "max_n must be an int, got 3.0"),
        (partial(schur_number, threads=1.0), (2,), "threads must be an int, got 1.0"),
        (exists_valid_coloring, (3, 10.0), "n must be an int, got 10.0"),
        (forbidden_triples, (5.0, False), "n must be an int, got 5.0"),
        (generate, ("factorial", 3.0), "count must be an int, got 3.0"),
        (generate, ("factorial", 3, 100.0), "size_budget must be an int, got 100.0"),
        (r3_value_or_bound, (2.0,), "color count must be an int, got 2.0"),
        (direct_schur_div_search, (ResidueColoring(2, (0, 1)), 9.0), "n_max must be an int, got 9.0"),
        (partial(scan_primes, threads=2.0), (2, 2, 2, 20), "threads must be an int, got 2.0"),
        (scan_primes, (2, 2, 2.0, 20), "p_min must be an int, got 2.0"),
        (scan_primes, (2, 2, 2, 20.0), "p_max must be an int, got 20.0"),
        (is_prime, (7.0,), "n must be an int, got 7.0"),
        (residue_run_start, (43.0, 2, 2), "n must be an int, got 43.0"),
        (is_kth_residue, (2.0, 7, 2), "r must be an int, got 2.0"),
        (consecutive_pair_via_triple, (11, 2, 9.0), "bound must be an int, got 9.0"),
        (interval_sum_mod, (1.0, 3, 7), "i must be an int, got 1.0"),
        (interval_sum_mod, (1, 3.0, 7), "j must be an int, got 3.0"),
        (interval_sum, (generate("factorial", 4), 1.0, 3), "i must be an int, got 1.0"),
        (interval_sum, (generate("factorial", 4), 1, 3.0), "j must be an int, got 3.0"),
        (kempner, (7.0,), "modulus must be an int, got 7.0"),
        (evaluate, (UnityFunction(2), 6.0), "n must be an int, got 6.0"),
        (min_consecutive_ones, (UnityFunction(2), 10.0), "search_bound must be an int, got 10.0"),
        (verify_consecutive_ones_bound, (UnityFunction(2), 5.0), "restricted_schur_bound must be an int, got 5.0"),
        (ResidueColoring(2, (0, 1)).color_of, (True,), "n must be an int, got True"),
        (ResidueColoring(2, (0, 1)).color_of, (2.0,), "n must be an int, got 2.0"),
        (ExplicitColoring([5, 6]).color_of, (True,), "n must be an int, got True"),
        (ExplicitColoring([5, 6]).color_of, (2.0,), "n must be an int, got 2.0"),
        (CosetColoring(7, 2).color_of, (True,), "n must be an int, got True"),
        (CosetColoring(7, 2).color_of, (2.0,), "n must be an int, got 2.0"),
        # evaluate already refuses True and 2.0; these reached the domain check first
        (UnityColoring(UnityFunction(2)).color_of, (False,), "n must be an int, got False"),
        (UnityColoring(UnityFunction(2)).color_of, (0.5,), "n must be an int, got 0.5"),
        (parse_coloring_spec("parity").color_of, (True,), "n must be an int, got True"),
        (ResidueColoring(3, (0, 1, 2)).color_of, (4.0,), "n must be an int, got 4.0"),
        (CosetColoring(7, 2).color_of, (2.5,), "n must be an int, got 2.5"),
        (factorize, (12.0,), "n must be an int, got 12.0"),
        (factorize, (True,), "n must be an int, got True"),
        (prime_table, (10.0,), "limit must be an int, got 10.0"),
        (prime_table, (True,), "limit must be an int, got True"),
        (find_mono_triangle, (True, lambda i, j: 0), "vertex_count must be an int, got True"),
        (find_mono_triangle, (3.0, lambda i, j: 0), "vertex_count must be an int, got 3.0"),
    ],
)
def test_power_run_and_modulus_must_be_ints(call, args, message):
    """A float or bool integer argument is refused with a ValueError naming
    it, not searched, scanned or reduced as if it were the integer it equals."""
    with pytest.raises(ValueError, match=message):
        call(*args)


class TestExceptionalPrimes:
    def test_quadratic_pairs_up_to_100(self):
        assert exceptional_primes(2, 2, 100) == [2, 3, 5]

    def test_first_powers(self):
        assert exceptional_primes(1, 2, 50) == [2]

    def test_quadratic_triples_up_to_20(self):
        # oracle-computed: 11 has the square run 3,4,5 and 19 has 4,5,6
        got = exceptional_primes(2, 3, 20)
        assert got == [2, 3, 5, 7, 13, 17]
        assert got == [p for p in primes_in_range(2, 20) if brute_run_start(p, 2, 3) is None]


class TestConsecutivePair:
    def test_squares_mod_11(self):
        pair = consecutive_pair_via_triple(11, 2, 9)
        assert (pair.y_prime, pair.z_prime) == (3, 4)
        w = pair.witness
        assert (w.x, w.y, w.z) == (1, 3, 4)

    def test_cubes_mod_31(self):
        pair = consecutive_pair_via_triple(31, 3, 17)
        assert (pair.y_prime, pair.z_prime) == (1, 2)
        assert is_kth_residue(1, 31, 3) and is_kth_residue(2, 31, 3)

    def test_first_powers_mod_7(self):
        pair = consecutive_pair_via_triple(7, 1, 2)
        assert (pair.y_prime, pair.z_prime) == (1, 2)
        assert (pair.witness.x, pair.witness.y, pair.witness.z) == (1, 1, 2)

    def test_outputs_always_revalidate(self):
        for p, k, bound in ((101, 2, 12), (103, 3, 20), (97, 4, 40), (113, 2, 12)):
            pair = consecutive_pair_via_triple(p, k, bound)
            if pair is None:
                continue
            assert pair.z_prime == pair.y_prime + 1
            assert is_kth_residue(pair.y_prime, p, k)
            assert is_kth_residue(pair.z_prime, p, k)
            assert pair.y_prime <= bound and pair.z_prime <= bound

    def test_not_found_is_a_value(self):
        assert consecutive_pair_via_triple(11, 2, 1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            consecutive_pair_via_triple(15, 2, 9)
        with pytest.raises(ValueError):
            consecutive_pair_via_triple(11, 2, 11)

    def test_non_prime_modulus_is_refused_by_the_coset_coloring(self):
        with pytest.raises(ValueError, match="prime modulus, got 15"):
            consecutive_pair_via_triple(15, 2, 9)
