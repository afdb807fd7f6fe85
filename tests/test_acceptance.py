"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Timed assertions measure only the operation under test, never the oracle
apparatus that double-checks its output.
"""

import random
import time
from itertools import combinations, product as iproduct

from schurdiv import (
    UnityFunction,
    check_divisibility_lemma,
    direct_schur_div_search,
    exceptional_primes,
    find_mono_triangle,
    generate,
    is_kth_residue,
    min_consecutive_ones,
    parse_coloring_spec,
    residue_run_start,
    schur_number,
    scan_primes,
    validate_coloring,
    witness_via_ramsey,
)
from schurdiv.primes import primes_in_range
from schurdiv.residues import summarize_reports
from schurdiv.sequences import FACTORIAL


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_divisibility_lemma():
    seq = generate(FACTORIAL, 5)  # index triples from {1..6} read terms 1..5
    start = time.perf_counter()
    rep = check_divisibility_lemma(seq, 6)
    elapsed = time.perf_counter() - start
    ok = rep.triples_checked == 20 and rep.violations == () and elapsed < 1.0
    report(
        "1 divisibility lemma",
        ok,
        f"{rep.triples_checked} triples, {len(rep.violations)} violations, {elapsed:.3f}s",
    )


def test_criterion_2_classical_schur_numbers():
    start = time.perf_counter()
    two = schur_number(2)
    three = schur_number(3)
    elapsed = time.perf_counter() - start

    # oracle: exhaustive enumeration over all 2^n colorings for n <= 12
    def brute_exists(n):
        triples = [
            (x, y, x + y) for x in range(1, n) for y in range(x, n) if x + y <= n
        ]
        for bits in iproduct((0, 1), repeat=n):
            c = (None,) + bits
            if not any(c[x] == c[y] == c[z] for x, y, z in triples):
                return True
        return False

    brute_ok = all(brute_exists(n) == (n <= 4) for n in range(2, 13))
    ok = (
        (two.status, two.W) == ("exact", 4)
        and (three.status, three.W) == ("exact", 13)
        and elapsed < 60.0
        and brute_ok
    )
    report(
        "2 classical Schur numbers",
        ok,
        f"W(2)={two.W} W(3)={three.W} in {elapsed:.2f}s, brute cross-check {brute_ok}",
    )


def test_criterion_3_restricted_relaxation(restricted_two_colors):
    one_r = schur_number(1, restricted=True)
    one_u = schur_number(1, restricted=False)
    start = time.perf_counter()
    two_r = schur_number(2, restricted=True, max_seconds=600)
    elapsed = time.perf_counter() - start
    violations = validate_coloring(two_r.witness_coloring, restricted=True)
    ok = (
        one_r.W == 1
        and one_r.status == "exact"
        and one_r.W >= one_u.W
        and two_r.status == "exact"
        and two_r.W >= schur_number(2, restricted=False).W
        and violations == []
        and elapsed < 600.0
        and two_r.W == restricted_two_colors.W
    )
    report(
        "3 restricted relaxation",
        ok,
        f"W_r(1)={one_r.W}, W_r(2)={two_r.W} exact in {elapsed:.2f}s, witness clean",
    )


def test_criterion_4_witnesses_both_routes():
    specs = ("parity", "mod:3:0,1,2", "coset:7:2")
    details = []
    ok = True
    for spec in specs:
        coloring = parse_coloring_spec(spec)
        direct = direct_schur_div_search(coloring, 1000)
        ramsey = witness_via_ramsey(coloring)
        for w in (direct, ramsey):
            ok = ok and w is not None and w.materialized
            ok = ok and w.x + w.y == w.z and w.y % w.x == 0
            ok = ok and {coloring.color_of(v) for v in (w.x, w.y, w.z)} == {w.color}
        details.append(f"{spec}: direct=({direct.x},{direct.y},{direct.z})")
    parity_direct = direct_schur_div_search(parse_coloring_spec("parity"), 1000)
    ok = ok and (parity_direct.x, parity_direct.y, parity_direct.z) == (2, 2, 4)
    report("4 witnesses via both routes", ok, "; ".join(details))


def test_criterion_5_ramsey_constants(pentagon_color):
    edges = list(combinations(range(1, 7), 2))
    triangles = [
        (edges.index((i, j)), edges.index((i, k)), edges.index((j, k)))
        for i, j, k in combinations(range(1, 7), 3)
    ]
    start = time.perf_counter()
    all_forced = True
    for mask in range(1 << 15):
        if not any(
            (mask >> a & 1) == (mask >> b & 1) == (mask >> c & 1)
            for a, b, c in triangles
        ):
            all_forced = False
            break
    pentagon_clean = find_mono_triangle(5, pentagon_color) is None
    elapsed = time.perf_counter() - start
    # spot-check the package's own triangle finder against the sweep
    sample_ok = all(
        find_mono_triangle(6, lambda i, j: (mask >> edges.index((i, j))) & 1) is not None
        for mask in range(0, 1 << 15, 101)
    )
    ok = all_forced and pentagon_clean and sample_ok and elapsed < 5.0
    report(
        "5 Ramsey constants",
        ok,
        f"all 32768 K6 colorings forced, pentagon clean, {elapsed:.2f}s",
    )


def test_criterion_6_residue_scan():
    start = time.perf_counter()
    reports = scan_primes(2, 2, 7, 10_000)
    estimate = summarize_reports(2, 2, 7, 10_000, reports)
    exc = exceptional_primes(2, 2, 100)
    elapsed = time.perf_counter() - start
    # brute-force oracle per prime (outside the timed window)
    oracle_ok = True
    for p, run_start in reports:
        residues = {pow(s, 2, p) for s in range(1, p)}
        expected = next(
            (r for r in range(1, p - 1) if r in residues and r + 1 in residues),
            None,
        )
        if run_start != expected:
            oracle_ok = False
            break
    ok = (
        (estimate.max_r, estimate.argmax_p) == (9, 43)
        and exc == [2, 3, 5]
        and elapsed < 5.0
        and oracle_ok
    )
    report(
        "6 residue scan",
        ok,
        f"max_r={estimate.max_r} at p={estimate.argmax_p}, exceptional={exc}, "
        f"{elapsed:.2f}s, oracle {oracle_ok}",
    )


def test_criterion_7_residue_bound_from_search(restricted_two_colors):
    s_prime = restricted_two_colors.S
    violations = []
    for p in primes_in_range(2, 10_000):
        if p <= s_prime:
            continue
        r = residue_run_start(p, 2, 2)
        if r is None or r > s_prime:
            violations.append((p, r))
    ok = s_prime is not None and violations == []
    report(
        "7 run starts bounded by restricted Schur number",
        ok,
        f"S'(2)={s_prime}, violations={violations[:3]}",
    )


def test_criterion_8_consecutive_ones(restricted_two_colors):
    s_prime = restricted_two_colors.S
    liouville = UnityFunction(2, {}, default_exponent=1)
    minimal = min_consecutive_ones(liouville, s_prime)
    failures = []
    for seed in range(100):
        rng = random.Random(seed)
        f = UnityFunction(
            2,
            {p: rng.randrange(2) for p in (2, 3, 5, 7, 11, 13)},
            rng.randrange(2),
        )
        if min_consecutive_ones(f, s_prime) is None:
            failures.append(seed)
    ok = minimal == 9 and minimal <= s_prime and failures == []
    report(
        "8 consecutive ones within bound",
        ok,
        f"liouville minimal a={minimal} <= {s_prime}, {100 - len(failures)}/100 seeds succeed",
    )


def test_criterion_9_residue_test_oracle():
    start = time.perf_counter()
    ok = True
    for p in primes_in_range(2, 999):
        for k in range(1, 7):
            residues = {pow(s, k, p) for s in range(1, p)}
            for r in range(1, p):
                if is_kth_residue(r, p, k) != (r in residues):
                    ok = False
                    break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report("9 residue test oracle", ok, f"168 primes x 6 powers in {elapsed:.1f}s")
