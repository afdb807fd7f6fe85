import math
import random
import time
from itertools import combinations

import pytest

from schurdiv.coloring import CosetColoring, ExplicitColoring, ResidueColoring, UnityColoring, parse_coloring_spec
from schurdiv.multiplicative import UnityFunction
from schurdiv.ramsey import (
    EvaluationInfeasibleError,
    _edge_color_function,
    direct_schur_div_search,
    find_mono_triangle,
    r3_value_or_bound,
    witness_via_ramsey,
)
from schurdiv.sequences import generate, interval_sum, interval_sum_mod
from test_schur_search import brute_triples


def brute_first_mono_triangle(vertex_count, edge_color):
    """Independent lexicographic scan used as the oracle."""
    for i, j, k in combinations(range(1, vertex_count + 1), 3):
        if edge_color(i, j) == edge_color(i, k) == edge_color(j, k):
            return (i, j, k, edge_color(i, j))
    return None


def mask_color(mask):
    """The 2-coloring of K_6 whose edge number idx (lexicographic) is bit idx of mask."""
    index = {e: idx for idx, e in enumerate(combinations(range(1, 7), 2))}
    return lambda i, j: (mask >> index[(i, j)]) & 1


class TestR3:
    def test_exact_values(self):
        assert (r3_value_or_bound(1).vertices, r3_value_or_bound(1).exact) == (3, True)
        assert (r3_value_or_bound(2).vertices, r3_value_or_bound(2).exact) == (6, True)
        assert (r3_value_or_bound(3).vertices, r3_value_or_bound(3).exact) == (17, True)

    def test_recursive_bound(self):
        assert (r3_value_or_bound(4).vertices, r3_value_or_bound(4).exact) == (66, False)
        assert r3_value_or_bound(5).vertices == 5 * 65 + 2

    def test_rejects_zero_colors(self):
        with pytest.raises(ValueError):
            r3_value_or_bound(0)


class TestMonoTriangle:
    def test_parity_sum_k6(self):
        fn = lambda i, j: (i + j) % 2
        assert tuple(find_mono_triangle(6, fn)) == brute_first_mono_triangle(6, fn) == (1, 3, 5, 0)

    def test_pentagon_has_none(self, pentagon_color):
        assert find_mono_triangle(5, pentagon_color) is None

    def test_single_color_k3(self):
        assert tuple(find_mono_triangle(3, lambda i, j: 0)) == (1, 2, 3, 0)

    def test_sampled_two_colorings_of_k6_all_forced(self):
        # full 2^15 sweep lives in the acceptance suite; spot-check here
        for mask in range(0, 1 << 15, 37):
            assert find_mono_triangle(6, mask_color(mask)) is not None

    def test_every_two_coloring_of_k6_matches_the_oracle(self):
        for mask in range(1 << 15):
            color = mask_color(mask)
            got = find_mono_triangle(6, color)
            assert got is not None and tuple(got) == brute_first_mono_triangle(6, color), mask

    def test_each_edge_colored_at_most_once(self):
        rule = lambda i, j: (i * j) % 3
        calls = []

        def color(i, j):
            calls.append((i, j))
            return rule(i, j)

        # (1, 3, 6) is first, after the scan has met edge (1, 3) twice.
        assert tuple(find_mono_triangle(9, color)) == brute_first_mono_triangle(9, rule) == (1, 3, 6, 0)
        assert len(calls) == len(set(calls))
        assert all(1 <= i < j <= 9 for i, j in calls)

    def test_edges_past_the_first_triangle_are_never_colored(self):
        def color(i, j):
            if j == 6:
                raise AssertionError(f"edge ({i},{j}) colored")
            return 2

        assert tuple(find_mono_triangle(6, color)) == (1, 2, 3, 2)


class TestWitnessViaRamsey:
    def test_single_color(self):
        w = witness_via_ramsey(parse_coloring_spec("mod:1:0"))
        assert (w.x, w.y, w.z) == (1, 1, 2)
        assert w.triangle == (1, 2, 3)
        assert w.r_vertices == 3 and w.r_exact

    def test_parity(self):
        w = witness_via_ramsey(parse_coloring_spec("parity"))
        assert (w.x, w.y, w.z) == (2, 2, 4)
        assert w.quotient == 1
        assert w.color == 0
        assert w.triangle == (1, 3, 4)

    def test_three_residue_classes(self):
        w = witness_via_ramsey(parse_coloring_spec("mod:3:0,1,2"))
        assert (w.x, w.y, w.z) == (3, 24, 27)
        assert w.color == 0
        assert w.quotient == 8
        assert w.r_vertices == 17

    def test_coset_7_2(self):
        coloring = parse_coloring_spec("coset:7:2")
        w = witness_via_ramsey(coloring)
        assert (w.x, w.y, w.z) == (1, 1, 2)
        assert w.color == coloring.color_of(1)

    def test_coset_11_2(self):
        coloring = parse_coloring_spec("coset:11:2")
        w = witness_via_ramsey(coloring)
        assert (w.x, w.y, w.z) == (1, 3, 4)
        assert {coloring.color_of(v) for v in (1, 3, 4)} == {w.color}

    def test_structure_and_recoloring(self):
        for spec in ("parity", "mod:3:0,1,2", "coset:7:2", "coset:11:2", "mod:5:0,1,2,1,0"):
            coloring = parse_coloring_spec(spec)
            w = witness_via_ramsey(coloring)
            if not w.materialized:
                continue
            assert w.x + w.y == w.z
            assert w.y % w.x == 0
            assert w.quotient == w.y // w.x
            assert {coloring.color_of(v) for v in (w.x, w.y, w.z)} == {w.color}

    def test_symbolic_witness_spans_validate(self):
        # 29 does not divide 28!+28, so edge colors stay varied deep into K17
        # and the first monochromatic triangle sits past the materializable terms
        spec = "mod:29:" + ",".join(str(i % 3) for i in range(29))
        coloring = parse_coloring_spec(spec)
        w = witness_via_ramsey(coloring)
        assert w.triangle is not None
        i, j, k = w.triangle
        assert w.x_span == (i, j) and w.y_span == (j, k) and w.z_span == (i, k)
        if not w.materialized:
            assert w.x is None and w.quotient is None
        # independent re-check of monochromaticity through modular sums
        for a, b in (w.x_span, w.y_span, w.z_span):
            residue = interval_sum_mod(a, b, 29)
            assert coloring.class_map[residue] == w.color

    def test_seven_colors_color_edges_on_demand(self):
        # The 7-color bound has 13,701 vertices and 93,851,850 edges, more
        # than a table of every edge could fill in the time allowed.
        start = time.perf_counter()
        w = witness_via_ramsey(parse_coloring_spec("mod:7:0,1,2,3,4,5,6"))
        assert time.perf_counter() - start < 5.0
        assert (w.r_vertices, w.r_exact) == (13701, False)
        assert w.triangle == (1, 5, 6) and w.x == 28
        assert w.x + w.y == w.z and w.y % w.x == 0

    def test_four_colors_use_recursive_bound(self):
        coloring = parse_coloring_spec("mod:4:0,1,2,3")
        w = witness_via_ramsey(coloring)
        assert w.r_vertices == 66 and w.r_exact is False
        assert (w.x, w.y, w.z) == (4, 24, 28)
        assert {coloring.color_of(v) for v in (w.x, w.y, w.z)} == {w.color}

    def test_coset_with_shared_subgroup(self):
        # fourth powers mod 11 generate the same subgroup as squares
        w = witness_via_ramsey(parse_coloring_spec("coset:11:4"))
        assert (w.x, w.y, w.z) == (1, 3, 4)
        assert w.r_vertices == 17 and w.r_exact is True

    def test_explicit_single_color_table(self):
        w = witness_via_ramsey(ExplicitColoring([0, 0]))
        assert (w.x, w.y, w.z) == (1, 1, 2)

    def test_explicit_two_colors_infeasible(self):
        with pytest.raises(EvaluationInfeasibleError):
            witness_via_ramsey(ExplicitColoring([0, 1, 0, 1]))

    def test_unity_two_colors_materializes(self):
        # every block sum on six vertices factorizes (27! + 1 is prime),
        # so even the root-of-unity rule can color all of K6
        coloring = UnityColoring(UnityFunction(2, {}, 1))
        w = witness_via_ramsey(coloring)
        assert w.triangle == (2, 4, 6)
        assert w.x == 3 and w.y == 24 + math.factorial(28)
        assert w.x + w.y == w.z
        assert w.y % w.x == 0
        assert {coloring.color_of(v) for v in (w.x, w.y, w.z)} == {w.color}

    def test_unity_three_colors_infeasible(self):
        # the scan of 17 vertices reaches a block sum past the materializable terms
        with pytest.raises(EvaluationInfeasibleError, match=r"edge \(1, 7\)"):
            witness_via_ramsey(UnityColoring(UnityFunction(3, {2: 1}, 0)))

    def test_unity_three_colors_shallow_triangle(self):
        # every value is 1, so (1, 2, 3) is monochromatic before any deep edge
        w = witness_via_ramsey(UnityColoring(UnityFunction(3, {})))
        assert (w.triangle, w.r_vertices, w.r_exact) == ((1, 2, 3), 17, True)
        assert (w.x, w.y, w.z) == (1, 1, 2)

    def test_unity_single_color_works(self):
        w = witness_via_ramsey(UnityColoring(UnityFunction(1, {})))
        assert (w.x, w.y, w.z) == (1, 1, 2)


@pytest.mark.parametrize(
    "coloring", [ResidueColoring(4, (2, 0, 1, 1)), CosetColoring(7, 2), CosetColoring(13, 3)]
)
def test_modular_edge_color_is_color_of_the_block_sum(coloring):
    # the edge color reduces the block sum mod m; it must agree with
    # color_of of the exact sum, also where that sum is 0 mod m
    seq = generate("factorial", 5)
    edge_color = _edge_color_function(coloring)
    sums = {(i, j): interval_sum(seq, i, j) for i, j in combinations(range(1, 7), 2)}
    assert any(s % coloring.modulus == 0 for s in sums.values())
    for (i, j), s in sums.items():
        assert edge_color(i, j) == coloring.color_of(s), (i, j, s)


class TestDirectSearch:
    def test_parity_first_witness(self):
        w = direct_schur_div_search(parse_coloring_spec("parity"), 50)
        assert (w.x, w.y, w.z) == (2, 2, 4)
        assert w.color == 0

    def test_single_color_first_triple(self):
        w = direct_schur_div_search(parse_coloring_spec("mod:1:0"), 10)
        assert (w.x, w.y, w.z) == (1, 1, 2)

    def test_coset_11_2(self):
        w = direct_schur_div_search(parse_coloring_spec("coset:11:2"), 9)
        assert (w.x, w.y, w.z) == (1, 3, 4)

    def test_none_when_bound_too_small(self):
        assert direct_schur_div_search(parse_coloring_spec("parity"), 3) is None

    def test_scan_order_is_z_then_x(self):
        # 3-coloring dodging every triple with z < 9 that has an earlier x
        c = ExplicitColoring([0, 1, 2, 2, 1, 0, 1, 2, 0])
        w = direct_schur_div_search(c, 9)
        if w is not None:
            before = [
                (x, z - x, z)
                for z in range(2, w.z + 1)
                for x in range(1, z // 2 + 1)
                if z % x == 0 and (z < w.z or x < w.x)
            ]
            for x, y, z in before:
                assert len({c.color_of(x), c.color_of(y), c.color_of(z)}) > 1

    def test_first_triple_of_the_oracle_enumeration(self):
        rng = random.Random(20240901)
        outcomes = set()
        for _ in range(300):
            n, l = rng.randint(1, 60), rng.randint(2, 4)
            table = [rng.randrange(l) for _ in range(n)]
            expected = next(
                ((x, y, z) for x, y, z in brute_triples(n, True) if table[x - 1] == table[y - 1] == table[z - 1]),
                None,
            )
            w = direct_schur_div_search(ExplicitColoring(table), n)
            assert (None if w is None else (w.x, w.y, w.z)) == expected, table
            if w is not None:
                assert (w.color, w.quotient, w.via) == (table[w.z - 1], w.y // w.x, "direct-search")
            outcomes.add(w is None)
        assert outcomes == {False, True}

    def test_colors_each_integer_once_z_first(self):
        class Recording(ExplicitColoring):
            def color_of(self, n):
                calls.append(n)
                return super().color_of(n)

        calls = []
        assert direct_schur_div_search(Recording([0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1]), 11) is None
        # Memoised, and each z is colored before its x and y (all smaller).
        assert calls == [2, 1, *range(3, 12)]

    def test_agreement_between_routes(self):
        for spec in ("parity", "mod:3:0,1,2", "coset:7:2", "coset:11:2"):
            coloring = parse_coloring_spec(spec)
            direct = direct_schur_div_search(coloring, 100)
            ramsey = witness_via_ramsey(coloring)
            assert direct is not None
            for w in (direct, ramsey):
                if w.materialized:
                    assert {coloring.color_of(v) for v in (w.x, w.y, w.z)} == {w.color}
