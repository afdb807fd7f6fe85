import json
import random
import re
import time
from itertools import product as iproduct

import pytest

from schurdiv.cli import main
from schurdiv.schur_search import (
    BudgetExhausted,
    CacheError,
    ForbiddenTriple,
    exists_valid_coloring,
    forbidden_triples,
    load_search_cache,
    save_search_cache,
    schur_number,
    validate_coloring,
)


def brute_triples(n, restricted):
    """Oracle enumeration of forbidden patterns, independent of the module."""
    out = []
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            z = x + y
            if z > n:
                break
            if restricted and y % x:
                continue
            out.append((x, y, z))
    return sorted(out, key=lambda t: (t[2], t[0]))


def brute_exists(l, n, restricted):
    """Oracle: try every one of the l^n colorings."""
    triples = brute_triples(n, restricted)
    for colors in iproduct(range(l), repeat=n):
        c = (None,) + colors
        if not any(c[x] == c[y] == c[z] for x, y, z in triples):
            return True
    return False


class TestForbiddenTriples:
    def test_restricted_n6(self):
        got = forbidden_triples(6, restricted=True)
        assert [(t.x, t.y, t.z) for t in got] == [
            (1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 2, 4),
            (1, 4, 5), (1, 5, 6), (2, 4, 6), (3, 3, 6),
        ]
        assert len(got) == 8
        assert all(t.restricted for t in got)

    def test_unrestricted_n4(self):
        got = [(t.x, t.y, t.z) for t in forbidden_triples(4, restricted=False)]
        assert got == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 2, 4)]

    def test_restricted_n2(self):
        assert [tuple(t)[:3] for t in forbidden_triples(2, restricted=True)] == [(1, 1, 2)]

    @pytest.mark.parametrize("restricted", [False, True])
    def test_matches_oracle_and_sort_order(self, restricted):
        for n in range(2, 41):
            got = [(t.x, t.y, t.z) for t in forbidden_triples(n, restricted)]
            assert got == brute_triples(n, restricted), n

    def test_restricted_subset_of_unrestricted(self):
        for n in range(2, 41):
            unres = {(t.x, t.y, t.z) for t in forbidden_triples(n, False)}
            res = {(t.x, t.y, t.z) for t in forbidden_triples(n, True)}
            assert res <= unres

    def test_allow_equal_flag(self):
        with_eq = {(t.x, t.y, t.z) for t in forbidden_triples(8, True)}
        without = {(t.x, t.y, t.z) for t in forbidden_triples(8, True, allow_equal=False)}
        assert with_eq - without == {(1, 1, 2), (2, 2, 4), (3, 3, 6), (4, 4, 8)}

    def test_too_small(self):
        with pytest.raises(ValueError):
            forbidden_triples(1, False)


class TestExistsValidColoring:
    def test_two_colors_four_integers(self):
        witness = exists_valid_coloring(2, 4, restricted=False)
        assert witness is not None
        assert validate_coloring(witness, restricted=False) == []

    def test_one_color_dies_at_two(self):
        assert exists_valid_coloring(1, 2, restricted=True) is None

    def test_two_colors_five_integers_unrestricted_none(self):
        assert exists_valid_coloring(2, 5, restricted=False) is None

    @pytest.mark.parametrize("restricted", [False, True])
    def test_matches_exhaustive_enumeration(self, restricted):
        for n in range(1, 13):
            expected = brute_exists(2, n, restricted) if n >= 2 else True
            got = exists_valid_coloring(2, n, restricted) is not None
            assert got == expected, (n, restricted)

    def test_witnesses_revalidate(self):
        for l, n, restricted in ((2, 4, False), (3, 13, False), (2, 11, True), (3, 30, True)):
            witness = exists_valid_coloring(l, n, restricted)
            assert witness is not None
            assert validate_coloring(witness, restricted) == []
            assert witness[0] == 0  # symmetry anchor

    def test_downward_closure(self):
        # once refuted, larger ranges stay refuted
        assert exists_valid_coloring(2, 5, restricted=False) is None
        for n in (6, 7, 8):
            assert exists_valid_coloring(2, n, restricted=False) is None

    def test_color_permutation_preserves_validity(self):
        rng = random.Random(99)
        witness = exists_valid_coloring(3, 13, restricted=False)
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = [perm[c] for c in witness]
        assert validate_coloring(permuted, restricted=False) == []

    def test_budget_raises(self):
        with pytest.raises(BudgetExhausted):
            exists_valid_coloring(3, 13, restricted=False, max_nodes=5)

    def test_parallel_matches_sequential(self):
        seq_witness = exists_valid_coloring(3, 13, restricted=False)
        par_witness = exists_valid_coloring(3, 13, restricted=False, threads=2, split_depth=4)
        assert par_witness == seq_witness
        assert exists_valid_coloring(2, 5, restricted=False, threads=2, split_depth=3) is None


class TestSchurNumber:
    def test_one_color(self):
        for restricted in (False, True):
            result = schur_number(1, restricted=restricted)
            assert (result.status, result.W, result.S) == ("exact", 1, 2)

    def test_classical_two_colors(self):
        result = schur_number(2)
        assert (result.status, result.W, result.S) == ("exact", 4, 5)
        assert validate_coloring(result.witness_coloring, restricted=False) == []

    def test_classical_three_colors(self):
        result = schur_number(3)
        assert (result.status, result.W, result.S) == ("exact", 13, 14)
        assert validate_coloring(result.witness_coloring, restricted=False) == []

    def test_restricted_two_colors(self, restricted_two_colors):
        result = restricted_two_colors
        # frozen from the exhaustive 2^n enumeration oracle at n = 11, 12
        assert (result.W, result.S) == (11, 12)
        assert validate_coloring(result.witness_coloring, restricted=True) == []
        assert brute_exists(2, 11, restricted=True)
        assert not brute_exists(2, 12, restricted=True)

    def test_restricted_relaxation(self):
        for l in (1, 2):
            assert schur_number(l, restricted=True).W >= schur_number(l, restricted=False).W

    def test_budget_gives_lower_bound(self):
        result = schur_number(3, restricted=True, max_nodes=200)
        assert result.status == "lower_bound"
        assert result.S is None
        if result.witness_coloring:
            assert validate_coloring(result.witness_coloring, restricted=True) == []

    def test_max_n_gives_lower_bound(self):
        result = schur_number(2, max_n=3)
        assert (result.status, result.W) == ("lower_bound", 3)

    def test_threads_match_sequential(self):
        seq = schur_number(2, restricted=True)
        par = schur_number(2, restricted=True, threads=2, split_depth=4)
        assert (par.status, par.W, par.S) == (seq.status, seq.W, seq.S)
        assert par.witness_coloring == seq.witness_coloring


class TestThreadedBudgets:
    """A budgeted search runs in one process even when threads > 1, so the
    budget is polled exactly and the result is the single-process one."""

    def test_node_budget_raises(self):
        with pytest.raises(BudgetExhausted) as exc:
            exists_valid_coloring(4, 44, threads=2, max_nodes=10)
        assert exc.value.nodes == 11

    def test_node_budget_matches_single_process(self):
        seq = schur_number(4, max_nodes=5000)
        par = schur_number(4, threads=2, max_nodes=5000)
        assert (par.status, par.W, par.stats.nodes) == (seq.status, seq.W, seq.stats.nodes)
        assert par.witness_coloring == seq.witness_coloring
        assert (par.status, par.stats.nodes) == ("lower_bound", 5001)

    def test_time_budget_stops(self):
        start = time.perf_counter()
        result = schur_number(4, threads=2, max_seconds=1.0)
        assert result.status == "lower_bound"
        assert time.perf_counter() - start < 10.0


class TestCache:
    def test_roundtrip_and_resume(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = schur_number(2, restricted=True, cache_path=path)
        assert first.status == "exact"
        cache = load_search_cache(path)
        assert cache["version"] == 1
        statuses = {(e["n"], e["status"]) for e in cache["entries"]}
        assert (first.W, "valid") in statuses
        assert (first.S, "refuted") in statuses
        second = schur_number(2, restricted=True, cache_path=path)
        assert (second.W, second.S, second.status) == (first.W, first.S, "exact")
        assert second.stats.nodes == 0  # resumed entirely from cache
        assert second.witness_coloring == first.witness_coloring

    def test_partial_cache_resumes_search(self, tmp_path):
        path = str(tmp_path / "cache.json")
        partial = schur_number(2, restricted=True, max_n=5, cache_path=path)
        assert partial.status == "lower_bound"
        finished = schur_number(2, restricted=True, cache_path=path)
        assert (finished.W, finished.S) == (11, 12)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError):
            load_search_cache(str(path))

    def test_cache_keys_separate_restriction(self, tmp_path):
        path = str(tmp_path / "cache.json")
        schur_number(2, restricted=True, cache_path=path)
        unrestricted = schur_number(2, restricted=False, cache_path=path)
        assert (unrestricted.W, unrestricted.S) == (4, 5)


def _write_cache(path, *entries):
    path.write_text(json.dumps({"version": 1, "entries": [
        {"l": l, "restricted": False, "n": n, "coloring": coloring, "status": status}
        for l, n, coloring, status in entries
    ]}))
    return str(path)


class TestCacheEvidence:
    """Cached entries are re-checked before a search trusts them."""

    W4 = [0, 1, 1, 0]  # the first witness of W(2) = 4

    def test_valid_entries_are_used(self, tmp_path):
        path = _write_cache(tmp_path / "c.json", (2, 4, self.W4, "valid"), (2, 5, None, "refuted"))
        result = schur_number(2, cache_path=path)
        assert (result.status, result.W, result.S, result.stats.nodes) == ("exact", 4, 5, 0)
        assert result.witness_coloring == self.W4

    @pytest.mark.parametrize(
        "coloring, fault",
        [
            ([0, 1, 1], "does not have length 4"),
            ([0, 1, 2, 0], "colors outside 0..1"),
            ([0, 1, True, 0], "colors outside 0..1"),
            (None, "does not have length 4"),
            ([0, 0, 1, 1], "1 + 1 = 2 monochromatic"),
        ],
    )
    def test_bad_witness_rejected(self, tmp_path, coloring, fault):
        path = _write_cache(tmp_path / "c.json", (3, 2, [0, 1], "valid"), (2, 4, coloring, "valid"))
        with pytest.raises(CacheError, match=f"entry 1 .*{re.escape(fault)}"):
            schur_number(2, cache_path=path)

    def test_bad_n_rejected(self, tmp_path):
        path = _write_cache(tmp_path / "c.json", (2, "4", None, "refuted"))
        with pytest.raises(CacheError, match="entry 0 .*not a positive integer"):
            schur_number(2, cache_path=path)

    @pytest.mark.parametrize("refuted_n", [3, 4])
    def test_contradicting_refutation_rejected(self, tmp_path, refuted_n):
        path = _write_cache(tmp_path / "c.json", (2, 4, self.W4, "valid"), (2, refuted_n, None, "refuted"))
        with pytest.raises(CacheError, match=f"entry 1 .*n={refuted_n}, refuted.*witness at n=4"):
            schur_number(2, cache_path=path)

    def test_other_color_counts_are_not_checked_against(self, tmp_path):
        path = _write_cache(tmp_path / "c.json", (2, 4, self.W4, "valid"), (1, 2, None, "refuted"))
        assert schur_number(1, cache_path=path).S == 2

    def test_cli_exits_one_naming_the_entry(self, tmp_path, capsys):
        path = _write_cache(tmp_path / "c.json", (2, 4, [0, 0, 0, 0], "valid"))
        assert main(["schur", "--colors", "2", "--cache", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entry 0 (2 colors, n=4, valid)" in captured.err
        assert main(["schur", "--colors", "2", "--cache",
                     _write_cache(tmp_path / "d.json", (2, 4, self.W4, "valid"),
                                  (2, 2, None, "refuted"))]) == 1
        assert "contradicts the cached witness at n=4" in capsys.readouterr().err

    def test_save_leaves_a_strangers_tmp_file(self, tmp_path):
        path = tmp_path / "c.json"
        stranger = tmp_path / "c.json.tmp"
        stranger.write_text("another writer's half-written cache")
        save_search_cache(str(path), {"version": 1, "entries": []})
        assert stranger.read_text() == "another writer's half-written cache"
        assert load_search_cache(str(path))["entries"] == []

    def test_save_leaves_no_tmp_file(self, tmp_path):
        path = str(tmp_path / "c.json")
        schur_number(2, cache_path=path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_failed_save_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            save_search_cache(str(path), {"version": 1, "entries": [object()]})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert path.read_text() == "old"


class TestValidateColoring:
    def test_detects_monochromatic_triple(self):
        hits = validate_coloring([0, 0, 0], restricted=True)
        assert ForbiddenTriple(1, 1, 2, True) in hits

    def test_clean_coloring(self):
        assert validate_coloring([0, 1, 1, 0], restricted=False) == []
