import json
import random
import re
import time
from itertools import product as iproduct
from pathlib import Path

import pytest

from schurdiv import schur_search
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

    def test_parallel_matches_sequential(self, monkeypatch):
        seq_witness = exists_valid_coloring(3, 13, restricted=False)
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 4)
        par_witness = exists_valid_coloring(3, 13, restricted=False, threads=2)
        assert par_witness == seq_witness
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 3)
        assert exists_valid_coloring(2, 5, restricted=False, threads=2) is None


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

    def test_threads_match_sequential(self, monkeypatch):
        seq = schur_number(2, restricted=True)
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 4)
        par = schur_number(2, restricted=True, threads=2)
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


def _entries(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))["entries"]


class TestCacheKeys:
    """Entries are keyed by (l, restricted, allow_equal), and a save keeps
    per key only the largest witness and the least refutation."""

    W4 = TestCacheEvidence.W4

    def test_weak_convention_round_trips(self, tmp_path):
        path = str(tmp_path / "c.json")
        first = schur_number(2, allow_equal=False, cache_path=path)
        assert (first.status, first.W, first.S, first.stats.nodes) == ("exact", 8, 9, 62)
        again = schur_number(2, allow_equal=False, cache_path=path)
        assert (again.status, again.W, again.S, again.stats.nodes) == ("exact", 8, 9, 0)
        assert again.witness_coloring == first.witness_coloring
        # the weak entries do not serve the default convention
        default = schur_number(2, cache_path=path)
        assert (default.W, default.S) == (4, 5)
        assert default.stats.nodes == schur_number(2).stats.nodes > 0
        assert schur_number(2, cache_path=path).stats.nodes == 0
        assert schur_number(2, allow_equal=False, cache_path=path).stats.nodes == 0

    def test_default_entries_never_serve_the_weak_convention(self, tmp_path):
        path = _write_cache(tmp_path / "c.json", (2, 4, self.W4, "valid"), (2, 5, None, "refuted"))
        weak = schur_number(2, allow_equal=False, cache_path=path)
        assert (weak.W, weak.S, weak.stats.nodes) == (8, 9, 62)

    def test_entries_without_the_field_serve_the_default(self, tmp_path):
        path = _write_cache(tmp_path / "c.json", (2, 4, self.W4, "valid"), (2, 5, None, "refuted"))
        assert all("allow_equal" not in entry for entry in _entries(path))
        result = schur_number(2, allow_equal=True, cache_path=path)
        assert (result.status, result.W, result.S, result.stats.nodes) == ("exact", 4, 5, 0)
        assert result.witness_coloring == self.W4

    def test_save_keeps_one_witness_and_one_refutation_per_key(self, tmp_path):
        path = str(tmp_path / "c.json")
        stranger = {"l": 7, "restricted": False, "n": 3, "coloring": "unchecked", "status": "odd"}
        save_search_cache(path, {"version": 1, "entries": [stranger]})
        schur_number(2, restricted=True, max_n=5, cache_path=path)
        schur_number(2, restricted=True, cache_path=path)
        schur_number(2, allow_equal=False, cache_path=path)
        schur_number(2, allow_equal=False, cache_path=path)
        entries = _entries(path)
        assert entries[0] == stranger
        keyed = sorted((e["restricted"], e["allow_equal"], e["n"], e["status"]) for e in entries[1:])
        assert keyed == [(False, False, 8, "valid"), (False, False, 9, "refuted"),
                         (True, True, 11, "valid"), (True, True, 12, "refuted")]
        for entry in entries[1:]:
            if entry["status"] == "valid":
                assert validate_coloring(entry["coloring"], entry["restricted"], entry["allow_equal"]) == []

    def test_cached_best_entry_is_kept_as_it_was(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1, "entries": [
            {"l": 2, "restricted": False, "n": 3, "coloring": [0, 1, 1], "status": "valid"},
            {"l": 2, "restricted": False, "n": 4, "coloring": self.W4, "status": "valid",
             "timestamp": "2000-01-01T00:00:00Z"},
        ]}))
        assert schur_number(2, cache_path=str(path)).S == 5
        valid, refuted = _entries(str(path))
        assert valid == {"l": 2, "restricted": False, "n": 4, "coloring": self.W4,
                         "status": "valid", "timestamp": "2000-01-01T00:00:00Z"}
        assert (refuted["n"], refuted["status"], refuted["allow_equal"]) == (5, "refuted", True)

    def _legacy_cache(self, tmp_path):
        """One witness per n = 1..111, as a per-n cache for W'(3) held them."""
        witness = schur_number(3, restricted=True, max_n=111).witness_coloring
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"version": 1, "entries": [
            {"l": 3, "restricted": True, "n": n, "coloring": witness[:n], "status": "valid",
             "timestamp": "2000-01-01T00:00:00Z"}
            for n in range(1, 112)
        ]}))
        return path, witness

    def test_legacy_per_n_cache_is_compacted(self, tmp_path):
        path, witness = self._legacy_cache(tmp_path)
        result = schur_number(3, restricted=True, max_n=111, cache_path=str(path))
        assert (result.status, result.W, result.stats.nodes) == ("lower_bound", 111, 0)
        assert result.witness_coloring == witness
        assert [(e["n"], e["status"]) for e in _entries(str(path))] == [(111, "valid")]
        again = schur_number(3, restricted=True, max_n=111, cache_path=str(path))
        assert (again.W, again.stats.nodes, again.witness_coloring) == (111, 0, witness)

    def test_legacy_per_n_cache_is_checked(self, tmp_path):
        path, witness = self._legacy_cache(tmp_path)
        cache = json.loads(path.read_text())
        cache["entries"][49]["coloring"][1] = 0  # 1 + 1 = 2 in colour 0
        path.write_text(json.dumps(cache))
        with pytest.raises(CacheError, match="entry 49 .*n=50, valid.*1 \\+ 1 = 2"):
            schur_number(3, restricted=True, max_n=111, cache_path=str(path))

    def test_witness_checked_under_its_own_convention(self, tmp_path):
        # [0, 0] colours 1 + 1 = 2 alike: fine without x = y, not with it.
        weak = {"l": 1, "restricted": False, "allow_equal": False, "n": 2, "coloring": [0, 0],
                "status": "valid"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1, "entries": [weak]}))
        result = schur_number(1, allow_equal=False, cache_path=str(path))
        assert (result.W, result.S) == (2, 3)
        assert result.stats.nodes < schur_number(1, allow_equal=False).stats.nodes  # searched n = 3 only
        for entry in ({**weak, "allow_equal": True}, {k: v for k, v in weak.items() if k != "allow_equal"}):
            path.write_text(json.dumps({"version": 1, "entries": [entry]}))
            with pytest.raises(CacheError, match="entry 0 .*1 \\+ 1 = 2 monochromatic"):
                schur_number(1, cache_path=str(path))
        path.write_text(json.dumps({"version": 1, "entries": [{**weak, "n": 3, "coloring": [0, 0, 0]}]}))
        with pytest.raises(CacheError, match="entry 0 .*1 \\+ 2 = 3 monochromatic"):
            schur_number(1, allow_equal=False, cache_path=str(path))


class TestConcurrentWriters:
    """A save re-reads the cache file, so evidence that another run saved
    after this run loaded it survives, and is checked like any other."""

    W4 = TestCacheEvidence.W4

    @staticmethod
    def _between_load_and_save(monkeypatch, write):
        """Run `write` once, when the search asks for its first n."""
        real, done = schur_search._exists, []

        def exists(*args):
            if not done:
                done.append(True)
                write()
            return real(*args)

        monkeypatch.setattr(schur_search, "_exists", exists)

    def test_other_keys_entries_survive(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.json")
        self._between_load_and_save(monkeypatch, lambda: schur_number(2, restricted=True, cache_path=path))
        result = schur_number(3, max_n=10, cache_path=path)
        assert (result.status, result.W) == ("lower_bound", 10)
        keyed = sorted((e["l"], e["restricted"], e["n"], e["status"]) for e in _entries(path))
        assert keyed == [(2, True, 11, "valid"), (2, True, 12, "refuted"), (3, False, 10, "valid")]
        assert schur_number(2, restricted=True, cache_path=path).stats.nodes == 0

    def test_key_keeps_the_best_of_run_and_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.json")
        self._between_load_and_save(monkeypatch, lambda: schur_number(2, cache_path=path))
        result = schur_number(2, max_n=3, cache_path=path)
        assert (result.status, result.W) == ("lower_bound", 3)
        valid, refuted = _entries(path)
        assert (valid["n"], valid["coloring"], valid["status"]) == (4, self.W4, "valid")
        assert (refuted["n"], refuted["status"]) == (5, "refuted")

    def test_run_refutation_joins_a_smaller_file_witness(self, tmp_path, monkeypatch):
        path = str(tmp_path / "c.json")
        self._between_load_and_save(monkeypatch, lambda: schur_number(2, max_n=2, cache_path=path))
        assert schur_number(2, cache_path=path).S == 5
        assert [(e["n"], e["status"]) for e in _entries(path)] == [(4, "valid"), (5, "refuted")]

    def test_witness_written_meanwhile_is_revalidated(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        self._between_load_and_save(monkeypatch, lambda: _write_cache(path, (2, 4, [0, 0, 1, 1], "valid")))
        with pytest.raises(CacheError, match="entry 0 .*1 \\+ 1 = 2 monochromatic"):
            schur_number(2, max_n=3, cache_path=str(path))

    def test_refutation_written_meanwhile_must_agree(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        self._between_load_and_save(monkeypatch, lambda: _write_cache(path, (2, 3, None, "refuted")))
        with pytest.raises(CacheError, match="entry 0 .*n=3, refuted.*contradicts the cached witness at n=4"):
            schur_number(2, cache_path=str(path))
        assert [(e["n"], e["status"]) for e in _entries(path)] == [(3, "refuted")]

    def test_run_refutation_must_agree_with_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"

        def false_refutation(*args):
            _write_cache(path, (2, 4, self.W4, "valid"))
            return None, 0

        monkeypatch.setattr(schur_search, "_exists", false_refutation)
        with pytest.raises(CacheError, match="the run's refutation .*n=1, refuted.*witness at n=4"):
            schur_number(2, cache_path=str(path))
        assert [(e["n"], e["status"]) for e in _entries(path)] == [(4, "valid")]


class TestMalformedCache:
    def test_entry_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"version": 1, "entries": [{"l": 9, "n": 1, "status": "refuted"}, 1]}')
        with pytest.raises(CacheError, match=f"cache {re.escape(str(path))}: entry 1 is not an object"):
            schur_number(2, cache_path=str(path))
        assert main(["schur", "--colors", "2", "--cache", str(path)]) == 1
        assert "entry 1 is not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("text, fault", [
        ("[1]", "is not a JSON object"),
        ('"cache"', "is not a JSON object"),
        ("", "is not valid JSON"),
        ('{"version": 1, "entries": [', "is not valid JSON"),
    ])
    def test_file_not_an_object(self, tmp_path, capsys, text, fault):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"cache {re.escape(str(path))} {fault}"):
            load_search_cache(str(path))
        assert main(["schur", "--colors", "2", "--cache", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cache {path} {fault}" in captured.err
        assert path.read_text() == text


class TestValidateColoring:
    def test_detects_monochromatic_triple(self):
        hits = validate_coloring([0, 0, 0], restricted=True)
        assert ForbiddenTriple(1, 1, 2, True) in hits

    def test_clean_coloring(self):
        assert validate_coloring([0, 1, 1, 0], restricted=False) == []
