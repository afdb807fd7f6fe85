import json
import math
import os
import random
import re
import subprocess
import sys
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


def brute_triples(n, restricted, allow_equal=True):
    """Oracle enumeration of forbidden patterns, independent of the module."""
    out = []
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            z = x + y
            if z > n:
                break
            if restricted and y % x:
                continue
            if not allow_equal and x == y:
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

    @pytest.mark.parametrize("restricted, allow_equal", [
        pytest.param(False, True, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="False-strict"),
        pytest.param(True, False, id="True-strict"),
    ])
    def test_matches_oracle_and_sort_order(self, restricted, allow_equal):
        # The x < y subset is the problem the kernel's differential tests also search.
        for n in range(2, 41):
            got = [(t.x, t.y, t.z) for t in forbidden_triples(n, restricted) if allow_equal or t.x < t.y]
            assert got == brute_triples(n, restricted, allow_equal), n

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("allow_equal", [True, False])
    def test_enumerator_matches_oracle_far_out(self, restricted, allow_equal):
        # Up to 400, the restricted divisor walk meets squares, primes and highly composite z.
        got = [t for t in schur_search._triples(400, restricted) if allow_equal or t[0] < t[1]]
        assert got == brute_triples(400, restricted, allow_equal)
        assert list(schur_search._triples(1, restricted)) == []

    def test_restricted_subset_of_unrestricted(self):
        for n in range(2, 41):
            unres = {(t.x, t.y, t.z) for t in forbidden_triples(n, False)}
            res = {(t.x, t.y, t.z) for t in forbidden_triples(n, True)}
            assert res <= unres

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

    def test_node_budget_spent_at_an_n_boundary_reports_one_past(self):
        # 10 nodes decide n = 1..4; the searcher for n = 5, left no node room, refuses its first node.
        for max_nodes, W in ((10, 4), (0, 0)):
            result = schur_number(3, max_nodes=max_nodes)
            assert (result.status, result.W, result.stats.nodes) == ("lower_bound", W, max_nodes + 1)

    def test_max_n_gives_lower_bound(self):
        result = schur_number(2, max_n=3)
        assert (result.status, result.W) == ("lower_bound", 3)

    # The first W = 44 witness that the search-seq benchmark checks.
    WITNESS_44 = [
        0, 1, 0, 2, 0, 2, 1, 1, 3, 3, 3, 3, 2, 3, 0, 3, 0, 1, 0, 2, 1, 2,
        2, 1, 2, 0, 1, 0, 3, 2, 3, 2, 1, 3, 3, 3, 1, 1, 2, 0, 2, 0, 1, 0,
    ]

    def test_four_colors_to_44(self):
        result = schur_number(4, max_n=44)
        assert (result.status, result.W, result.stats.nodes) == ("lower_bound", 44, 1_095_044)
        assert result.witness_coloring == self.WITNESS_44

    def test_four_colors_to_44_threaded(self):
        # Cubes counted in walk order: the single-process nodes and witness.
        result = schur_number(4, max_n=44, threads=2)
        assert (result.status, result.W, result.stats.nodes) == ("lower_bound", 44, 1_095_044)
        assert result.witness_coloring == self.WITNESS_44

    def test_restricted_three_colors_under_three_million_nodes(self):
        result = schur_number(3, restricted=True, max_nodes=3_000_000)
        assert (result.status, result.W, result.stats.nodes) == ("lower_bound", 111, 3_000_001)
        assert validate_coloring(result.witness_coloring, restricted=True) == []

    def test_threads_match_sequential(self, monkeypatch):
        seq = schur_number(2, restricted=True)
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 4)
        par = schur_number(2, restricted=True, threads=2)
        assert (par.status, par.W, par.S) == (seq.status, seq.W, seq.S)
        assert par.witness_coloring == seq.witness_coloring


class TestDeepSearch:
    """The search recurses once per integer.  In one process or in a cube
    worker, a search deeper than the recursion limit stops as a budget cut
    does: the library raises BudgetExhausted and `schur` reports a lower
    bound.  A lowered limit in a fresh interpreter keeps the run short."""

    def _run(self, code):
        src = str(Path(schur_search.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", "import sys\nsys.setrecursionlimit(200)\n" + code],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)

    def test_library_raises_budget_exhausted(self):
        out = self._run(
            "from schurdiv.schur_search import BudgetExhausted, exists_valid_coloring\n"
            "print(len(exists_valid_coloring(5, 100, restricted=True, max_nodes=200000)))\n"
            "try:\n"
            "    exists_valid_coloring(5, 300, restricted=True, max_nodes=200000)\n"
            "except BudgetExhausted as exc:\n"
            "    print(0 < exc.nodes < 200000)\n"
        )
        assert (out.returncode, out.stdout.split()) == (0, ["100", "True"]), out.stderr

    def test_threaded_library_raises_budget_exhausted(self):
        # Five colors: the second worker's cube soon hits the limit too.
        out = self._run(
            "from schurdiv.schur_search import BudgetExhausted, exists_valid_coloring\n"
            "try:\n"
            "    exists_valid_coloring(5, 300, restricted=True, threads=2)\n"
            "except BudgetExhausted as exc:\n"
            "    print(exc.nodes > 0)\n"
        )
        assert (out.returncode, out.stdout.split()) == (0, ["True"]), out.stderr

    def test_schur_reports_a_lower_bound(self):
        out = self._run(
            "from schurdiv.cli import main\n"
            "sys.exit(main(['schur', '--colors', '5', '--restricted', '--budget-nodes', '2000000']))\n"
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert (report["status"], report["S"]) == ("lower_bound", None)
        assert 100 < report["W"] < 200
        assert report["nodes"] < 2_000_000
        assert validate_coloring(report["witness_coloring"], restricted=True) == []


class TestBudgetValidation:
    """Budgets are None (unlimited) or at least 0; seconds must be finite."""

    BAD = [{"max_nodes": -3}, {"max_seconds": -5.0}, {"max_seconds": math.nan}, {"max_seconds": math.inf}]

    @pytest.mark.parametrize("budget", BAD)
    def test_schur_number_rejects(self, budget):
        with pytest.raises(ValueError, match="must be"):
            schur_number(3, **budget)

    @pytest.mark.parametrize("budget", BAD)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_exists_valid_coloring_rejects(self, budget, threads):
        with pytest.raises(ValueError, match="must be"):
            exists_valid_coloring(3, 13, threads=threads, **budget)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            schur_number(2, threads=threads)
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            exists_valid_coloring(2, 5, threads=threads)

    @pytest.mark.parametrize("max_n", [0, -4])
    def test_max_n_below_one_rejected(self, max_n):
        with pytest.raises(ValueError, match=f"max_n must be >= 1, got {max_n}"):
            schur_number(2, max_n=max_n)

    def test_zero_node_budget_stays_valid(self):
        with pytest.raises(BudgetExhausted) as exc:
            exists_valid_coloring(3, 13, max_nodes=0)
        assert exc.value.nodes == 1
        assert schur_number(3, max_nodes=0)[2:5] == ("lower_bound", 0, None)


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

    def test_max_n_bounds_the_search_not_the_cached_evidence(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        assert schur_number(3, cache_path=path).S == 14
        assert main(["schur", "--colors", "3", "--max-n", "5", "--cache", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["status"], report["W"], report["S"], report["nodes"]) == ("exact", 13, 14, 0)
        witness_only = _write_cache(tmp_path / "w.json", (3, 13, report["witness_coloring"], "valid"))
        result = schur_number(3, max_n=5, cache_path=witness_only)
        assert (result.status, result.W, result.S, result.stats.nodes) == ("lower_bound", 13, None, 0)

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
    """Entries are keyed by (l, restricted), and a save keeps per key only
    the largest witness and the least refutation.  An entry marked
    "allow_equal": false was written for x < y, another problem: it is
    never evidence, never revalidated, and every save keeps it as it was."""

    W4 = TestCacheEvidence.W4
    # W = 8 and S = 9 for two colours under x < y; this witness colours 1 + 1 = 2 alike.
    WEAK = [
        {"l": 2, "restricted": False, "allow_equal": False, "n": 8, "coloring": [0, 0, 1, 0, 1, 1, 1, 0],
         "status": "valid", "timestamp": "2000-01-01T00:00:00Z"},
        {"l": 2, "restricted": False, "allow_equal": False, "n": 9, "coloring": None, "status": "refuted",
         "timestamp": "2000-01-01T00:00:00Z"},
    ]

    @staticmethod
    def _cache(path, entries):
        path.write_text(json.dumps({"version": 1, "entries": entries}))
        return str(path)

    def _kept_as_they_were(self, path, entries):
        text = Path(path).read_text(encoding="utf-8")
        assert [e for e in _entries(path) if "allow_equal" in e] == entries
        assert all(json.dumps(e, sort_keys=True) in text for e in entries)

    def test_weak_convention_round_trips(self, tmp_path):
        path = self._cache(tmp_path / "c.json", self.WEAK)
        first = schur_number(2, cache_path=path)
        assert (first.status, first.W, first.S, first.stats.nodes) == ("exact", 4, 5, 16)
        assert first.witness_coloring == self.W4
        self._kept_as_they_were(path, self.WEAK)
        again = schur_number(2, cache_path=path)
        assert (again.status, again.W, again.S, again.stats.nodes) == ("exact", 4, 5, 0)
        self._kept_as_they_were(path, self.WEAK)

    def test_default_entries_never_serve_the_weak_convention(self, tmp_path):
        # A run's evidence never joins the weak entries or replaces them.
        default = [{"l": 2, "restricted": False, "n": n, "coloring": coloring, "status": status}
                   for n, coloring, status in ((4, self.W4, "valid"), (5, None, "refuted"))]
        path = self._cache(tmp_path / "c.json", self.WEAK + default)
        result = schur_number(2, cache_path=path)
        assert (result.W, result.S, result.stats.nodes) == (4, 5, 0)
        assert _entries(path) == self.WEAK + default

    def test_false_entries_are_never_evidence(self, tmp_path):
        # Read as evidence, the refutation at n = 3 would contradict the
        # witness at n = 4, and [0, 0, 0] would fail revalidation.
        weak = [{**self.WEAK[1], "n": 3}, {**self.WEAK[0], "n": 3, "coloring": [0, 0, 0]},
                {**self.WEAK[0], "n": 12, "coloring": "unchecked"}]
        partial = {"l": 2, "restricted": False, "n": 3, "coloring": [0, 1, 0], "status": "valid"}
        path = self._cache(tmp_path / "c.json", weak + [partial])
        result = schur_number(2, cache_path=path)
        assert (result.status, result.W, result.S, result.witness_coloring) == ("exact", 4, 5, self.W4)
        assert 0 < result.stats.nodes < schur_number(2).stats.nodes  # resumed at n = 4
        self._kept_as_they_were(path, weak)

    def test_entries_without_the_field_serve_the_default(self, tmp_path):
        path = _write_cache(tmp_path / "c.json", (2, 4, self.W4, "valid"), (2, 5, None, "refuted"))
        assert all("allow_equal" not in entry for entry in _entries(path))
        result = schur_number(2, cache_path=path)
        assert (result.status, result.W, result.S, result.stats.nodes) == ("exact", 4, 5, 0)
        assert result.witness_coloring == self.W4
        # So do entries marked true, as this search wrote them before it dropped the field.
        marked = [{**e, "allow_equal": True} for e in _entries(path)]
        path = self._cache(tmp_path / "c.json", marked)
        assert schur_number(2, cache_path=path).stats.nodes == 0
        assert _entries(path) == marked

    def test_save_keeps_one_witness_and_one_refutation_per_key(self, tmp_path):
        path = str(tmp_path / "c.json")
        stranger = {"l": 7, "restricted": False, "n": 3, "coloring": "unchecked", "status": "odd"}
        save_search_cache(path, {"version": 1, "entries": [stranger] + self.WEAK})
        schur_number(2, restricted=True, max_n=5, cache_path=path)
        schur_number(2, restricted=True, cache_path=path)
        schur_number(2, max_n=3, cache_path=path)
        schur_number(2, cache_path=path)
        schur_number(2, cache_path=path)
        entries = _entries(path)
        assert entries[:3] == [stranger] + self.WEAK
        assert all("allow_equal" not in entry for entry in entries[3:])
        keyed = sorted((e["restricted"], e["n"], e["status"]) for e in entries[3:])
        assert keyed == [(False, 4, "valid"), (False, 5, "refuted"), (True, 11, "valid"), (True, 12, "refuted")]
        for entry in entries[3:]:
            if entry["status"] == "valid":
                assert validate_coloring(entry["coloring"], entry["restricted"]) == []

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
        assert (refuted["n"], refuted["status"]) == (5, "refuted")
        assert "allow_equal" not in refuted

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
        # [0, 0] colours 1 + 1 = 2 alike: a witness for x < y, not for x <= y.
        weak = {"l": 1, "restricted": False, "allow_equal": False, "n": 2, "coloring": [0, 0],
                "status": "valid"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1, "entries": [weak]}))
        result = schur_number(1, cache_path=str(path))
        assert (result.W, result.S, result.stats.nodes) == (1, 2, schur_number(1).stats.nodes)
        assert _entries(str(path))[0] == weak
        for entry in ({**weak, "allow_equal": True}, {k: v for k, v in weak.items() if k != "allow_equal"}):
            path.write_text(json.dumps({"version": 1, "entries": [entry]}))
            with pytest.raises(CacheError, match="entry 0 .*1 \\+ 1 = 2 monochromatic"):
                schur_number(1, cache_path=str(path))


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
        ('{"version": 1}', "is missing its entries list"),
        ('{"version": 1, "entries": {}}', "is missing its entries list"),
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
    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("allow_equal", [True, False])
    def test_matches_oracle_on_random_colorings(self, restricted, allow_equal):
        rng = random.Random(7)
        for _ in range(100):
            l = rng.randint(1, 3)
            colors = [rng.randrange(l) for _ in range(rng.randint(0, 40))]
            expected = [
                ForbiddenTriple(x, y, z, restricted)
                for x, y, z in brute_triples(len(colors), restricted, allow_equal)
                if colors[x - 1] == colors[y - 1] == colors[z - 1]
            ]
            got = [t for t in validate_coloring(colors, restricted) if allow_equal or t.x < t.y]
            assert got == expected

    def test_detects_monochromatic_triple(self):
        hits = validate_coloring([0, 0, 0], restricted=True)
        assert ForbiddenTriple(1, 1, 2, True) in hits

    def test_clean_coloring(self):
        assert validate_coloring([0, 1, 1, 0], restricted=False) == []
