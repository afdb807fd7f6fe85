"""The bitset search kernel against the pair-table kernel it replaced.

`oracle_search.py` keeps the old kernel verbatim.  Over a deterministic
sweep both must give the same first witness, the same node count, the
same budget cut and the same prefix lists, because the branching order
and the pruning are unchanged.  Each cube, run from the state the prefix
enumeration recorded, must be the oracle's search seeded with the
cube's prefix.

The oracle also searches x + y = z with x < y, but the kernel only
x <= y, the one problem schurdiv searches: its twin rule relies on every
v <= n/2 being its own partner.  So every case passes the oracle
allow_equal = True.  Five colors run under budgets only.  A new color
bans 2v at most, and no pair of integers below v bans 2v, so below the
split depth its death test fires only with one color: the l = 1 cases
guard it.
"""

import concurrent.futures
import os
import pickle
import time
from contextlib import suppress
from concurrent.futures import ProcessPoolExecutor

import pytest

import oracle_search
from schurdiv import schur_search
from schurdiv.schur_search import BudgetExhausted, exists_valid_coloring, schur_number

# (l, restricted, allow_equal): allow_equal is the oracle's, always True.
VARIANTS = [(l, restricted, True) for l in range(1, 6) for restricted in (False, True)]

SPLIT_DEPTHS = (1, 3, 5, 8)


def _heavy(l, n, restricted):
    """Exact classical 4-color searches from n = 44 on take 10^6 nodes or
    more; five colors are searched under budgets only."""
    return l == 5 or (l == 4 and not restricted and n >= 44)


def _old(l, n, restricted, allow_equal, max_nodes=None):
    return oracle_search._Searcher(l, n, restricted, allow_equal, oracle_search._Budget(max_nodes, None))


def _new(l, n, restricted, max_nodes=None):
    return schur_search._Searcher(l, n, restricted, max_nodes)


def _outcome(searcher):
    return _result(searcher, lambda: searcher.run(1, -1))


def _result(searcher, search):
    try:
        witness = search()
    except BudgetExhausted as exc:
        assert exc.nodes == searcher.nodes
        return ("budget", exc.nodes)
    return ("done", witness, searcher.nodes)


def _colors(members):
    """The coloring of 1..depth held by a recorded cube state."""
    return tuple(next(c for c, m in enumerate(members) if m >> v & 1) for v in range(1, max(members).bit_length()))


@pytest.mark.parametrize("l,restricted,allow_equal", VARIANTS)
def test_search_matches_oracle(l, restricted, allow_equal):
    for n in range(1, 51):
        budgets = (37, 20_000) if _heavy(l, n, restricted) else (None, 37)
        for max_nodes in budgets:
            want = _outcome(_old(l, n, restricted, allow_equal, max_nodes))
            assert _outcome(_new(l, n, restricted, max_nodes)) == want, (n, max_nodes)


@pytest.mark.parametrize("l,restricted,allow_equal", VARIANTS)
def test_collect_prefixes_match_oracle(l, restricted, allow_equal):
    for n in (9, 20, 45):
        for depth in SPLIT_DEPTHS:
            want = _old(l, n, restricted, allow_equal).collect_prefixes(depth)
            cubes = _new(l, n, restricted).collect_prefixes(depth)
            assert [_colors(members) for members, _, _ in cubes] == want, (n, depth)


@pytest.mark.parametrize("l,restricted,allow_equal", VARIANTS)
def test_seeded_subtrees_match_oracle(l, restricted, allow_equal):
    for n in (6, 13, 24):
        for d in range(1, 5):
            for members, banned, _ in _new(l, n, restricted).collect_prefixes(d):
                prefix = _colors(members)
                old = _old(l, n, restricted, allow_equal, 500)
                assert old.seed_prefix(prefix), (n, prefix)
                assert banned == [sum(1 << v for v, mask in enumerate(old.banned) if mask >> c & 1)
                                  for c in range(l)], (n, prefix)
                want = _result(old, lambda: old.run(d + 1, max(prefix)))
                new = _new(l, n, restricted, 500)
                assert _result(new, lambda: new.resume(members, banned)) == want, (n, prefix)


def test_public_entry_matches_oracle():
    for l, n, restricted in ((3, 13, False), (3, 14, False), (4, 43, False), (3, 60, True)):
        want = _outcome(_old(l, n, restricted, True))
        assert exists_valid_coloring(l, n, restricted) == want[1]


class TestBudgetPoll:
    """The node limit raises at max_nodes + 1; the deadline is read only at
    multiples of 2048 nodes, never before the first node."""

    def _cut(self, **budget):
        with pytest.raises(BudgetExhausted) as info:
            exists_valid_coloring(4, 45, **budget)
        return info.value.nodes

    def test_zero_nodes_raises_at_first_node(self):
        assert self._cut(max_nodes=0) == 1

    def test_node_limit_raises_one_past(self):
        assert self._cut(max_nodes=5000) == 5001

    def test_zero_seconds_raises_at_first_poll(self):
        assert self._cut(max_seconds=0) == 2048

    def test_cut_survives_pickling(self):
        cut = pickle.loads(pickle.dumps(BudgetExhausted(42)))
        assert (cut.nodes, str(cut)) == (42, "search budget exhausted after 42 nodes")

    def test_zero_seconds_schur_number(self):
        result = schur_number(4, max_seconds=0)
        assert (result.status, result.W, result.stats.nodes) == ("lower_bound", 39, 7642)


class TestParallelNodes:
    def test_refutation_counts_every_node(self, monkeypatch):
        seq = _new(3, 14, False)
        assert seq.run(1, -1) is None
        with ProcessPoolExecutor(max_workers=2) as pool:
            for depth in (3, 5):
                monkeypatch.setattr(schur_search, "SPLIT_DEPTH", depth)
                assert schur_search._exists_parallel(3, 14, False, pool) == (None, seq.nodes)

    def test_witness_cube_total_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 4)
        seq = _new(3, 13, False)
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = schur_search._exists_parallel(3, 13, False, pool)
            again = schur_search._exists_parallel(3, 13, False, pool)
        assert first == again == (seq.run(1, -1), seq.nodes)

    def test_schur_number_reports_worker_nodes(self, monkeypatch):
        seq = schur_number(3)
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 5)
        par = schur_number(3, threads=2)
        assert (par.W, par.S, par.witness_coloring) == (seq.W, seq.S, seq.witness_coloring)
        assert par.stats.nodes == seq.stats.nodes

    def test_schur_number_reuses_one_pool(self, monkeypatch):
        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 4)
        seq = schur_number(3)
        par = schur_number(3, threads=2)
        assert built == [{"max_workers": 2}]
        assert (par.W, par.S, par.witness_coloring) == (seq.W, seq.S, seq.witness_coloring)
        # A witnessed n counts the prefix nodes up to its cube's leaf only.
        assert (seq.stats.nodes, par.stats.nodes) == (397, 397)


class TestTwinReuse:
    """A restricted case where the kernel reuses the node count of a
    refuted twin subtree instead of walking it again; the outcome, node
    count and budget cut must still be the oracle's.  No fast witness
    follows a reuse: up to n = 111 none is needed, and n = 112 takes about
    1.4 * 10^11 counted nodes."""

    CASES = [(3, 112, True)]
    BUDGETS = (1_000, 4_096, 20_000, 77_777, 200_000)

    @pytest.mark.parametrize("l,n,allow_equal", CASES)
    def test_matches_oracle(self, l, n, allow_equal):
        for max_nodes in self.BUDGETS:
            want = _outcome(_old(l, n, True, allow_equal, max_nodes))
            assert _outcome(_new(l, n, True, max_nodes)) == want, max_nodes

    @pytest.mark.parametrize("l,n,allow_equal", CASES)
    def test_reuse_skips_the_walk(self, monkeypatch, l, n, allow_equal):
        calls = []
        extend = schur_search._Searcher._extend

        def counting(self, v, max_used):
            calls.append(v)
            return extend(self, v, max_used)

        monkeypatch.setattr(schur_search._Searcher, "_extend", counting)
        searcher = _new(l, n, True, 200_000)
        with suppress(BudgetExhausted):
            searcher.run(1, -1)
        assert len(calls) < searcher.nodes / 10

    def test_low_integers_are_their_own_partners(self):
        # A twin bans nothing, so it needs v > n/2: each v <= n/2 pairs with itself in v + v = 2v.
        for n in range(1, 201):
            for restricted in (False, True):
                levels = _new(3, n, restricted).levels
                assert all(levels[v][0] >> v & 1 for v in range(1, n // 2 + 1)), (n, restricted)

    def test_deadline_stops_on_a_poll_point(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExhausted) as info:
            exists_valid_coloring(3, 112, True, max_seconds=0.3)
        assert time.perf_counter() - start < 2
        assert info.value.nodes % 2048 == 0

    def _at(self, nodes, max_nodes=None, max_seconds=None):
        searcher = schur_search._Searcher(3, 112, True, max_nodes, max_seconds)
        searcher.nodes = nodes
        searcher._poll(nodes)
        return searcher

    def test_reuse_step_passing_the_node_limit(self):
        searcher = self._at(5, max_nodes=10)
        searcher._reuse(5)
        assert searcher.nodes == 10
        with pytest.raises(BudgetExhausted) as info:
            searcher._reuse(100)
        assert info.value.nodes == searcher.nodes == 11

    def test_reuse_step_reads_the_clock_at_its_first_multiple_of_2048(self):
        searcher = self._at(100, max_seconds=0)
        with pytest.raises(BudgetExhausted) as info:
            searcher._reuse(10**6)
        assert info.value.nodes == searcher.nodes == 2048
        searcher = self._at(100, max_seconds=60)
        searcher._reuse(10**6)
        assert (searcher.nodes, searcher.poll_at) == (10**6 + 100, 489 * 2048)

    @pytest.mark.parametrize("max_seconds, cut", [(0, 2048), (60, 5001)])
    def test_reuse_step_reads_the_clock_before_the_node_limit(self, max_seconds, cut):
        # One step past both a multiple of 2048 and the node limit: a spent
        # deadline stops at the multiple, a live one at max_nodes + 1.
        searcher = self._at(100, max_nodes=5000, max_seconds=max_seconds)
        with pytest.raises(BudgetExhausted) as info:
            searcher._reuse(10**6)
        assert info.value.nodes == searcher.nodes == cut
