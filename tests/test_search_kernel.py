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
allow_equal = True.  Five colors run under budgets only, and so do six
and seven, which the sweep reaches only through resumed cubes: the
kernel's walk is generated per color count, so each count is code of
its own, and a color opens only once the color before it holds an
integer.  A new color bans 2v at most, and no pair of integers below v
bans 2v, so below the split depth its death test fires only with one
color: the l = 1 cases guard it.
"""

import concurrent.futures
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from contextlib import suppress
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import oracle_search
from schurdiv import scan_primes, schur_search
from schurdiv.schur_search import BudgetExhausted, exists_valid_coloring, schur_number

# (l, restricted, allow_equal): allow_equal is the oracle's, always True.
VARIANTS = [(l, restricted, True) for l in range(1, 6) for restricted in (False, True)]
# Six and seven colors resume cubes whose states hold several unopened colors.
UNSWEPT = [(l, restricted, True) for l in (6, 7) for restricted in (False, True)]

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
    # The oracle's run still takes its start: integer 1, with no color used yet.
    start = (1, -1) if isinstance(searcher, oracle_search._Searcher) else ()
    return _result(searcher, lambda: searcher.run(*start))


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


@pytest.mark.parametrize("l,restricted,allow_equal", VARIANTS + UNSWEPT)
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


@pytest.mark.parametrize("l", [6, 7])
@pytest.mark.parametrize("restricted", [False, True])
def test_unswept_color_counts_match_oracle(l, restricted):
    # The walk is generated per color count: the sweep above compiles l = 1..5 only.
    for n in (1, 2, 13, 100, 160):
        for max_nodes in (37, 5_000):
            want = _outcome(_old(l, n, restricted, True, max_nodes))
            assert _outcome(_new(l, n, restricted, max_nodes)) == want, (n, max_nodes)
    for depth in (3, 8):
        want = _old(l, 20, restricted, True).collect_prefixes(depth)
        assert [_colors(members) for members, _, _ in _new(l, 20, restricted).collect_prefixes(depth)] == want


def test_import_compiles_no_walk():
    # A walk is compiled at the first search for its color count, never on import.
    src = str(Path(schur_search.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import schurdiv.cli, schurdiv.schur_search as s; print(s._walk.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


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
        # One poll grid per run: the clock is read at the run's 2048th node.
        result = schur_number(4, max_seconds=0)
        assert (result.status, result.W, result.stats.nodes) == ("lower_bound", 29, 2048)

    def test_zero_seconds_stops_a_climb_of_cheap_n(self):
        # No single n of this climb reaches 2048 nodes, so a grid per n never read the clock.
        start = time.perf_counter()
        result = schur_number(5, True, max_seconds=0)
        assert (result.status, result.stats.nodes) == ("lower_bound", 2048)
        assert time.perf_counter() - start < 2

    def test_unbudgeted_search_polls_every_2048_nodes(self, monkeypatch):
        # Without a budget there is nothing to cut, but the poll points stay:
        # node 1, then each multiple of 2048 the count reaches.
        poll, polled = schur_search._Searcher._poll, []

        def record(searcher, nodes):
            polled.append(searcher.poll_at)
            poll(searcher, nodes)

        monkeypatch.setattr(schur_search._Searcher, "_poll", record)
        searcher = _new(4, 44, False)
        assert searcher.run() is not None
        assert searcher.nodes == 1_074_932
        assert len(polled) == 525
        assert polled[0] == 1 and all(at % 2048 == 0 for at in polled[1:])


class TestParallelNodes:
    def test_refutation_counts_every_node(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seq = _new(3, 14, False)
        assert seq.run() is None
        for depth in (3, 5):
            monkeypatch.setattr(schur_search, "SPLIT_DEPTH", depth)
            searcher = _new(3, 14, False)
            assert schur_search._exists(searcher, 2) is None
            assert searcher.nodes == seq.nodes

    def test_counts_continue_the_run(self, monkeypatch):
        # The prefixes are enumerated on the run's searcher, so every `at` is a count within the run.
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seq = _new(3, 14, False)
        assert seq.run() is None
        searcher = _new(3, 13, False)
        assert searcher.run() is not None
        before = searcher.nodes
        searcher.grow(14)
        assert schur_search._exists(searcher, 2) is None
        assert searcher.nodes == before + seq.nodes

    def test_witness_cube_total_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seq = _new(3, 13, False)
        searchers = _new(3, 13, False), _new(3, 13, False)
        first, again = (schur_search._exists(searcher, 2) for searcher in searchers)
        assert first == again == seq.run()
        assert searchers[0].nodes == searchers[1].nodes == seq.nodes

    def test_schur_number_reports_worker_nodes(self, monkeypatch):
        seq = schur_number(3)
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 5)
        par = schur_number(3, threads=2)
        assert (par.W, par.S, par.witness_coloring) == (seq.W, seq.S, seq.witness_coloring)
        assert par.stats.nodes == seq.stats.nodes

    def test_schur_number_opens_one_pool_per_split_n(self, monkeypatch):
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
        # n = 13 (its witness past cube 0) and n = 14 (refuted) are split; each opens its own pool.
        assert built == [{"max_workers": 2}, {"max_workers": 2}]
        assert (par.W, par.S, par.witness_coloring) == (seq.W, seq.S, seq.witness_coloring)
        # A witnessed n counts the prefix nodes up to its cube's leaf only.
        assert (seq.stats.nodes, par.stats.nodes) == (397, 397)

    @pytest.fixture
    def mapped(self, monkeypatch):
        """The n of each pool.map call: cube 0 runs in the caller, so only an
        n that cube 0 refutes reaches the pool."""
        calls = []

        class RecordingPool(ProcessPoolExecutor):
            def map(self, fn, work, **kwargs):
                calls.append({args[1] for args in work})
                return super().map(fn, work, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return calls

    @pytest.mark.parametrize("l,restricted,max_n,nodes", [(4, False, 43, 20_112), (3, True, 111, 6_812)])
    def test_witness_in_cube_0_starts_no_worker(self, mapped, l, restricted, max_n, nodes):
        seq = schur_number(l, restricted, max_n=max_n)
        par = schur_number(l, restricted, max_n=max_n, threads=2)
        assert mapped == []
        assert (par.W, par.witness_coloring, par.stats.nodes) == (seq.W, seq.witness_coloring, seq.stats.nodes)
        assert (par.W, par.stats.nodes) == (max_n, nodes)

    @pytest.mark.parametrize("l,restricted,max_n,nodes", [(3, True, 111, 6_812), (5, True, 200, 20_561)])
    def test_cube_0_decides_without_enumerating(self, monkeypatch, mapped, l, restricted, max_n, nodes):
        # Cube 0 is the walk's own first subtree: the cubes are enumerated only once it refutes.
        enumerated = []
        collect = schur_search._Searcher.collect_prefixes
        monkeypatch.setattr(schur_search._Searcher, "collect_prefixes",
                            lambda searcher, depth: enumerated.append(searcher.n) or collect(searcher, depth))
        seq = schur_number(l, restricted, max_n=max_n)
        par = schur_number(l, restricted, max_n=max_n, threads=2)
        assert (enumerated, mapped) == ([], [])
        assert (par.W, par.witness_coloring, par.stats.nodes) == (seq.W, seq.witness_coloring, seq.stats.nodes)
        assert (par.W, par.stats.nodes) == (max_n, nodes)

    @pytest.mark.parametrize("l,restricted,ns", [(l, restricted, range(9, 41)) for l, restricted, _ in VARIANTS]
                             + [(4, False, [44])])
    def test_threaded_exists_is_the_single_process_search(self, mapped, l, restricted, ns):
        # Cubes past cube 0 reach the pool for l = 3 from n = 13 (a witness there, refutations from
        # 14) and for l = 4 at n = 44, whose witness lies in cube 6 after 1,074,932 nodes.  Cube 0
        # refutes the restricted l = 2 from n = 12 too, but has no cube after it.
        for n in ns:
            searcher, seq = _new(l, n, restricted), _new(l, n, restricted)
            assert (schur_search._exists(searcher, 2), searcher.nodes) == (seq.run(), seq.nodes), n
            assert multiprocessing.active_children() == [], n  # a split n's pool is shut down on return
        want = list(range(13, 41)) if (l, restricted) == (3, False) else [44] if 44 in ns else []
        assert [n for cubes in mapped for n in cubes] == want

    def test_only_a_refuted_cube_0_reaches_the_pool(self, mapped):
        par = schur_number(4, max_n=44, threads=2)
        assert mapped == [{44}]
        assert (par.W, par.stats.nodes) == (44, 1_095_044)

    def test_one_worker_never_gets_a_pool(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was built for one worker")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        seq, par = schur_number(3), schur_number(3, threads=2)
        assert (par.W, par.S, par.witness_coloring) == (seq.W, seq.S, seq.witness_coloring)
        assert (seq.stats.nodes, par.stats.nodes) == (397, 397)
        assert scan_primes(3, 2, 2, 10**4, threads=2) == scan_primes(3, 2, 2, 10**4)

    def test_no_cubes_is_a_refutation(self):
        assert exists_valid_coloring(1, 9, threads=2) is None


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
    def test_reuse_skips_the_walk(self, l, n, allow_equal):
        # The walk is compiled per color count, so its frames are counted
        # as profiler call events for its code object.
        walk = schur_search._walk(l).__code__
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is walk

        searcher = _new(l, n, True, 200_000)
        sys.setprofile(profile)
        try:
            with suppress(BudgetExhausted):
                searcher.run()
        finally:
            sys.setprofile(None)
        assert 0 < calls < searcher.nodes / 10

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
        deadline = None if max_seconds is None else time.perf_counter() + max_seconds
        searcher = schur_search._Searcher(3, 112, True, max_nodes, deadline)
        searcher.nodes = nodes
        searcher._poll(nodes)
        return searcher

    @staticmethod
    def _step(searcher, count):
        # The walk's count step, taken by a node (count 1) and a reused twin subtree alike.
        nodes = searcher.nodes + count
        searcher.nodes = nodes
        if nodes >= searcher.poll_at:
            searcher._poll(nodes)

    def test_reuse_step_passing_the_node_limit(self):
        searcher = self._at(5, max_nodes=10)
        self._step(searcher, 5)
        assert searcher.nodes == 10
        with pytest.raises(BudgetExhausted) as info:
            self._step(searcher, 100)
        assert info.value.nodes == searcher.nodes == 11

    def test_reuse_step_reads_the_clock_at_its_first_multiple_of_2048(self):
        searcher = self._at(100, max_seconds=0)
        with pytest.raises(BudgetExhausted) as info:
            self._step(searcher, 10**6)
        assert info.value.nodes == searcher.nodes == 2048
        searcher = self._at(100, max_seconds=60)
        self._step(searcher, 10**6)
        assert (searcher.nodes, searcher.poll_at) == (10**6 + 100, 489 * 2048)

    @pytest.mark.parametrize("max_seconds, cut", [(0, 2048), (60, 5001)])
    def test_reuse_step_reads_the_clock_before_the_node_limit(self, max_seconds, cut):
        # One step past both a multiple of 2048 and the node limit: a spent
        # deadline stops at the multiple, a live one at max_nodes + 1.
        searcher = self._at(100, max_nodes=5000, max_seconds=max_seconds)
        with pytest.raises(BudgetExhausted) as info:
            self._step(searcher, 10**6)
        assert info.value.nodes == searcher.nodes == cut


class TestOneSearcherPerRun:
    """`schur_number` grows one searcher through every n: its pair table,
    node count and poll grid live for the whole run, and every W,
    witness and node count is that of a fresh search per n."""

    @pytest.mark.parametrize("restricted", [False, True])
    def test_grown_table_is_the_fresh_one(self, restricted):
        # Searched at n < 14 too: grow also clears the coloring a search left.
        grown = _new(3, 1, restricted)
        for n in range(2, 201):
            if n < 14:
                assert grown.run() is not None
            grown.grow(n)
            fresh = _new(3, n, restricted)
            assert grown.levels == fresh.levels, n
            assert (grown.n, grown.depth, grown.members, grown.banned) == (n, n, [0] * 3, [0] * 3)

    @staticmethod
    def _fresh_climb(l, restricted, max_n, max_nodes):
        """The climb with a fresh searcher per n, each given the budget the n before it left."""
        W, witness, total = 0, [], 0
        for n in range(1, max_n + 1):
            searcher = _new(l, n, restricted, None if max_nodes is None else max_nodes - total)
            try:
                found = searcher.run()
            except BudgetExhausted:
                return W, witness, total + searcher.nodes
            total += searcher.nodes
            if found is None:
                break
            W, witness = n, found
        return W, witness, total

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_run_is_the_sum_of_fresh_searches(self, l, restricted):
        for max_n, max_nodes in ((40, None), (200, 37), (200, 5_000), (200, 30_000)):
            run = schur_number(l, restricted, max_n=max_n, max_nodes=max_nodes)
            want = self._fresh_climb(l, restricted, max_n, max_nodes)
            assert (run.W, run.witness_coloring, run.stats.nodes) == want, (max_n, max_nodes)

    @pytest.mark.parametrize("budget", [{}, {"threads": 2}, {"max_nodes": 5_000, "threads": 2}, {"max_seconds": 0}])
    def test_schur_number_builds_one_searcher(self, monkeypatch, budget):
        # Cube 0 of a threaded n runs on the run's searcher too; only pool workers build their own.
        built = []

        class Counting(schur_search._Searcher):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[:3])
                super().__init__(*args)

        monkeypatch.setattr(schur_search, "_Searcher", Counting)
        schur_number(3, **budget)
        assert built == [(3, 0, False)]
