"""The bitset search kernel against the pair-table kernel it replaced.

`oracle_search.py` keeps the old kernel verbatim.  Over a deterministic
sweep both must give the same first witness, the same node count, the
same budget cut, the same prefix lists and the same seeded subtrees,
because the branching order and the pruning are unchanged.
"""

import concurrent.futures
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import product as iproduct

import pytest

import oracle_search
from schurdiv import schur_search
from schurdiv.schur_search import BudgetExhausted, exists_valid_coloring, schur_number

VARIANTS = [
    (l, restricted, allow_equal)
    for l in range(1, 5)
    for restricted in (False, True)
    for allow_equal in (True, False)
]

SPLIT_DEPTHS = (1, 3, 5, 8)


def _heavy(l, n, restricted, allow_equal):
    """Exact classical 4-color searches from n = 44 on take 10^6 nodes or more."""
    return l == 4 and not restricted and allow_equal and n >= 44


def _old(l, n, restricted, allow_equal, max_nodes=None):
    return oracle_search._Searcher(l, n, restricted, allow_equal, oracle_search._Budget(max_nodes, None))


def _new(l, n, restricted, allow_equal, max_nodes=None):
    return schur_search._Searcher(l, n, restricted, allow_equal, max_nodes)


def _outcome(kernel, l, n, restricted, allow_equal, max_nodes, seed=()):
    searcher = kernel(l, n, restricted, allow_equal, max_nodes)
    if seed:
        if not searcher.seed_prefix(seed):
            return ("conflict", searcher.nodes)
        start, max_used = len(seed) + 1, max(seed)
    else:
        start, max_used = 1, -1
    try:
        witness = searcher.run(start, max_used)
    except BudgetExhausted as exc:
        assert exc.nodes == searcher.nodes
        return ("budget", exc.nodes)
    return ("done", witness, searcher.nodes)


def _symmetric_prefixes(l, d):
    """Every coloring of 1..d that opens its colors in index order."""
    for prefix in iproduct(range(l), repeat=d):
        if all(c <= max(prefix[:i], default=-1) + 1 for i, c in enumerate(prefix)):
            yield prefix


@pytest.mark.parametrize("l,restricted,allow_equal", VARIANTS)
def test_search_matches_oracle(l, restricted, allow_equal):
    for n in range(1, 51):
        budgets = (37, 20_000) if _heavy(l, n, restricted, allow_equal) else (None, 37)
        for max_nodes in budgets:
            want = _outcome(_old, l, n, restricted, allow_equal, max_nodes)
            got = _outcome(_new, l, n, restricted, allow_equal, max_nodes)
            assert got == want, (n, max_nodes)


@pytest.mark.parametrize("l,restricted,allow_equal", VARIANTS)
def test_collect_prefixes_match_oracle(l, restricted, allow_equal):
    for n in (9, 20, 45):
        for depth in SPLIT_DEPTHS:
            want = _old(l, n, restricted, allow_equal).collect_prefixes(depth)
            assert _new(l, n, restricted, allow_equal).collect_prefixes(depth) == want, (n, depth)


@pytest.mark.parametrize("l,restricted,allow_equal", VARIANTS)
def test_seeded_subtrees_match_oracle(l, restricted, allow_equal):
    for n in (6, 13, 24):
        for d in range(1, 5):
            for prefix in _symmetric_prefixes(l, d):
                want = _outcome(_old, l, n, restricted, allow_equal, 500, prefix)
                got = _outcome(_new, l, n, restricted, allow_equal, 500, prefix)
                assert got == want, (n, prefix)


def test_seed_rejects_broken_symmetry():
    def seeded(prefix):
        searcher = _new(3, 10, False, True)
        return searcher.seed_prefix(prefix), searcher.nodes

    assert seeded((1, 0)) == (False, 0)
    assert seeded((0, 1)) == (True, 0)


def test_public_entry_matches_oracle():
    for l, n, restricted in ((3, 13, False), (3, 14, False), (4, 43, False), (3, 60, True)):
        want = _outcome(_old, l, n, restricted, True, None)
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

    def test_zero_seconds_schur_number(self):
        result = schur_number(4, max_seconds=0)
        assert (result.status, result.W, result.stats.nodes) == ("lower_bound", 39, 7642)


class TestParallelNodes:
    def test_refutation_counts_every_node(self):
        seq = _new(3, 14, False, True)
        assert seq.run(1, -1) is None
        with ProcessPoolExecutor(max_workers=2) as pool:
            for depth in (3, 5):
                assert schur_search._exists_parallel(3, 14, False, True, depth, pool) == (None, seq.nodes)

    def test_witness_cube_total_is_deterministic(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = schur_search._exists_parallel(3, 13, False, True, 4, pool)
            again = schur_search._exists_parallel(3, 13, False, True, 4, pool)
        assert first == again
        assert first[0] == exists_valid_coloring(3, 13)

    def test_schur_number_reports_worker_nodes(self, monkeypatch):
        seq = schur_number(3)
        monkeypatch.setattr(schur_search, "SPLIT_DEPTH", 5)
        par = schur_number(3, threads=2)
        assert (par.W, par.S, par.witness_coloring) == (seq.W, seq.S, seq.witness_coloring)
        assert par.stats.nodes >= seq.stats.nodes

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
        # The total of a fresh pool per n.  It exceeds the single-process
        # 397 because the prefix enumeration of each witnessed n also
        # visits the prefixes after the witness cube.
        assert (seq.stats.nodes, par.stats.nodes) == (397, 449)
