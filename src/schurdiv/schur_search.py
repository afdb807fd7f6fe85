"""Exact Schur-style numbers by depth-first search with bitset propagation.

`forbidden_triples` enumerates the monochromatic patterns to avoid:
x + y = z with x <= y, optionally strengthened by x | y.  The solver
assigns colors to 1, 2, 3, ... in natural order, keeping per color c two
bitsets over 1..n: members[c], and banned[c], the integers c would
complete a forbidden triple on.  Assigning v to c ORs
`(members[c] & pairs[v]) << v` into banned[c]; the branch dies once all
banned sets share a bit.  Undo restores banned[c] and clears bit v of
members[c].  Seeding a prefix, enumerating prefixes and the search all
run this one step (bitwise backtracking, Knuth TAOCP 7.2.2).

Symmetry breaking: integer 1 always takes color 0, and a new color index
may only be used once all smaller indices appear.  The first witness
found under this fixed branching order is deterministic.

W(l) is the largest n admitting a valid coloring and S(l) = W(l) + 1 the
least n forcing a monochromatic triple; `schur_number` reports exact
values only when the search both produced a witness for W and exhausted
the tree for W + 1.  Node and wall-clock budgets turn into a lower_bound
status, never an error.

Optional multi-process search splits the tree at a fixed prefix depth;
every subtree must be exhausted for a refutation, so exact results and
node counts are independent of scheduling.  `schur_number` keeps one
process pool for all n it searches.  A search with a node or wall-clock
budget runs in one process, where the budget is polled exactly.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial, reduce
from operator import and_
from typing import NamedTuple, Sequence

__all__ = [
    "BudgetExhausted",
    "CACHE_VERSION",
    "ForbiddenTriple",
    "SearchResult",
    "SearchStats",
    "exists_valid_coloring",
    "forbidden_triples",
    "load_search_cache",
    "save_search_cache",
    "schur_number",
    "validate_coloring",
]

CACHE_VERSION = 1

DEFAULT_SPLIT_DEPTH = 8


class ForbiddenTriple(NamedTuple):
    x: int
    y: int
    z: int
    restricted: bool


class BudgetExhausted(Exception):
    """Search stopped by a node or wall-clock budget."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


def forbidden_triples(n: int, restricted: bool, allow_equal: bool = True) -> list[ForbiddenTriple]:
    """All triples x + y = z with x <= y <= z <= n to avoid monochromatically,
    restricted ones additionally demanding x | y; sorted by (z, x)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    out = []
    for z in range(2, n + 1):
        for x in range(1, z // 2 + 1):
            y = z - x
            if restricted and y % x:
                continue
            if not allow_equal and x == y:
                continue
            out.append(ForbiddenTriple(x, y, z, restricted))
    return out


def validate_coloring(
    colors: Sequence[int], restricted: bool, allow_equal: bool = True
) -> list[ForbiddenTriple]:
    """Monochromatic forbidden triples under `colors` (index i colors i+1)."""
    n = len(colors)
    if n < 2:
        return []
    hits = []
    for t in forbidden_triples(n, restricted, allow_equal):
        if colors[t.x - 1] == colors[t.y - 1] == colors[t.z - 1]:
            hits.append(t)
    return hits


class _Searcher:
    """One depth-first search over colorings of {1..n} with l colors.

    `_extend` holds the only assign/undo step.  It searches to `depth`,
    stopping at the first leaf, or recording leaves while `prefixes` is a
    list.  Budgets are polled only at node count `poll_at`: the node limit
    raises at max_nodes + 1, the deadline is read every 2048 nodes."""

    __slots__ = ("l", "n", "pairs", "members", "banned", "all_banned", "choices", "nodes",
                 "depth", "prefixes", "max_nodes", "deadline", "poll_at")

    def __init__(self, l: int, n: int, restricted: bool, allow_equal: bool,
                 max_nodes: int | None = None, max_seconds: float | None = None):
        self.l = l
        self.n = n
        # pairs[v]: bit x for each x <= min(v, n - v) with (x, v, x + v) forbidden.
        self.pairs = [
            sum(1 << x for x in range(1, min(v, n - v) + 1)
                if (not restricted or v % x == 0) and (allow_equal or x != v))
            for v in range(n + 1)
        ]
        self.members = [0] * l
        self.banned = [0] * l
        self.all_banned = partial(reduce, and_, self.banned)  # integers left no color
        # choices[max_used + 1]: colors open to the next integer.
        self.choices = [range(min(k, l - 1) + 1) for k in range(l + 1)]
        self.nodes = 0
        self.depth = n
        self.prefixes = None
        self.max_nodes = max_nodes
        self.deadline = None if max_seconds is None else time.perf_counter() + max_seconds
        self.poll_at = 1

    def _poll(self, nodes: int) -> None:
        at = sys.maxsize
        if self.max_nodes is not None:
            if nodes > self.max_nodes:
                raise BudgetExhausted(nodes)
            at = self.max_nodes + 1
        if self.deadline is not None:
            if nodes % 2048 == 0 and time.perf_counter() > self.deadline:
                raise BudgetExhausted(nodes)
            at = min(at, (nodes // 2048 + 1) * 2048)
        self.poll_at = at

    def coloring(self) -> list[int]:
        """Colors of the integers assigned so far, from 1 upwards."""
        colors = [0] * max(self.members).bit_length()
        for c, m in enumerate(self.members):
            while m:
                low = m & -m
                colors[low.bit_length() - 1] = c
                m ^= low
        return colors[1:]

    def seed_prefix(self, prefix: Sequence[int]) -> bool:
        """Install a partial coloring of 1..len(prefix); False on conflict or
        when it breaks the symmetry rule.  Banning every other color on the
        prefix makes `_extend` walk straight down it, uncounted."""
        for d in range(self.l):
            self.banned[d] |= sum(1 << v for v, c in enumerate(prefix, start=1) if c != d)
        saved = self.nodes, self.poll_at
        self.depth, self.poll_at = len(prefix), sys.maxsize
        ok = self._extend(1, -1)
        self.depth, (self.nodes, self.poll_at) = self.n, saved
        return ok

    def collect_prefixes(self, depth: int) -> list[tuple[int, ...]]:
        """All viable partial colorings of 1..depth under the branching rules;
        their nodes count towards `nodes`."""
        self.depth, self.prefixes = depth, []
        self._extend(1, -1)
        prefixes, self.depth, self.prefixes = self.prefixes, self.n, None
        return prefixes

    def run(self, start_v: int, max_used: int) -> list[int] | None:
        return self.coloring() if self._extend(start_v, max_used) else None

    def _extend(self, v: int, max_used: int) -> bool:
        if v > self.depth:
            if self.prefixes is None:
                return True
            self.prefixes.append(tuple(self.coloring()))
            return False
        banned = self.banned
        members = self.members
        all_banned = self.all_banned
        pairs_v = self.pairs[v]
        bit = 1 << v
        for c in self.choices[max_used + 1]:
            b = banned[c]
            if b & bit:
                continue
            nodes = self.nodes + 1
            self.nodes = nodes
            if nodes >= self.poll_at:
                self._poll(nodes)
            # New bans land above v only and no integer was fully banned
            # before, so the branch is dead iff all banned sets now meet.
            m = members[c] | bit
            members[c] = m
            hits = m & pairs_v
            if hits:
                banned[c] = b | hits << v
                if not all_banned() and self._extend(v + 1, max_used if c <= max_used else c):
                    return True
                banned[c] = b
            elif self._extend(v + 1, max_used if c <= max_used else c):
                return True
            members[c] = m ^ bit
        return False


def _subtree_worker(args) -> tuple[list[int] | None, int]:
    l, n, restricted, allow_equal, prefix = args
    searcher = _Searcher(l, n, restricted, allow_equal)
    if not searcher.seed_prefix(prefix):
        return None, 0
    return searcher.run(len(prefix) + 1, max(prefix)), searcher.nodes


def exists_valid_coloring(
    l: int,
    n: int,
    restricted: bool = False,
    *,
    allow_equal: bool = True,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    threads: int = 1,
    split_depth: int = DEFAULT_SPLIT_DEPTH,
) -> list[int] | None:
    """A coloring of {1..n} with no monochromatic forbidden triple, or None
    once the whole tree is exhausted.  Raises BudgetExhausted if a budget
    cuts the search before either outcome."""
    if l < 1:
        raise ValueError(f"color count must be >= 1, got {l}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    with _process_pool(threads) as pool:
        return _exists(l, n, restricted, allow_equal, max_nodes, max_seconds, split_depth, pool)[0]


def _process_pool(threads: int):
    """A context manager yielding a pool of `threads` workers, or None
    when threads <= 1.  The pool starts no process before its first cube."""
    return ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()


def _exists(l, n, restricted, allow_equal, max_nodes, max_seconds, split_depth, pool):
    """The first witness, or None on refutation, and the nodes searched.
    With a process pool, an unbudgeted n above split_depth is split into
    cubes; a budgeted search runs here, where the budget is polled exactly."""
    if pool is not None and n > split_depth and max_nodes is None and max_seconds is None:
        return _exists_parallel(l, n, restricted, allow_equal, split_depth, pool)
    searcher = _Searcher(l, n, restricted, allow_equal, max_nodes, max_seconds)
    return searcher.run(1, -1), searcher.nodes


def _exists_parallel(
    l: int, n: int, restricted: bool, allow_equal: bool, split_depth: int, pool: ProcessPoolExecutor
) -> tuple[list[int] | None, int]:
    """Search each prefix of 1..split_depth (a cube) in a pool worker.
    Returns the first witness in prefix order and the nodes of the prefix
    enumeration plus those of every cube up to the witness's: independent
    of scheduling, and the single-process count for a refutation.  Cubes
    still pending once the witness is in are cancelled."""
    base = _Searcher(l, n, restricted, allow_equal)
    prefixes = base.collect_prefixes(split_depth)
    nodes = base.nodes
    cubes = [pool.submit(_subtree_worker, (l, n, restricted, allow_equal, prefix)) for prefix in prefixes]
    try:
        for cube in cubes:
            witness, cube_nodes = cube.result()
            nodes += cube_nodes
            if witness is not None:
                return witness, nodes
    finally:
        for cube in cubes:
            cube.cancel()
    return None, nodes


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    wall_time: float


@dataclass(frozen=True)
class SearchResult:
    colors: int
    restricted: bool
    status: str  # "exact" | "lower_bound"
    W: int
    S: int | None
    witness_coloring: list[int] | None
    stats: SearchStats


def schur_number(
    l: int,
    restricted: bool = False,
    *,
    allow_equal: bool = True,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    max_n: int | None = None,
    threads: int = 1,
    split_depth: int = DEFAULT_SPLIT_DEPTH,
    cache_path: str | None = None,
) -> SearchResult:
    """Largest W with a valid coloring of {1..W}; exact S = W + 1 only when
    {1..W+1} was refuted.  Budgets or max_n produce status="lower_bound".

    With a cache path, previously proven witnesses and refutations for the
    same (l, restricted) pair are reused and new ones recorded.  Cached
    entries assume the default triple convention, so a non-default
    allow_equal bypasses the cache.
    """
    start = time.perf_counter()
    deadline = None if max_seconds is None else start + max_seconds
    nodes_total = 0

    cache = None
    use_cache = cache_path is not None and allow_equal
    if use_cache:
        cache = load_search_cache(cache_path)

    W, witness = 0, []
    refuted_at: int | None = None
    if cache is not None:
        W, witness, refuted_at = _cache_best(cache, l, restricted)

    status = "lower_bound"
    n = W + 1
    with _process_pool(threads) as pool:
        while True:
            if refuted_at is not None and n >= refuted_at:
                status = "exact"
                break
            if max_n is not None and n > max_n:
                break
            remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
            node_room = None if max_nodes is None else max_nodes - nodes_total
            if node_room is not None and node_room <= 0:
                break
            try:
                found, nodes = _exists(
                    l, n, restricted, allow_equal, node_room, remaining, split_depth, pool
                )
                nodes_total += nodes
            except BudgetExhausted as exc:
                nodes_total += exc.nodes
                break
            if found is None:
                status = "exact"
                if cache is not None:
                    _cache_record(cache, l, restricted, n, None, "refuted")
                break
            W, witness = n, found
            if cache is not None:
                _cache_record(cache, l, restricted, n, found, "valid")
            n += 1

    if use_cache:
        save_search_cache(cache_path, cache)
    wall = time.perf_counter() - start
    return SearchResult(
        colors=l,
        restricted=restricted,
        status=status,
        W=W,
        S=W + 1 if status == "exact" else None,
        witness_coloring=list(witness) if witness or W == 0 else None,
        stats=SearchStats(nodes=nodes_total, wall_time=wall),
    )


# --- persistent cache -------------------------------------------------------

def load_search_cache(path: str) -> dict:
    """Versioned JSON cache; a missing file is an empty cache."""
    if not os.path.exists(path):
        return {"version": CACHE_VERSION, "entries": []}
    with open(path, "r", encoding="utf-8") as fh:
        cache = json.load(fh)
    if cache.get("version") != CACHE_VERSION:
        raise ValueError(f"cache {path} has version {cache.get('version')}, expected {CACHE_VERSION}")
    if not isinstance(cache.get("entries"), list):
        raise ValueError(f"cache {path} is missing its entries list")
    return cache


def save_search_cache(path: str, cache: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cache, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _cache_best(cache: dict, l: int, restricted: bool) -> tuple[int, list[int], int | None]:
    best_n, best_coloring = 0, []
    refuted: int | None = None
    for entry in cache["entries"]:
        if entry.get("l") != l or bool(entry.get("restricted")) != restricted:
            continue
        n = entry.get("n")
        if entry.get("status") == "valid" and n > best_n:
            best_n, best_coloring = n, list(entry.get("coloring") or [])
        if entry.get("status") == "refuted" and (refuted is None or n < refuted):
            refuted = n
    return best_n, best_coloring, refuted


def _cache_record(cache: dict, l: int, restricted: bool, n: int, coloring, status: str) -> None:
    for entry in cache["entries"]:
        if (
            entry.get("l") == l
            and bool(entry.get("restricted")) == restricted
            and entry.get("n") == n
            and entry.get("status") == status
        ):
            return
    cache["entries"].append(
        {
            "l": l,
            "restricted": restricted,
            "n": n,
            "coloring": list(coloring) if coloring is not None else None,
            "status": status,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    )
