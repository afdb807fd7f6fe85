"""Exact Schur-style numbers by depth-first search with bitset propagation.

The monochromatic patterns to avoid are x + y = z with x <= y (x = y
included), optionally strengthened by x | y.  `_triples` is their one
definition, in (z, x) order, and a restricted z only tries its divisors
up to z/2 (x | y iff x | z).  `forbidden_triples`, `validate_coloring`,
the solver's pair table and `ramsey.direct_schur_div_search` all read
it.  The solver assigns colors to 1, 2, 3, ... in natural order, keeping
per color c two bitsets over 1..n: members[c], and banned[c], the
integers c would complete a forbidden triple on.  Assigning v to c ORs
`(members[c] & pairs[v]) << v` into banned[c]; the branch dies, before
anything is written, once a new ban hits an integer every other color
bans.  Undo restores banned[c] and members[c].  Used and new colors,
with new bans or none, prefix enumeration and the search all run this
one step (bitwise backtracking, Knuth TAOCP 7.2.2).

Twin subtrees are counted, not walked.  Every v <= n/2 is its own
partner (v + v = 2v), so a color bans nothing at v only when v > n/2,
where no later pair reads v.  All colors that ban nothing there leave
the same future; once the first is refuted after N nodes, each later one
adds its own node plus N.  The new color is never one of them: while a
color is unopened, putting all of v+1..n in it is valid (any two sum
past n), so no twin is refuted.  `nodes` counts the plain walk, so a
timed restricted run can report over 10^10.  Prefix recording turns
this off.

Symmetry breaking: integer 1 always takes color 0, and a new color index
may only be used once all smaller indices appear.  The first witness
found under this fixed branching order is deterministic.

W(l) is the largest n admitting a valid coloring and S(l) = W(l) + 1 the
least n forcing a monochromatic triple; `schur_number` reports exact
values only when the search both produced a witness for W and exhausted
the tree for W + 1.  Node and wall-clock budgets, and the recursion
limit, turn into a lower_bound status, never an error.

Optional multi-process search splits the tree into cubes, the subtrees
below each viable coloring of 1..SPLIT_DEPTH.  A worker starts a cube
from the members, bans and node count the prefix enumeration recorded;
counted in walk order, a threaded search reports the single-process
witness and nodes.  `schur_number` keeps one process pool for all n, at
most one worker per CPU.  A search with a node or wall-clock budget runs
in one process, where the budget is polled exactly.
`concurrent.futures` is imported by `_process_pool` on the first
threaded call, so a single-process run never loads multiprocessing.

The cache is keyed by the whole problem (l, restricted) and keeps per
key only what decides it: the largest witness and the least refutation.
A save re-reads the file, so runs sharing it keep each other's entries.
Witnesses read back are revalidated; a cached refutation above the best
witness is trusted, and one at or below a witnessed n is rejected with
`CacheError`.  An entry marked as written for x < y belongs to another
problem: it is never read, checked or rewritten.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext, suppress
from math import isfinite, isqrt
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "BudgetExhausted",
    "CACHE_VERSION",
    "CacheError",
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

SPLIT_DEPTH = 8


class ForbiddenTriple(NamedTuple):
    x: int
    y: int
    z: int
    restricted: bool


class BudgetExhausted(Exception):
    """Search stopped by a node or wall-clock budget."""

    def __init__(self, nodes: int):
        super().__init__(nodes)  # the only argument, so a pickled copy is rebuilt from it
        self.nodes = nodes

    def __str__(self) -> str:
        return f"search budget exhausted after {self.nodes} nodes"


class CacheError(RuntimeError):
    """A cache entry that fails its re-check: a witness that is not a
    valid coloring, or a refutation contradicted by a witness."""


def _triples(n: int, restricted: bool) -> Iterator[tuple[int, int, int]]:
    """Every (x, y, z) with x + y = z <= n and x <= y, in (z, x) order.
    Restricted triples also need x | y, that is x | z: x runs over the
    divisors d <= sqrt(z), then z/d for 1 < d < z/d."""
    for z in range(2, n + 1):
        if restricted:
            small = [d for d in range(1, isqrt(z) + 1) if z % d == 0]
            xs = small + [z // d for d in reversed(small) if 1 < d < z // d]
        else:
            xs = range(1, z // 2 + 1)
        for x in xs:
            yield x, z - x, z


def forbidden_triples(n: int, restricted: bool) -> list[ForbiddenTriple]:
    """All triples x + y = z with x <= y <= z <= n to avoid monochromatically,
    restricted ones additionally demanding x | y; sorted by (z, x)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return [ForbiddenTriple(x, y, z, restricted) for x, y, z in _triples(n, restricted)]


def validate_coloring(colors: Sequence[int], restricted: bool) -> list[ForbiddenTriple]:
    """Monochromatic forbidden triples under `colors` (index i colors i+1)."""
    return [ForbiddenTriple(x, y, z, restricted) for x, y, z in _triples(len(colors), restricted)
            if colors[x - 1] == colors[y - 1] == colors[z - 1]]


class _Searcher:
    """One depth-first search over colorings of {1..n} with l colors.

    `_extend` holds the only assign/undo step, for used and new colors
    alike.  It searches to `depth`, stopping at the first leaf, or
    recording each leaf's state while `prefixes` is a list; `resume`
    searches on from such a state.  A node tests its new bans against the
    other colors, lowest first, before it writes.  `levels[v]` is
    (pairs[v], 1 << v).  Budgets are polled only at node count `poll_at`,
    reached by a node or a reused twin subtree: the deadline is read there
    if it is a multiple of 2048, then the node limit raises at max_nodes + 1."""

    __slots__ = ("l", "n", "members", "banned", "colors", "others", "levels", "nodes",
                 "depth", "prefixes", "max_nodes", "deadline", "poll_at")

    def __init__(self, l: int, n: int, restricted: bool, max_nodes: int | None = None,
                 max_seconds: float | None = None):
        self.l = l
        self.n = n
        # pairs[y]: bit x for each forbidden (x, y, x + y); x <= y, so bans land above y.
        pairs = [0] * (n + 1)
        for x, y, _ in _triples(n, restricted):
            pairs[y] |= 1 << x
        self.levels = [(p, 1 << v) for v, p in enumerate(pairs)]
        self.members = [0] * l
        self.banned = [0] * l
        # colors[max_used + 1]: the colors in use and the next new one; others[c]: every other color.
        self.colors = [range(min(k + 1, l)) for k in range(l + 1)]
        self.others = [[d for d in range(l) if d != c] for c in range(l)]
        self.nodes = 0
        self.depth = n
        self.prefixes = None
        self.max_nodes = max_nodes
        self.deadline = None if max_seconds is None else time.perf_counter() + max_seconds
        self.poll_at = 1

    def _poll(self, nodes: int) -> None:
        """Called once the count reaches `poll_at`, by one node or a reused subtree."""
        if self.deadline is not None and self.poll_at % 2048 == 0 and time.perf_counter() > self.deadline:
            self.nodes = self.poll_at
            raise BudgetExhausted(self.nodes)
        at = sys.maxsize
        if self.max_nodes is not None:
            if nodes > self.max_nodes:
                self.nodes = self.max_nodes + 1
                raise BudgetExhausted(self.nodes)
            at = self.max_nodes + 1
        if self.deadline is not None:
            at = min(at, (nodes // 2048 + 1) * 2048)
        self.poll_at = at

    def _reuse(self, count: int) -> None:
        """Count a refuted twin subtree in one step, polled like a single node."""
        nodes = self.nodes + count
        if nodes >= self.poll_at:
            self._poll(nodes)
        self.nodes = nodes

    def coloring(self) -> list[int]:
        """Colors of the integers assigned so far, from 1 upwards."""
        colors = [0] * max(self.members).bit_length()
        for c, m in enumerate(self.members):
            while m:
                low = m & -m
                colors[low.bit_length() - 1] = c
                m ^= low
        return colors[1:]

    def collect_prefixes(self, depth: int) -> list[tuple[list[int], list[int], int]]:
        """The state at each viable coloring of 1..depth, in walk order:
        copies of `members` and `banned`, and `nodes` on reaching it."""
        self.depth, self.prefixes = depth, []
        self.run(1, -1)
        prefixes, self.depth, self.prefixes = self.prefixes, self.n, None
        return prefixes

    def resume(self, members: list[int], banned: list[int]) -> list[int] | None:
        """Search on from a state `collect_prefixes` recorded: its depth is
        its highest member, and max_used its highest color with a member."""
        self.members, self.banned = members, banned
        return self.run(max(members).bit_length(), max(c for c, m in enumerate(members) if m))

    def run(self, start_v: int, max_used: int) -> list[int] | None:
        try:
            found = self._extend(start_v, max_used)
        except RecursionError:  # one frame per integer: a search too deep stops as if cut by a budget
            raise BudgetExhausted(self.nodes) from None
        return self.coloring() if found else None

    def _extend(self, v: int, max_used: int) -> bool:
        if v > self.depth:
            if self.prefixes is None:
                return True
            self.prefixes.append((self.members[:], self.banned[:], self.nodes))
            return False
        banned = self.banned
        members = self.members
        pairs_v, bit = self.levels[v]
        twin = None
        for c in self.colors[max_used + 1]:
            b = banned[c]
            if b & bit:
                continue
            nodes = self.nodes + 1
            self.nodes = nodes
            if nodes >= self.poll_at:
                self._poll(nodes)
            m = members[c] | bit
            hits = (m & pairs_v) << v
            if hits:
                # New bans land above v and no integer was fully banned before,
                # so the node is dead iff they meet every other color's bans.
                dead = hits
                for d in self.others[c]:
                    dead &= banned[d]
                    if not dead:
                        break
                else:
                    continue
            elif twin is not None:
                # A twin: the first one's refutation counts for the rest.
                self._reuse(twin)
                continue
            members[c] = m
            banned[c] = b | hits
            if self._extend(v + 1, c if c > max_used else max_used):
                return True
            if not hits and self.prefixes is None:  # a recorded leaf returns False, which refutes nothing
                twin = self.nodes - nodes
            members[c], banned[c] = m ^ bit, b
        return False


def _cube_worker(args) -> tuple[list[int] | None, int]:
    l, n, restricted, members, banned = args
    searcher = _Searcher(l, n, restricted)
    return searcher.resume(members, banned), searcher.nodes


def exists_valid_coloring(
    l: int,
    n: int,
    restricted: bool = False,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    threads: int = 1,
) -> list[int] | None:
    """A coloring of {1..n} with no monochromatic forbidden triple, or None
    once the whole tree is exhausted.  Raises BudgetExhausted if a budget
    or the recursion limit cuts the search before either outcome."""
    _check_problem(l, "n", n, max_nodes, max_seconds, threads)
    with _process_pool(threads) as pool:
        return _exists(l, n, restricted, max_nodes, max_seconds, pool)[0]


def _check_problem(l: int, n_name: str, n: int | None, max_nodes: int | None, max_seconds: float | None,
                   threads: int) -> None:
    """Reject counts below their least value and seconds below 0 or not finite; None is unbounded."""
    for name, value, least in (("color count", l, 1), (n_name, n, 1), ("max_nodes", max_nodes, 0),
                               ("threads", threads, 1)):
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if max_seconds is not None and not (isfinite(max_seconds) and max_seconds >= 0):
        raise ValueError(f"max_seconds must be finite and >= 0, got {max_seconds}")


def _process_pool(threads: int):
    """A context manager yielding a process pool, or None when threads <= 1.
    The pool has one worker per CPU at most, however many threads are asked
    for: a fork-based pool starts all its workers at the first submit."""
    if threads <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=min(threads, os.cpu_count() or 1))


def _exists(l, n, restricted, max_nodes, max_seconds, pool):
    """The first witness, or None on refutation, and the nodes searched.
    With a process pool, an unbudgeted n above SPLIT_DEPTH is split into
    cubes; a budgeted search runs here, where the budget is polled exactly."""
    if pool is not None and n > SPLIT_DEPTH and max_nodes is None and max_seconds is None:
        return _exists_parallel(l, n, restricted, pool)
    searcher = _Searcher(l, n, restricted, max_nodes, max_seconds)
    return searcher.run(1, -1), searcher.nodes


def _exists_parallel(l: int, n: int, restricted: bool, pool) -> tuple[list[int] | None, int]:
    """Search each cube in a pool worker from its recorded state.  The
    one-process walk visits the prefix nodes up to cube i's leaf, then cube
    i: so a witness or a cut (the recursion limit) in cube i counts `at` of
    that leaf plus cubes 0..i, a refutation the whole enumeration plus all
    cubes.  Returning closes `results`, which cancels the pending cubes."""
    base = _Searcher(l, n, restricted)
    cubes = base.collect_prefixes(SPLIT_DEPTH)
    results = pool.map(_cube_worker, [(l, n, restricted, members, banned) for members, banned, _ in cubes])
    nodes = 0  # the nodes of the cubes before cube i
    try:
        for _, _, at in cubes:
            try:
                witness, cube_nodes = next(results)
            except BudgetExhausted as cut:
                raise BudgetExhausted(at + nodes + cut.nodes) from None
            nodes += cube_nodes
            if witness is not None:
                return witness, at + nodes
    finally:
        results.close()
    return None, base.nodes + nodes


class SearchStats(NamedTuple):
    nodes: int
    wall_time: float


class SearchResult(NamedTuple):
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
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    max_n: int | None = None,
    threads: int = 1,
    cache_path: str | None = None,
) -> SearchResult:
    """Largest W with a valid coloring of {1..W}; exact S = W + 1 only when
    {1..W+1} was refuted.  Budgets or max_n produce status="lower_bound".

    With a cache path, the search resumes from the largest witness and the
    least refutation cached for (l, restricted), once every
    witness of that key revalidates (else CacheError).  It then leaves just
    those two, cached or new, as the key's entries: a witness for {1..n}
    covers every smaller n, a refutation of n every larger one.
    """
    _check_problem(l, "max_n", max_n, max_nodes, max_seconds, threads)
    start = time.perf_counter()
    deadline = None if max_seconds is None else start + max_seconds
    nodes_total = 0

    key = (l, bool(restricted))
    cache = None if cache_path is None else load_search_cache(cache_path)
    W, witness, refuted_at = (0, [], None) if cache is None else _cache_best(cache, cache_path, key)

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
                found, nodes = _exists(l, n, restricted, node_room, remaining, pool)
                nodes_total += nodes
            except BudgetExhausted as exc:
                nodes_total += exc.nodes
                break
            if found is None:
                status, refuted_at = "exact", n
                break
            W, witness = n, found
            n += 1

    if cache is not None:
        _merge_into_cache(cache_path, key, W, witness, refuted_at)
    wall = time.perf_counter() - start
    return SearchResult(
        colors=l,
        restricted=restricted,
        status=status,
        W=W,
        S=W + 1 if status == "exact" else None,
        witness_coloring=list(witness),
        stats=SearchStats(nodes=nodes_total, wall_time=wall),
    )


# --- persistent cache -------------------------------------------------------

def load_search_cache(path: str) -> dict:
    """Versioned JSON cache; a missing file is an empty cache.  A file that
    is not a JSON object of the right version raises ValueError, an entry
    that is not an object CacheError."""
    if not os.path.exists(path):
        return {"version": CACHE_VERSION, "entries": []}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cache = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"cache {path} is not valid JSON: {exc}") from None
    if not isinstance(cache, dict):
        raise ValueError(f"cache {path} is not a JSON object")
    if cache.get("version") != CACHE_VERSION:
        raise ValueError(f"cache {path} has version {cache.get('version')}, expected {CACHE_VERSION}")
    if not isinstance(cache.get("entries"), list):
        raise ValueError(f"cache {path} is missing its entries list")
    for index, entry in enumerate(cache["entries"]):
        if not isinstance(entry, dict):
            raise CacheError(f"cache {path}: entry {index} is not an object")
    return cache


def save_search_cache(path: str, cache: dict) -> None:
    """Write through a temporary file named for this process, so that
    concurrent writers never share one, then rename it over `path`.  A
    failed write removes its temporary file and leaves `path` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _merge_into_cache(path: str, key: tuple, W: int, witness: list[int], refuted_at: int | None) -> None:
    """Save a run's evidence for `key` into the cache file as it is now: entries other runs saved
    survive, and the key keeps the best witness and refutation of both, revalidated."""
    cache = load_search_cache(path)
    W, witness, refuted_at = _cache_best(cache, path, key, (W, witness, refuted_at))
    # Keep a cached entry, and its timestamp, where it is still the best.
    old = {(e["n"], e.get("status")): e for e in cache["entries"] if _entry_key(e) == key}
    cache["entries"] = [e for e in cache["entries"] if _entry_key(e) != key] + [
        old.get((at, verdict)) or _cache_entry(key, at, coloring, verdict)
        for at, coloring, verdict in ((W, witness, "valid"), (refuted_at, None, "refuted")) if at
    ]
    save_search_cache(path, cache)


def _entry_key(entry: dict) -> tuple | None:
    """(l, restricted), or None for an entry marked "allow_equal": false: it was
    written for x < y, another problem, so it matches no key of this search."""
    if not entry.get("allow_equal", True):
        return None
    return entry.get("l"), bool(entry.get("restricted"))


def _cache_best(cache: dict, path: str, key: tuple, run=(0, [], None)) -> tuple[int, list[int], int | None]:
    """The largest witness and the least refutation for `key`, cached or
    found by the run.  Raises CacheError, naming the entry, for a witness
    that does not revalidate or a refutation at or below a witnessed n."""
    best_n, best_coloring, refuted = run
    refuted_index = None
    for index, entry in enumerate(cache["entries"]):
        if _entry_key(entry) != key:
            continue
        n, status = entry.get("n"), entry.get("status")
        fault = None
        if type(n) is not int or n < 1:
            fault = "n is not a positive integer"
        elif status == "valid":
            fault = _witness_fault(entry.get("coloring"), n, *key)
        if fault is not None:
            raise CacheError(f"cache {path}: entry {index} ({key[0]} colors, n={n!r}, {status}): {fault}")
        if status == "valid" and n > best_n:
            best_n, best_coloring = n, list(entry["coloring"])
        if status == "refuted" and (refuted is None or n < refuted):
            refuted, refuted_index = n, index
    if refuted is not None and refuted <= best_n:
        where = "the run's refutation" if refuted_index is None else f"entry {refuted_index}"
        raise CacheError(
            f"cache {path}: {where} ({key[0]} colors, n={refuted}, refuted) "
            f"contradicts the cached witness at n={best_n}"
        )
    return best_n, best_coloring, refuted


def _witness_fault(coloring, n: int, l: int, restricted: bool) -> str | None:
    if not isinstance(coloring, list) or len(coloring) != n:
        return f"the coloring does not have length {n}"
    if not all(type(c) is int and 0 <= c < l for c in coloring):
        return f"the coloring uses colors outside 0..{l - 1}"
    hits = validate_coloring(coloring, restricted)
    if hits:
        x, y, z, _ = hits[0]
        return f"the coloring makes {x} + {y} = {z} monochromatic"
    return None


def _cache_entry(key: tuple, n: int, coloring: list[int] | None, status: str) -> dict:
    return dict(zip(("l", "restricted"), key), n=n, coloring=coloring, status=status,
                timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
