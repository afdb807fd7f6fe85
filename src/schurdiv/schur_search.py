"""Exact Schur-style numbers by depth-first search with bitset propagation.

The monochromatic patterns to avoid are x + y = z with x <= y (x = y
included), optionally strengthened by x | y.  `_triples` is their one
definition, in (z, x) order, and a restricted z only tries its divisors
up to z/2 (x | y iff x | z).  `forbidden_triples`, `validate_coloring`,
the solver's pair table and `ramsey.direct_schur_div_search` all read
it.  The solver assigns colors to 1, 2, 3, ... in natural order, keeping
per color c two bitsets over 1..n: its members m_c, and its bans b_c,
the integers c would complete a forbidden triple on.  Assigning v to c
gives the child b_c | ((m_c | 1 << v) & pairs[v]) << v; the branch dies
once a new ban hits an integer every other color bans.  `_walk(l)`
generates the walk for l colors from source, at the first search for l:
its color loop is unrolled and every m_c and b_c is an argument, so a
step writes nothing and undoes nothing.  Used and new colors, with new
bans or none, prefix enumeration and the search all run this one step
(bitwise backtracking, Knuth TAOCP 7.2.2).

Twin subtrees are counted, not walked.  Every v <= n/2 is its own
partner (v + v = 2v), so a color bans nothing at v only when v > n/2,
where no later pair reads v.  All colors that ban nothing there leave
the same future; once the first is refuted after N nodes, each later one
adds its own node plus N.  The new color is never one of them: while a
color is unopened, putting all of v+1..n in it is valid (any two sum
past n), so no twin is refuted.  `nodes` counts the plain walk, so a
timed restricted run can report over 10^10.  Prefix recording turns
this off.

Symmetry breaking: integer 1 always takes color 0, and color c > 0 is
tried only once color c - 1 holds an integer.  The first witness found
under this fixed branching order is deterministic.

W(l) is the largest n admitting a valid coloring and S(l) = W(l) + 1 the
least n forcing a monochromatic triple; `schur_number` reports exact
values only when it both found a witness for W and exhausted W + 1.  It
climbs n on one `_Searcher`, whose `grow` adds each new z's pairs: one
node count and one poll grid span the run.  Node and wall-clock budgets,
and the recursion limit, turn into a lower_bound status, never an error.

Optional multi-process search splits the tree into cubes, the subtrees
below each viable coloring of 1..SPLIT_DEPTH.  Cube 0 is the walk's own
first subtree, searched on the run's searcher as one process does; only
if it refutes are the cubes enumerated, and a worker starts each later
one from the members, bans and node count recorded there, so a threaded
search reports the single-process witness and nodes.  `_map` runs them
in a pool of `_workers(threads)` processes that closes with the n.  A
search with one worker or a budget (polled exactly) runs in one process.
Only `_map` imports `concurrent.futures`, when it opens a pool.

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
import time
from contextlib import closing, suppress
from functools import lru_cache
from math import inf, isqrt
from typing import Iterator, NamedTuple, Sequence

from .primes import _check_int

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


def _triples(n: int, restricted: bool, start: int = 2) -> Iterator[tuple[int, int, int]]:
    """Every (x, y, z) with x + y = z <= n, z >= start and x <= y, in (z, x) order.
    Restricted triples also need x | y, that is x | z: x runs over the
    divisors d <= sqrt(z), then z/d for 1 < d < z/d."""
    for z in range(max(start, 2), n + 1):
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
    _check_int("n", n, 2)
    return [ForbiddenTriple(x, y, z, restricted) for x, y, z in _triples(n, restricted)]


def validate_coloring(colors: Sequence[int], restricted: bool) -> list[ForbiddenTriple]:
    """Monochromatic forbidden triples under `colors` (index i colors i+1)."""
    return [ForbiddenTriple(x, y, z, restricted) for x, y, z in _triples(len(colors), restricted)
            if colors[x - 1] == colors[y - 1] == colors[z - 1]]


class _Searcher:
    """Depth-first searches over colorings of {1..n} with l colors, one n
    after another: `grow(n)` moves to a larger n.  Its state is the
    members and bans of each color, len(members) of them.  `run()`
    continues from it with the walk `_walk(l)`, the only assign step, to
    `depth`: it stops at the first leaf, whose state it leaves in `members`
    and `banned`, or records each leaf's state while `prefixes` is a list.
    `levels[v]` is (pairs[v], 1 << v).  A node and a reused twin subtree
    take one step: add to `nodes`, then poll once it reaches `poll_at`,
    the next multiple of 2048 or max_nodes + 1.  The count, the budgets
    and so this poll grid serve every n of a run.  Every search, budgeted
    or not, polls there: the `deadline`, a perf_counter reading, is read
    at a multiple of 2048, then the node limit raises at max_nodes + 1.
    A limit left None is inf."""

    __slots__ = ("n", "restricted", "members", "banned", "levels", "nodes", "depth", "prefixes",
                 "max_nodes", "deadline", "poll_at")

    def __init__(self, l: int, n: int, restricted: bool, max_nodes: int | None = None,
                 deadline: float | None = None):
        self.n, self.restricted, self.levels, self.members = 0, restricted, [], [0] * l
        self.nodes, self.prefixes, self.poll_at = 0, None, 1
        self.max_nodes = inf if max_nodes is None else max_nodes
        self.deadline = inf if deadline is None else deadline
        self.grow(n)

    def grow(self, n: int) -> None:
        """Extend the pair table to n by the triples whose z is new, and
        clear the coloring.  pairs[y] has bit x for each forbidden
        (x, y, x + y); x <= y, so bans land above y."""
        levels = self.levels
        levels += [(0, 1 << v) for v in range(len(levels), n + 1)]
        for x, y, _ in _triples(n, self.restricted, self.n + 1):
            pairs, bit = levels[y]
            levels[y] = (pairs | 1 << x, bit)
        self.n = self.depth = n
        self.members, self.banned = [0] * len(self.members), [0] * len(self.members)

    def _poll(self, nodes: int) -> None:
        """Called once the count reaches `poll_at`, by one node or a reused subtree."""
        if self.poll_at % 2048 == 0 and time.perf_counter() > self.deadline:
            self.nodes = self.poll_at
            raise BudgetExhausted(self.nodes)
        if nodes > self.max_nodes:
            self.nodes = self.max_nodes + 1
            raise BudgetExhausted(self.nodes)
        self.poll_at = min(self.max_nodes + 1, (nodes // 2048 + 1) * 2048)

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
        `members` and `banned` as lists, and `nodes` on reaching it."""
        self.depth, self.prefixes = depth, []
        self.run()
        prefixes, self.depth, self.prefixes = self.prefixes, self.n, None
        return prefixes

    def resume(self, members: list[int], banned: list[int]) -> list[int] | None:
        """Load a state `collect_prefixes` recorded and search on from it."""
        self.members, self.banned = members, banned
        return self.run()

    def run(self) -> list[int] | None:
        try:
            found = _walk(len(self.members))(self, max(self.members).bit_length() or 1,
                                             *self.members, *self.banned)
        except RecursionError:  # one frame per integer: a search too deep stops as if cut by a budget
            raise BudgetExhausted(self.nodes) from None
        return self.coloring() if found else None


@lru_cache(maxsize=None)
def _walk(l: int):
    """The search walk for l colors, compiled from source built from the
    integer l alone, as `collections.namedtuple` builds its methods.
    walk(s, v, m0..m{l-1}, b0..b{l-1}) colors v onwards for the _Searcher
    s.  Color c is tried iff v is not in b_c and, for c > 0, m_{c-1} is
    not 0; its new bans `hits` land above v, where no integer was fully
    banned, so it is dead iff `hits & b_d & ...` over every other d is not 0."""
    ms = [f"m{c}" for c in range(l)]
    bs = [f"b{c}" for c in range(l)]
    source = f"""def walk(s, v, {', '.join(ms + bs)}):
    if v > s.depth:
        if s.prefixes is None:
            s.members, s.banned = [{', '.join(ms)}], [{', '.join(bs)}]
            return True
        s.prefixes.append(([{', '.join(ms)}], [{', '.join(bs)}], s.nodes))
        return False
    pairs_v, bit = s.levels[v]
    twin = None
"""
    for c in range(l):
        child = ", ".join(ms[:c] + ["m"] + ms[c + 1:] + bs[:c] + [f"b{c} | hits"] + bs[c + 1:])
        source += f"""    if {f'm{c - 1} and ' if c else ''}not b{c} & bit:
        nodes = s.nodes + 1
        s.nodes = nodes
        if nodes >= s.poll_at:
            s._poll(nodes)
        m = m{c} | bit
        hits = (m & pairs_v) << v
        if hits or twin is None:
            if not {' & '.join(['hits'] + bs[:c] + bs[c + 1:])}:
                if walk(s, v + 1, {child}):
                    return True
                if not hits and s.prefixes is None:  # a recorded leaf refutes nothing
                    twin = s.nodes - nodes
        else:  # a twin: the first one's refutation counts for the rest
            nodes += twin
            s.nodes = nodes
            if nodes >= s.poll_at:
                s._poll(nodes)
"""
    namespace = {}
    exec(compile(source + "    return False\n", f"<schur walk, {l} colors>", "exec"), namespace)
    return namespace["walk"]


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
    deadline = None if max_seconds is None else time.perf_counter() + max_seconds
    return _exists(_Searcher(l, n, restricted, max_nodes, deadline), threads)


def _check_problem(l: int, n_name: str, n: int | None, max_nodes: int | None, max_seconds: float | None,
                   threads: int) -> None:
    """Counts are ints >= their least value, seconds a finite int or float >= 0 (no bool); None: no limit."""
    for name, value, least in (("color count", l, 1), (n_name, n, 1), ("max_nodes", max_nodes, 0),
                               ("threads", threads, 1)):
        if value is not None:
            _check_int(name, value, least)
    if max_seconds is not None and not (type(max_seconds) in (int, float) and 0 <= max_seconds < inf):
        raise ValueError(f"max_seconds must be a finite number >= 0, got {max_seconds!r}")


def _workers(threads: int) -> int:
    """One worker per CPU at most, however many threads are asked for: a fork-based pool starts all
    its workers at the first submit, and a scan cuts its blocks for the workers.  At one, no pool."""
    return min(threads, os.cpu_count() or 1)


def _map(fn, items, threads: int):
    """`fn` over `items` in order: in this process for one worker, else in a pool of `_workers(threads)`
    processes living as long as the iterator.  Closing it cancels the items not started, awaits the rest."""
    if _workers(threads) <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=_workers(threads)) as pool:
        yield from pool.map(fn, items)


def _exists(searcher: _Searcher, threads: int) -> list[int] | None:
    """The first witness for the searcher's n, or None on refutation.  A budgeted search, or one
    with one worker or at n <= SPLIT_DEPTH, runs here alone.  Otherwise cube 0 runs here as in one
    process: the walk to its root, the first leaf at depth SPLIT_DEPTH, then on to depth n.  Only
    if it refutes are the cubes enumerated from the n's start, and cubes 1.. run in a pool shut down
    before this returns.  In walk order, a witness or a cut (the recursion limit) in cube i leaves
    `searcher.nodes` at `at` of its leaf plus cubes 0..i, a refutation at all prefixes and cubes."""
    if _workers(threads) <= 1 or searcher.n <= SPLIT_DEPTH or searcher.max_nodes != inf or searcher.deadline != inf:
        return searcher.run()
    start, searcher.depth = searcher.nodes, SPLIT_DEPTH
    if searcher.run() is None:
        return None
    root, searcher.depth = searcher.nodes, searcher.n
    witness = searcher.run()
    if witness is not None:
        return witness
    nodes = searcher.nodes - root  # the nodes of the cubes before cube i
    searcher.grow(searcher.n)
    searcher.nodes = start
    cubes = searcher.collect_prefixes(SPLIT_DEPTH)[1:]
    end = searcher.nodes
    work = [(len(searcher.members), searcher.n, searcher.restricted, members, banned) for members, banned, _ in cubes]
    with closing(_map(_cube_worker, work, threads)) as results:  # closed on return: the pool shuts down
        for _, _, at in cubes:
            try:
                witness, cube_nodes = next(results)
            except BudgetExhausted as cut:
                searcher.nodes = at + nodes + cut.nodes
                raise BudgetExhausted(searcher.nodes) from None
            nodes += cube_nodes
            if witness is not None:
                searcher.nodes = at + nodes
                return witness
    searcher.nodes = end + nodes
    return None


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
    {1..W+1} was refuted.  A budget cut, or max_n reached before a refutation, gives "lower_bound".

    With a cache path, the search resumes from the largest witness and the least refutation
    cached for (l, restricted), once every witness of that key revalidates (else CacheError):
    max_n bounds the n searched, not that evidence, so W and an exact S may lie above it.  It
    then leaves just those two, cached or new, as the key's entries: a witness for {1..n}
    covers every smaller n, a refutation of n every larger one.
    """
    _check_problem(l, "max_n", max_n, max_nodes, max_seconds, threads)
    start = time.perf_counter()
    deadline = None if max_seconds is None else start + max_seconds

    key = (l, bool(restricted))
    cache = None if cache_path is None else load_search_cache(cache_path)
    W, witness, refuted_at = (0, [], None) if cache is None else _cache_best(cache, cache_path, key)

    n, searcher = W + 1, _Searcher(l, 0, restricted, max_nodes, deadline)
    while n != refuted_at and (max_n is None or n <= max_n):
        searcher.grow(n)
        try:
            found = _exists(searcher, threads)
        except BudgetExhausted:
            break
        if found is None:
            refuted_at = n
        else:
            W, witness, n = n, found, n + 1
    status = "exact" if refuted_at == W + 1 else "lower_bound"

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
        stats=SearchStats(nodes=searcher.nodes, wall_time=wall),
    )


# --- persistent cache -------------------------------------------------------

def load_search_cache(path: str) -> dict:
    """Versioned JSON cache; a missing file is an empty cache, a missing
    directory an OSError.  A file that is not a JSON object of the right
    version raises ValueError, an entry that is not an object CacheError."""
    if not os.path.exists(path):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"cache {path}: its directory does not exist")
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
