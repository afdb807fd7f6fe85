"""The search kernel schurdiv shipped before its bitset rewrite, kept only
as a differential oracle: a pair table per integer, a banned-colour mask
per integer, and a trail of the bans each assignment made.  The classes
below are that kernel verbatim; `test_search_kernel.py` checks the
current kernel against them node for node."""

from __future__ import annotations

import time
from typing import Sequence

from schurdiv.schur_search import BudgetExhausted


def _pair_table(n: int, restricted: bool, allow_equal: bool) -> list[tuple[tuple[int, int], ...]]:
    """table[v] lists (x, z) with x <= v, x + v = z <= n, filtered by the rule;
    coloring v monochromatically with such an x bans that color on z."""
    table: list[tuple[tuple[int, int], ...]] = [()] * (n + 1)
    for v in range(1, n + 1):
        pairs = []
        for x in range(1, min(v, n - v) + 1):
            if restricted and v % x:
                continue
            if not allow_equal and x == v:
                continue
            pairs.append((x, x + v))
        table[v] = tuple(pairs)
    return table


class _Budget:
    __slots__ = ("max_nodes", "deadline")

    def __init__(self, max_nodes: int | None, max_seconds: float | None):
        self.max_nodes = max_nodes
        self.deadline = None if max_seconds is None else time.perf_counter() + max_seconds

    def check(self, nodes: int) -> None:
        if self.max_nodes is not None and nodes > self.max_nodes:
            raise BudgetExhausted(nodes)
        if self.deadline is not None and nodes % 2048 == 0 and time.perf_counter() > self.deadline:
            raise BudgetExhausted(nodes)


class _Searcher:
    """One depth-first search over colorings of {1..n} with l colors."""

    def __init__(self, l: int, n: int, restricted: bool, allow_equal: bool, budget: _Budget):
        self.l = l
        self.n = n
        self.table = _pair_table(n, restricted, allow_equal)
        self.budget = budget
        self.full_mask = (1 << l) - 1
        self.color = [-1] * (n + 1)
        self.banned = [0] * (n + 1)
        self.nodes = 0

    def seed_prefix(self, prefix: Sequence[int]) -> bool:
        """Install a partial coloring of 1..len(prefix); False on conflict."""
        for v, c in enumerate(prefix, start=1):
            if self.banned[v] >> c & 1:
                return False
            self.color[v] = c
            for x, z in self.table[v]:
                if self.color[x] == c:
                    self.banned[z] |= 1 << c
                    if self.banned[z] == self.full_mask:
                        return False
        return True

    def run(self, start_v: int, max_used: int) -> list[int] | None:
        if self._extend(start_v, max_used):
            return self.color[1 : self.n + 1]
        return None

    def _extend(self, v: int, max_used: int) -> bool:
        if v > self.n:
            return True
        color = self.color
        banned = self.banned
        table_v = self.table[v]
        full = self.full_mask
        cap = max_used + 1
        if cap > self.l - 1:
            cap = self.l - 1
        bmask = banned[v]
        for c in range(cap + 1):
            if bmask >> c & 1:
                continue
            self.nodes += 1
            self.budget.check(self.nodes)
            color[v] = c
            bit = 1 << c
            trail = []
            dead = False
            for x, z in table_v:
                if color[x] == c and not banned[z] & bit:
                    banned[z] |= bit
                    trail.append(z)
                    if banned[z] == full:
                        dead = True
                        break
            if not dead and self._extend(v + 1, max_used if c <= max_used else c):
                return True
            for z in trail:
                banned[z] ^= bit
        color[v] = -1
        return False

    def collect_prefixes(self, depth: int) -> list[tuple[int, ...]]:
        """All viable partial colorings of 1..depth under the branching rules."""
        out: list[tuple[int, ...]] = []

        def walk(v: int, max_used: int) -> None:
            if v > depth:
                out.append(tuple(self.color[1 : depth + 1]))
                return
            color = self.color
            banned = self.banned
            cap = min(max_used + 1, self.l - 1)
            bmask = banned[v]
            for c in range(cap + 1):
                if bmask >> c & 1:
                    continue
                color[v] = c
                bit = 1 << c
                trail = []
                dead = False
                for x, z in self.table[v]:
                    if color[x] == c and not banned[z] & bit:
                        banned[z] |= bit
                        trail.append(z)
                        if banned[z] == self.full_mask:
                            dead = True
                            break
                if not dead:
                    walk(v + 1, max_used if c <= max_used else c)
                for z in trail:
                    banned[z] ^= bit
            color[v] = -1

        walk(1, -1)
        return out
