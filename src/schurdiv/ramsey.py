"""Monochromatic triangles and extraction of divisible sum triples.

Given an l-coloring of the positive integers, color the edge (i, j) of a
complete graph by the color of the block sum a(i) + ... + a(j-1) of the
factorial witness sequence.  On R(3,...,3) vertices some triangle
i < j < k is monochromatic, and its three block sums give x + y = z in
one color class with x | y, courtesy of the sequence's divisibility
chain.  The triangle search is plain brute force over vertex triples in
lexicographic order.  It colors an edge only when it first reaches it,
since 7 colors already need 13,701 vertices (93,851,850 edges).

Block sums grow past anything materializable almost immediately, so the
edge colors of a rule with a `modulus` m, 1 included, are evaluated mod m
by `interval_sum_mod`, and a sum that is 0 mod m takes the color of m;
other rules fail at the first edge reached whose sum needs a term past the fifth.
Witness values are reported exactly when the triangle sits low enough,
and as (i, j) span descriptors otherwise.

`direct_schur_div_search` is the second, independent route: scan triples
(x, a*x, (a+1)*x) directly under the coloring in increasing z then x,
as `schur_search._triples` yields them, coloring z before x and y.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

from .coloring import Coloring, OutOfDomainError
from .primes import FactorizationBudgetError, _check_int
from .schur_search import _triples
from .sequences import (
    _EXACT_FACTORIAL_TERMS,
    FACTORIAL,
    EvaluationInfeasibleError,
    generate,
    interval_sum,
    interval_sum_mod,
)

__all__ = [
    "MonoTriangle",
    "R3Info",
    "SchurWitness",
    "direct_schur_div_search",
    "find_mono_triangle",
    "r3_value_or_bound",
    "witness_via_ramsey",
]

# Known triangle Ramsey numbers R(3,...,3) by color count.
_R3_EXACT = {1: 3, 2: 6, 3: 17}

# Terms of the factorial witness sequence that fit in memory.
_MATERIALIZABLE_TERMS = len(_EXACT_FACTORIAL_TERMS)


class R3Info(NamedTuple):
    colors: int
    vertices: int
    exact: bool


def r3_value_or_bound(l: int) -> R3Info:
    """Exact triangle Ramsey number for l <= 3; the recursive upper bound
    R(l) <= l*(R(l-1) - 1) + 2 beyond, flagged as a bound."""
    _check_int("color count", l, 1)
    if l in _R3_EXACT:
        return R3Info(l, _R3_EXACT[l], True)
    v = _R3_EXACT[3]
    for c in range(4, l + 1):
        v = c * (v - 1) + 2
    return R3Info(l, v, False)


class MonoTriangle(NamedTuple):
    i: int
    j: int
    k: int
    color: int


def find_mono_triangle(vertex_count: int, color: Callable[[int, int], int]) -> MonoTriangle | None:
    """Lexicographically smallest monochromatic triangle of K_vertex_count
    under the edge coloring color(i, j), i < j, or None.  Each edge is
    colored once, when the scan first reaches it, and the rest never."""
    _check_int("vertex_count", vertex_count, 0)
    color = lru_cache(maxsize=None)(color)
    for i, j, k in combinations(range(1, vertex_count + 1), 3):
        c = color(i, j)
        if color(i, k) == c and color(j, k) == c:
            return MonoTriangle(i, j, k, c)
    return None


class SchurWitness(NamedTuple):
    """A triple x + y = z with x | y, all three sharing `color`.

    Values are None when the triple is only expressible through block-sum
    spans of the witness sequence; the spans (i, j) meaning
    a(i) + ... + a(j-1) are always present for the Ramsey route.
    """

    x: int | None
    y: int | None
    z: int | None
    color: int
    quotient: int | None
    via: str
    x_span: tuple[int, int] | None = None
    y_span: tuple[int, int] | None = None
    z_span: tuple[int, int] | None = None
    triangle: tuple[int, int, int] | None = None
    r_vertices: int | None = None
    r_exact: bool | None = None

    @property
    def materialized(self) -> bool:
        return self.x is not None


def _edge_color_function(coloring: Coloring) -> Callable[[int, int], int]:
    """Color of the block sum a(i..j-1) as a function of the edge (i, j)."""
    m = coloring.modulus
    if m is not None:  # m is the least positive member of the class 0 mod m
        return lambda i, j: coloring.color_of(interval_sum_mod(i, j, m) or m)
    seq = generate(FACTORIAL, _MATERIALIZABLE_TERMS)

    def color(i: int, j: int) -> int:
        if j - 1 > _MATERIALIZABLE_TERMS:
            raise EvaluationInfeasibleError(
                f"coloring rule {type(coloring).__name__} cannot evaluate the block sum of "
                f"edge ({i}, {j}): it needs term {j - 1}; only modular rules reach that deep"
            )
        value = interval_sum(seq, i, j)
        try:
            return coloring.color_of(value)
        except (OutOfDomainError, FactorizationBudgetError) as exc:
            raise EvaluationInfeasibleError(
                f"coloring cannot evaluate the block sum {value}: {exc}"
            ) from exc

    return color


def witness_via_ramsey(coloring: Coloring) -> SchurWitness:
    """Monochromatic x + y = z with x | y, extracted from a triangle.

    num_colors colors need R(3,...,3) vertices; for more than 3 colors the
    recursive upper bound is used instead of an exact Ramsey number and the
    witness records that through r_exact=False.
    """
    info = r3_value_or_bound(coloring.num_colors)
    tri = find_mono_triangle(info.vertices, _edge_color_function(coloring))
    if tri is None:  # impossible below the Ramsey bound
        raise AssertionError(f"no monochromatic triangle on {info.vertices} vertices")
    i, j, k = tri.i, tri.j, tri.k
    x = y = z = quotient = None
    if k - 1 <= _MATERIALIZABLE_TERMS:
        seq = generate(FACTORIAL, k - 1)
        x, y, z = interval_sum(seq, i, j), interval_sum(seq, j, k), interval_sum(seq, i, k)
        if x + y != z or y % x:
            raise AssertionError(f"witness ({x},{y},{z}) violates its own structure")
        for value in (x, y, z):
            if coloring.color_of(value) != tri.color:
                raise AssertionError(f"block sum {value} re-colors off {tri.color}")
        quotient = y // x
    return SchurWitness(
        x=x, y=y, z=z, color=tri.color, quotient=quotient, via="ramsey-construction",
        x_span=(i, j), y_span=(j, k), z_span=(i, k),
        triangle=(i, j, k), r_vertices=info.vertices, r_exact=info.exact,
    )


def direct_schur_div_search(coloring: Coloring, n_max: int) -> SchurWitness | None:
    """First monochromatic (x, a*x, (a+1)*x) with z = (a+1)*x <= n_max,
    scanning in increasing z then increasing x; None if there is none."""
    _check_int("n_max", n_max, 1)
    color = lru_cache(maxsize=None)(coloring.color_of)
    for x, y, z in _triples(n_max, restricted=True):
        c = color(z)
        if color(x) == c and color(y) == c:
            return SchurWitness(x=x, y=y, z=z, color=c, quotient=y // x, via="direct-search")
    return None
