"""Monochromatic triangles and extraction of divisible sum triples.

Given an l-coloring of the positive integers, color the edge (i, j) of a
complete graph by the color of the block sum a(i) + ... + a(j-1) of the
factorial witness sequence.  On R(3,...,3) vertices some triangle
i < j < k is monochromatic, and its three block sums give x + y = z in
one color class with x | y, courtesy of the sequence's divisibility
chain.  The triangle search is plain brute force over all vertex
triples, in lexicographic order, which is plenty at 17 vertices.

Block sums grow past anything materializable almost immediately, so edge
colors are evaluated through modular reduction whenever the coloring
rule reduces modulo something; for other rules the construction only
runs when the sums stay inside the first five terms.  Witness values are
reported exactly when the triangle sits low enough, and as (i, j) span
descriptors otherwise.

`direct_schur_div_search` is the second, independent route: scan triples
(x, a*x, (a+1)*x) directly under the coloring in increasing z then x.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt
from types import MappingProxyType
from typing import Callable, NamedTuple

from .coloring import Coloring, CosetColoring, OutOfDomainError, ResidueColoring
from .primes import FactorizationBudgetError
from .sequences import (
    _EXACT_FACTORIAL_TERMS,
    FACTORIAL,
    EvaluationInfeasibleError,
    generate,
    interval_sum,
    interval_sum_mod,
)

__all__ = [
    "EdgeColoring",
    "MonoTriangle",
    "R3Info",
    "SchurWitness",
    "direct_schur_div_search",
    "edge_coloring_from_function",
    "find_mono_triangle",
    "pentagon_two_coloring",
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
    if l < 1:
        raise ValueError(f"color count must be >= 1, got {l}")
    if l in _R3_EXACT:
        return R3Info(l, _R3_EXACT[l], True)
    v = _R3_EXACT[3]
    for c in range(4, l + 1):
        v = c * (v - 1) + 2
    return R3Info(l, v, False)


class EdgeColoring:
    """Total color assignment on the edges of a complete graph K_R."""

    def __init__(self, vertex_count: int, colors):
        if vertex_count < 1:
            raise ValueError(f"vertex count must be >= 1, got {vertex_count}")
        normalized = {}
        for (i, j), c in dict(colors).items():
            if not (1 <= i < j <= vertex_count):
                raise ValueError(f"edge ({i},{j}) outside 1..{vertex_count}")
            normalized[(i, j)] = int(c)
        expected = vertex_count * (vertex_count - 1) // 2
        if len(normalized) != expected:
            raise ValueError(f"need all {expected} edges colored, got {len(normalized)}")
        self.vertex_count = vertex_count
        self.colors = MappingProxyType(normalized)

    def color(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.colors[(i, j)]


def edge_coloring_from_function(vertex_count: int, fn: Callable[[int, int], int]) -> EdgeColoring:
    return EdgeColoring(
        vertex_count,
        {(i, j): fn(i, j) for i, j in combinations(range(1, vertex_count + 1), 2)},
    )


class MonoTriangle(NamedTuple):
    i: int
    j: int
    k: int
    color: int


def find_mono_triangle(ec: EdgeColoring) -> MonoTriangle | None:
    """Lexicographically smallest monochromatic triangle, or None."""
    colors = ec.colors
    for i, j, k in combinations(range(1, ec.vertex_count + 1), 3):
        c = colors[(i, j)]
        if colors[(i, k)] == c and colors[(j, k)] == c:
            return MonoTriangle(i, j, k, c)
    return None


def pentagon_two_coloring() -> EdgeColoring:
    """The 5-cycle / diagonals 2-coloring of K_5 with no monochromatic triangle."""
    cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    return edge_coloring_from_function(5, lambda i, j: 0 if (i, j) in cycle else 1)


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


def _edge_color_function(coloring: Coloring, vertex_count: int) -> Callable[[int, int], int]:
    """Color of the block sum a(i..j-1) as a function of the edge (i, j)."""
    if isinstance(coloring, (ResidueColoring, CosetColoring)):
        m = coloring.modulus
        if m >= 2:
            return lambda i, j: coloring.color_of_residue(interval_sum_mod(FACTORIAL, i, j, m))
        # A 1-modulus residue rule is a single color; sums are irrelevant.
        return lambda i, j: coloring.class_map[0]
    if vertex_count - 1 > _MATERIALIZABLE_TERMS:
        raise EvaluationInfeasibleError(
            f"coloring rule {type(coloring).__name__} cannot evaluate block sums on "
            f"{vertex_count} vertices; only modular rules reach that deep"
        )
    seq = generate(FACTORIAL, vertex_count - 1)

    def color(i: int, j: int) -> int:
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
    edge_color = _edge_color_function(coloring, info.vertices)
    ec = edge_coloring_from_function(info.vertices, edge_color)
    tri = find_mono_triangle(ec)
    if tri is None:  # impossible below the Ramsey bound
        raise AssertionError(f"no monochromatic triangle on {info.vertices} vertices")
    i, j, k = tri.i, tri.j, tri.k
    spans = {"x_span": (i, j), "y_span": (j, k), "z_span": (i, k)}
    if k - 1 <= _MATERIALIZABLE_TERMS:
        seq = generate(FACTORIAL, k - 1)
        x = interval_sum(seq, i, j)
        y = interval_sum(seq, j, k)
        z = interval_sum(seq, i, k)
        if x + y != z or y % x:
            raise AssertionError(f"witness ({x},{y},{z}) violates its own structure")
        for value in (x, y, z):
            if coloring.color_of(value) != tri.color:
                raise AssertionError(f"block sum {value} re-colors off {tri.color}")
        return SchurWitness(
            x=x, y=y, z=z, color=tri.color, quotient=y // x, via="ramsey-construction",
            triangle=(i, j, k), r_vertices=info.vertices, r_exact=info.exact, **spans,
        )
    return SchurWitness(
        x=None, y=None, z=None, color=tri.color, quotient=None, via="ramsey-construction",
        triangle=(i, j, k), r_vertices=info.vertices, r_exact=info.exact, **spans,
    )


def _divisors_up_to_half(z: int) -> list[int]:
    """Divisors x of z with x <= z/2, ascending."""
    small, large = [], []
    for d in range(1, isqrt(z) + 1):
        if z % d == 0:
            small.append(d)
            if d != z // d:
                large.append(z // d)
    divs = small + large[::-1]
    half = z // 2
    return [d for d in divs if d <= half]


def direct_schur_div_search(coloring: Coloring, n_max: int) -> SchurWitness | None:
    """First monochromatic (x, a*x, (a+1)*x) with z = (a+1)*x <= n_max,
    scanning in increasing z then increasing x; None if there is none."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    cache: dict[int, int] = {}

    def color(n: int) -> int:
        c = cache.get(n)
        if c is None:
            c = cache[n] = coloring.color_of(n)
        return c

    for z in range(2, n_max + 1):
        cz = color(z)
        for x in _divisors_up_to_half(z):
            y = z - x  # x | z makes x | y automatic
            if color(x) == cz and color(y) == cz:
                return SchurWitness(
                    x=x, y=y, z=z, color=cz, quotient=y // x, via="direct-search"
                )
    return None
