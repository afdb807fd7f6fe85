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

Dividing a direct-route triple by x leaves a = y/x, the witness's
`quotient`, and a + 1 = z/x, both at most the search bound.  When the
color classes are cosets of a multiplicative kernel, x, a*x and (a+1)*x
sharing a class puts a and a + 1 in the kernel itself.  Two pipelines take
that step: `consecutive_pair_via_triple` colors by cosets of the k-th
powers mod a prime p > bound, so a and a + 1 are k-th power residues, and
`verify_consecutive_ones_bound` colors by a unity function f up to an
exact restricted Schur number, so f(a) = f(a+1) = 1, and cross-checks a
against `min_consecutive_ones`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

from .coloring import Coloring, CosetColoring, OutOfDomainError, UnityColoring
from .multiplicative import UnityFunction, evaluate, min_consecutive_ones
from .primes import FactorizationBudgetError, _check_int
from .residues import is_kth_residue
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
    "ConsecutiveOnesWitness",
    "ConsecutivePair",
    "MonoTriangle",
    "R3Info",
    "SchurWitness",
    "consecutive_pair_via_triple",
    "direct_schur_div_search",
    "find_mono_triangle",
    "r3_value_or_bound",
    "verify_consecutive_ones_bound",
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


class ConsecutivePair(NamedTuple):
    y_prime: int
    z_prime: int
    witness: SchurWitness


def consecutive_pair_via_triple(p: int, k: int, bound: int) -> ConsecutivePair | None:
    """Consecutive k-th power residues y', z' = y'+1 <= bound, obtained by
    dividing a monochromatic divisible triple of the coset coloring by its
    smallest element.  None when {1..bound} holds no such triple (bound too
    small for the coset count); that outcome is reported, not raised."""
    coloring = CosetColoring(p, k)  # checks p and k
    _check_int("bound", bound, 1)
    if p <= bound:
        raise ValueError(f"need p > bound, got p={p}, bound={bound}")
    witness = direct_schur_div_search(coloring, bound)
    if witness is None:
        return None
    a = witness.quotient
    if witness.z != witness.x * (a + 1):
        raise AssertionError(f"triple {witness} does not divide into a consecutive pair")
    for value in (a, a + 1):
        if not is_kth_residue(value, p, k):
            raise AssertionError(f"{value} fails the residue test mod {p}")
    return ConsecutivePair(y_prime=a, z_prime=a + 1, witness=witness)


class ConsecutiveOnesWitness(NamedTuple):
    x: int
    y: int
    z: int
    a: int
    min_a: int
    bound: int
    color: int


def verify_consecutive_ones_bound(f: UnityFunction, restricted_schur_bound: int) -> ConsecutiveOnesWitness:
    """Run the coloring pipeline and return a <= bound with f(a) = f(a+1) = 1.

    `restricted_schur_bound` must be an exact restricted Schur number for
    f.k colors; the monochromatic triple search below is then guaranteed
    to succeed, and its failure is loudly fatal rather than a value.
    """
    _check_int("restricted_schur_bound", restricted_schur_bound, 1)
    witness = direct_schur_div_search(UnityColoring(f), restricted_schur_bound)
    if witness is None:
        raise RuntimeError(
            f"no monochromatic divisible triple in 1..{restricted_schur_bound} under a "
            f"{f.k}-class coloring; the claimed restricted Schur bound is wrong (or the "
            f"partition guarantee itself failed, which should be impossible)"
        )
    a = witness.quotient
    if evaluate(f, a) != 0 or evaluate(f, a + 1) != 0:
        raise RuntimeError(f"pipeline produced a={a} but f is not 1 at a and a+1")
    if a > restricted_schur_bound:
        raise RuntimeError(f"pipeline produced a={a} above the bound {restricted_schur_bound}")
    min_a = min_consecutive_ones(f, restricted_schur_bound)
    if min_a is None or min_a > a:
        raise RuntimeError(f"direct scan disagrees with pipeline witness a={a}: min={min_a}")
    return ConsecutiveOnesWitness(x=witness.x, y=witness.y, z=witness.z, a=a, min_a=min_a,
                                  bound=restricted_schur_bound, color=witness.color)
