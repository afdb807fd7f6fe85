"""Finite colorings of the positive integers.

Four rule families share one interface: explicit tables, residue classes
modulo m, cosets of the k-th-power subgroup modulo a prime, and
completely multiplicative functions into roots of unity.  `color_of(n)`
checks n once for all of them (ValueError unless an int, OutOfDomainError
below 1) and returns the rule's 0-based `_color(n)`.  Colorings are
immutable and `color_of` is pure, so instances are safe to share.

Residue and coset rules color by n mod `modulus` (None on other rules), so
any n works; explicit tables raise OutOfDomainError past their end.

Coset colorings assign one color per coset of the subgroup of k-th
powers in the multiplicative group mod p (ordered by smallest positive
representative) plus one dedicated extra color for multiples of p, which
makes them total on all positive integers.  They tell cosets apart by a
power character evaluated per query, so they build no table of size p.

A one-line spec grammar mirrors all of this for the command line
(`parse_coloring_spec`, and `schur-div witness --coloring SPEC`).  It only
converts text; each rule checks its own values, and an error in them is a
ColoringSpecError with the rule's message, at the rule's first argument:

    parity
        two colors by parity: color 0 for even, 1 for odd.
    mod:M:c0,c1,...,c(M-1)
        color of n is the entry for n mod M; exactly M comma-separated
        0-based color indices.
    coset:P:K
        the coset coloring above for the prime P and the K-th powers.
    explicit:PATH
        PATH holds a JSON array of 0-based colors for 1..n.
    unity:K:p1=e1,p2=e2,...[:default=e]
        completely multiplicative function into K-th roots of unity,
        given by prime exponents (empty assignment list allowed);
        unlisted primes take the default exponent (0 unless given).
"""

from __future__ import annotations

import json
from math import gcd

from .multiplicative import UnityFunction, evaluate
from .primes import _check_int, is_prime

__all__ = [
    "Coloring",
    "ColoringSpecError",
    "CosetColoring",
    "ExplicitColoring",
    "OutOfDomainError",
    "ResidueColoring",
    "UnityColoring",
    "parse_coloring_spec",
    "parse_prime_exponents",
]


class OutOfDomainError(ValueError):
    """Argument outside the coloring's declared domain."""


class ColoringSpecError(ValueError):
    """Malformed coloring spec string; carries the spec, the offending position and bare `message`."""

    def __init__(self, spec: str, position: int, message: str):
        self.spec = spec
        self.position = position
        self.message = message
        super().__init__(f"coloring spec {spec!r}, position {position}: {message}")


class Coloring:
    """Colors {0..num_colors-1} on a declared domain; each rule defines `_color(n)` for checked n."""

    num_colors: int
    domain_max: int | None = None  # None means unbounded
    modulus: int | None = None  # set by rules that color n by n mod modulus

    def color_of(self, n: int) -> int:
        _check_int("n", n)
        if n < 1:
            raise OutOfDomainError(f"colorings are defined on positive integers, got {n}")
        return self._color(n)


class ExplicitColoring(Coloring):
    """Colors read off a table for 1..len(table)."""

    def __init__(self, table):
        table = tuple(table)
        if not table:
            raise ValueError("explicit color table must be non-empty")
        if not all(type(c) is int and c >= 0 for c in table):
            raise ValueError("explicit color table entries must be integers >= 0")
        self.table = table
        self.num_colors = max(table) + 1
        self.domain_max = len(table)

    def _color(self, n: int) -> int:
        if n > self.domain_max:
            raise OutOfDomainError(f"n={n} outside explicit domain 1..{self.domain_max}")
        return self.table[n - 1]


class ResidueColoring(Coloring):
    """Color determined by n mod modulus through a residue -> color map."""

    def __init__(self, modulus: int, class_map):
        _check_int("modulus", modulus, 1)
        class_map = tuple(class_map)
        if len(class_map) != modulus:
            raise ValueError(f"class map must have {modulus} entries, got {len(class_map)}")
        if not all(type(c) is int and c >= 0 for c in class_map):
            raise ValueError("class map entries must be integers >= 0")
        self.modulus = modulus
        self.class_map = class_map
        self.num_colors = max(class_map) + 1

    def _color(self, n: int) -> int:
        return self.class_map[n % self.modulus]


class CosetColoring(Coloring):
    """Cosets of the k-th-power subgroup mod p, plus an extra color at 0 mod p.

    With d = gcd(k, p-1), the k-th powers mod p are the kernel of the
    character chi(r) = r^((p-1)/d) mod p, which takes d values and so names
    the coset of r.  Construction walks r = 1, 2, ... and gives each new
    chi value the next color index until all d have appeared, so coset
    colors follow smallest positive representative; the extra color is the
    last index.  Each query evaluates chi with one `pow`, and nothing of
    size p is kept.
    """

    def __init__(self, p: int, k: int):
        _check_int("p", p)
        if not is_prime(p):
            raise ValueError(f"coset coloring needs a prime modulus, got {p}")
        _check_int("power", k, 1)
        self.p = p
        self.k = k
        self.coset_count = gcd(k, p - 1)
        self.extra_color = self.coset_count
        self.num_colors = self.coset_count + 1
        self.modulus = p
        self.exponent = (p - 1) // self.coset_count
        color_by_chi: dict[int, int] = {}
        r = 1
        while len(color_by_chi) < self.coset_count:
            color_by_chi.setdefault(pow(r, self.exponent, p), len(color_by_chi))
            r += 1
        self._color_by_chi = color_by_chi

    def _color(self, n: int) -> int:
        r = n % self.p
        if r == 0:
            return self.extra_color
        return self._color_by_chi[pow(r, self.exponent, self.p)]

    def classes_on_units(self) -> tuple[frozenset[int], ...]:
        """The coset classes restricted to {1..p-1}, indexed by color."""
        classes = [set() for _ in range(self.coset_count)]
        for r in range(1, self.p):
            classes[self.color_of(r)].add(r)
        return tuple(frozenset(c) for c in classes)


class UnityColoring(Coloring):
    """Color of n is the exponent of a root-of-unity function at n."""

    def __init__(self, func: UnityFunction):
        self.func = func
        self.num_colors = func.k

    def _color(self, n: int) -> int:
        return evaluate(self.func, n)


def _spec_int(spec: str, token: str, position: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ColoringSpecError(spec, position, f"expected an integer {what}, got {token!r}") from None


def _rule(spec: str, position: int, make, *args):
    """make(*args), its ValueError reported as a ColoringSpecError at `position`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ColoringSpecError(spec, position, str(exc)) from None


def parse_prime_exponents(text: str, spec: str | None = None, position: int = 0) -> dict[int, int]:
    """Parse `p1=e1,p2=e2,...` (possibly empty) into {p: exponent}; only the
    text is judged, primality is UnityFunction's.  `text` starts at `position`
    of `spec` (default: text itself), which errors report as a ColoringSpecError."""
    spec = text if spec is None else spec
    exponents: dict[int, int] = {}
    if not text:
        return exponents
    for pair in text.split(","):
        p_token, sep, e_token = pair.partition("=")
        if not sep:
            raise ColoringSpecError(spec, position, f"expected p=e, got {pair!r}")
        p = _spec_int(spec, p_token, position, "prime")
        e = _spec_int(spec, e_token, position + len(p_token) + 1, "exponent")
        if p in exponents:
            raise ColoringSpecError(spec, position, f"prime {p} assigned twice")
        exponents[p] = e
        position += len(pair) + 1
    return exponents


def parse_coloring_spec(spec: str) -> Coloring:
    """Parse the one-line coloring grammar (see module docstring): text only;
    the rule's own ValueError becomes a ColoringSpecError at its arguments."""
    if spec == "parity":
        return ResidueColoring(2, (0, 1))
    head, _, rest = spec.partition(":")
    body_pos = len(head) + 1
    if head == "mod":
        mod_token, sep, colors_token = rest.partition(":")
        if not sep:
            raise ColoringSpecError(spec, body_pos, "expected mod:M:c0,...,c(M-1)")
        m = _spec_int(spec, mod_token, body_pos, "modulus")
        colors_pos = body_pos + len(mod_token) + 1
        entries = colors_token.split(",") if colors_token else []
        class_map = [_spec_int(spec, e, colors_pos, "color") for e in entries]
        return _rule(spec, body_pos, ResidueColoring, m, class_map)
    if head == "coset":
        p_token, sep, k_token = rest.partition(":")
        if not sep:
            raise ColoringSpecError(spec, body_pos, "expected coset:P:K")
        p = _spec_int(spec, p_token, body_pos, "prime")
        k = _spec_int(spec, k_token, body_pos + len(p_token) + 1, "exponent")
        return _rule(spec, body_pos, CosetColoring, p, k)
    if head == "explicit":
        path = rest
        if not path:
            raise ColoringSpecError(spec, body_pos, "expected explicit:PATH")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                table = json.load(fh)
        except OSError as exc:
            raise ColoringSpecError(spec, body_pos, f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ColoringSpecError(spec, body_pos, f"bad JSON in {path}: {exc}") from None
        if not isinstance(table, list):  # tuple() fails on 5 and splits "01" or {"1": 0}
            raise ColoringSpecError(spec, body_pos, f"{path} must hold a JSON array")
        return _rule(spec, body_pos, ExplicitColoring, table)
    if head == "unity":
        parts = rest.split(":")
        if len(parts) not in (2, 3):
            raise ColoringSpecError(spec, body_pos, "expected unity:K:p=e,...[:default=e]")
        k = _spec_int(spec, parts[0], body_pos, "root order")
        assigns_pos = body_pos + len(parts[0]) + 1
        exponents = parse_prime_exponents(parts[1], spec, assigns_pos)
        default = 0
        if len(parts) == 3:
            default_pos = assigns_pos + len(parts[1]) + 1
            key, sep, val = parts[2].partition("=")
            if key != "default" or not sep:
                raise ColoringSpecError(spec, default_pos, f"expected default=e, got {parts[2]!r}")
            default = _spec_int(spec, val, default_pos + len(key) + 1, "default exponent")
        return UnityColoring(_rule(spec, body_pos, UnityFunction, k, exponents, default))
    raise ColoringSpecError(
        spec, 0, "expected one of parity | mod:... | coset:... | explicit:... | unity:..."
    )
