"""Independent re-evaluation of `schur-div` outputs.

Nothing here imports schurdiv: every check recomputes its answer from the
definitions, by brute force where that is cheap enough, so a defect in
the package cannot confirm itself.  A failed check raises CheckFailed.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, gcd, isqrt


class CheckFailed(Exception):
    """An output that does not verify."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- Schur colourings --------------------------------------------------------

def check_schur_coloring(colors: list[int], n: int, l: int, restricted: bool) -> None:
    """`colors` (index i colours i+1) has no monochromatic x + y = z, x <= y
    (and x | y when restricted) in 1..n, and uses colours 0..l-1 only."""
    require(isinstance(colors, list) and len(colors) == n,
            f"witness colouring has {len(colors) if isinstance(colors, list) else '?'} entries, want {n}")
    require(all(isinstance(c, int) and 0 <= c < l for c in colors),
            f"witness colouring uses a colour outside 0..{l - 1}")
    for x in range(1, n // 2 + 1):
        for y in range(x, n - x + 1):
            if restricted and y % x:
                continue
            if colors[x - 1] == colors[y - 1] == colors[x + y - 1]:
                raise CheckFailed(f"monochromatic {x} + {y} = {x + y} in the witness colouring")


# --- colourings of the positive integers ------------------------------------

def _trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class SpecColoring:
    """The CLI colouring grammar, evaluated from its definitions.

    Supports parity, mod:M:..., coset:P:K and unity:K:assignments[:default=e].
    `color(n)` is the colour of n; `modulus` is set for the rules that
    reduce modulo something.
    """

    def __init__(self, spec: str):
        self.modulus = None
        if spec == "parity":
            self.modulus, self.num_colors = 2, 2
            self.color = lambda n: n % 2
            return
        head, _, rest = spec.partition(":")
        if head == "mod":
            m_text, _, table_text = rest.partition(":")
            table = [int(t) for t in table_text.split(",")]
            self.modulus, self.num_colors = int(m_text), max(table) + 1
            self.color = lambda n: table[n % self.modulus]
        elif head == "coset":
            p_text, _, k_text = rest.partition(":")
            p, k = int(p_text), int(k_text)
            d = gcd(k, p - 1)
            e = (p - 1) // d
            # The character r -> r^((p-1)/d) takes d values, one per coset of
            # the k-th powers; number them by their smallest representative.
            order: dict[int, int] = {}
            r = 1
            while len(order) < d:
                order.setdefault(pow(r, e, p), len(order))
                r += 1
            self.modulus, self.num_colors = p, d + 1
            self.color = lambda n: d if n % p == 0 else order[pow(n, e, p)]
        elif head == "unity":
            parts = rest.split(":")
            k = int(parts[0])
            exps = {}
            if parts[1]:
                for pair in parts[1].split(","):
                    p_text, _, e_text = pair.partition("=")
                    exps[int(p_text)] = int(e_text)
            default = int(parts[2].partition("=")[2]) if len(parts) == 3 else 0
            self.num_colors = k
            self.color = lambda n: unity_exponent(n, k, exps, default)
        else:
            raise ValueError(f"unsupported colouring spec {spec!r}")


def unity_exponent(n: int, k: int, exps: dict[int, int], default: int) -> int:
    return sum(e * exps.get(p, default) for p, e in _trial_factor(n)) % k


def first_divisible_triple(color, n_max: int) -> tuple[int, int, int] | None:
    """First monochromatic (x, y, z), x + y = z, x | y, in increasing z then x."""
    for z in range(2, n_max + 1):
        cz = color(z)
        for x in range(1, z // 2 + 1):
            if z % x == 0 and color(x) == cz and color(z - x) == cz:
                return x, z - x, z
    return None


def r3_bound(l: int) -> tuple[int, bool]:
    """Triangle Ramsey number R(3,...,3) for l colours, or its recursive bound."""
    exact = {1: 3, 2: 6, 3: 17}
    if l in exact:
        return exact[l], True
    v = 17
    for c in range(4, l + 1):
        v = c * (v - 1) + 2
    return v, False


# --- witness sequences -------------------------------------------------------

def factorial_terms(count: int) -> list[int]:
    terms, total = [1], 1
    while len(terms) < count:
        terms.append(factorial(total))
        total += terms[-1]
    return terms


def product_terms(count: int) -> list[int]:
    terms = [1]
    while len(terms) < count:
        prefix = [0]
        for t in terms:
            prefix.append(prefix[-1] + t)
        value = 1
        for i, j in combinations(range(len(prefix)), 2):
            value *= prefix[j] - prefix[i]
        terms.append(value)
    return terms


def check_divisibility_chain(terms: list[int]) -> None:
    prefix = [0]
    for t in terms:
        prefix.append(prefix[-1] + t)
    for i, j, k in combinations(range(len(prefix)), 3):
        require((prefix[k] - prefix[j]) % (prefix[j] - prefix[i]) == 0,
                f"block sum {i + 1}..{j} does not divide block sum {j + 1}..{k}")


def factorial_block_sum_mod(i: int, j: int, m: int) -> int:
    """a(i) + ... + a(j-1) of the factorial sequence, mod m <= 28 + 28!.

    Term 6 is the factorial of 28 + 28!, so m divides it and every later
    term; only the first five terms contribute.
    """
    exact = factorial_terms(5)
    return sum(exact[n - 1] for n in range(i, min(j, 6))) % m


# --- power residues ----------------------------------------------------------

def primes_between(lo: int, hi: int) -> list[int]:
    if hi < 2:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(hi) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, hi + 1, p)))
    return [p for p in range(max(lo, 2), hi + 1) if flags[p]]


def brute_run_start(p: int, k: int, m: int) -> int | None:
    """Least r with r..r+m-1 all k-th powers mod p, by enumerating x^k."""
    is_power = bytearray(p)
    for x in range(1, p):
        is_power[pow(x, k, p)] = 1
    run = 0
    for r in range(1, p):
        run = run + 1 if is_power[r] else 0
        if run == m:
            return r - m + 1
    return None


def check_scan_rows(rows: list[tuple[int, int | None]], k: int, m: int, lo: int, hi: int,
                    sample: list[int]) -> None:
    """Rows list every prime in [lo, hi] in order; r values of the sampled
    primes and of every exceptional prime agree with brute force."""
    primes = [p for p, _ in rows]
    require(primes == primes_between(lo, hi), f"scan rows are not the primes in [{lo}, {hi}]")
    by_p = dict(rows)
    for p, r in rows:
        require(r is None or 1 <= r <= p - m, f"r={r} out of range for p={p}")
    for p in sorted(set(sample) | {p for p, r in rows if r is None}):
        want = brute_run_start(p, k, m)
        require(by_p[p] == want, f"r({k}, {m}, {p}) reported {by_p[p]}, brute force gives {want}")


def summarize(rows: list[tuple[int, int | None]]) -> tuple[int | None, int | None, list[int]]:
    max_r = argmax = None
    exceptional = []
    for p, r in rows:
        if r is None:
            exceptional.append(p)
        elif max_r is None or r > max_r:
            max_r, argmax = r, p
    return max_r, argmax, exceptional


def candidates(rows: list[tuple[int, int | None]], m: int) -> int:
    """Residue tests a left-to-right run search makes: r + m - 1 per prime
    with a run, p - 1 per exceptional prime."""
    return sum(p - 1 if r is None else r + m - 1 for p, r in rows)
