"""The benchmark's workloads: `schur-div` command lines and their output checks.

Each workload is a fixed list of invocations.  The search workloads are
fixed by the mathematics; the seed varies only the inputs of `scan` and
`witness-mix`, and keeps their amount of work nearly the same, because
the figures of different seeds are compared with each other.  Seed 0
gives the default inputs, whose outputs are also compared with golden
values.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

from checks import (
    CheckFailed,
    SpecColoring,
    candidates,
    check_divisibility_chain,
    check_scan_rows,
    check_schur_coloring,
    factorial_block_sum_mod,
    factorial_terms,
    first_divisible_triple,
    is_prime,
    product_terms,
    r3_bound,
    require,
    summarize,
    unity_exponent,
)

DEFAULT_SEED = 0

# The first W = 44 witness of `schur --colors 4` (found after 1,095,044
# nodes); n = 45 is refuted.  witness-mix writes both into a warm cache.
W44_COLORING = [
    0, 1, 0, 2, 0, 2, 1, 1, 3, 3, 3, 3, 2, 3, 0, 3, 0, 1, 0, 2, 1, 2,
    2, 1, 2, 0, 1, 0, 3, 2, 3, 2, 1, 3, 3, 3, 1, 1, 2, 0, 2, 0, 1, 0,
]


@dataclass
class Invocation:
    """One `schur-div` command line.  `check` receives its stdout, raises
    CheckFailed when it does not verify and returns work counters;
    `prepare` runs untimed before every execution."""

    key: str
    args: list[str]
    check: Callable[[bytes], dict[str, int]]
    prepare: Callable[[], None] | None = None


def _json(out: bytes) -> dict:
    try:
        report = json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    require(isinstance(report, dict), "stdout is not a JSON object")
    return report


# --- search-seq and search-par -----------------------------------------------

def _schur_check(l: int, restricted: bool, status: str, W: int, nodes: int | None,
                 extra: Callable[[dict], None] | None = None):
    def check(out: bytes) -> dict[str, int]:
        r = _json(out)
        require(r.get("status") == status, f"status {r.get('status')!r}, want {status!r}")
        require(r.get("W") == W, f"W={r.get('W')}, want {W}")
        require(r.get("S") == (W + 1 if status == "exact" else None), f"S={r.get('S')}")
        require(r.get("colors") == l and r.get("restricted") is restricted, "wrong problem echoed")
        if nodes is not None:
            require(r.get("nodes") == nodes, f"nodes={r.get('nodes')}, want {nodes}")
        require(isinstance(r.get("nodes"), int), "nodes missing")
        check_schur_coloring(r.get("witness_coloring"), W, l, restricted)
        if extra is not None:
            extra(r)
        return {"schur_search.nodes": r["nodes"]}

    return check


def _search_seq(seed: int, work: Path) -> list[Invocation]:
    return [
        Invocation("schur-4-budget", ["schur", "--colors", "4", "--budget-nodes", "6000000"],
                   _schur_check(4, False, "lower_bound", 44, 6_000_001)),
        Invocation("schur-3-restricted-budget",
                   ["schur", "--colors", "3", "--restricted", "--budget-nodes", "3000000"],
                   _schur_check(3, True, "lower_bound", 111, 3_000_001)),
    ]


def _search_par(seed: int, work: Path) -> list[Invocation]:
    cache = work / "search-par-cache.json"

    def fresh_cache() -> None:
        cache.unlink(missing_ok=True)

    def cache_holds_proof(report: dict) -> None:
        entries = json.loads(cache.read_text(encoding="utf-8"))["entries"]
        mine = [e for e in entries if e.get("l") == 4 and not e.get("restricted")]
        require(any(e.get("n") == 45 and e.get("status") == "refuted" for e in mine),
                "cache lacks the n=45 refutation")
        valid = [e for e in mine if e.get("n") == 44 and e.get("status") == "valid"]
        require(len(valid) == 1, "cache lacks the n=44 witness")
        check_schur_coloring(valid[0].get("coloring"), 44, 4, False)

    # The reported node count (36 at the seed commit) omits the worker
    # processes' nodes, so it is recorded as a counter and not checked.
    return [
        Invocation("schur-4-threads-2",
                   ["schur", "--colors", "4", "--threads", "2", "--cache", str(cache)],
                   _schur_check(4, False, "exact", 44, None, cache_holds_proof),
                   prepare=fresh_cache),
    ]


# --- scan ---------------------------------------------------------------------

SCAN_GOLDEN = {
    3: (66, 220807, [2, 7, 13]),
    4: (139, 636877, [2, 3, 5, 13, 17, 41]),
}


def _scan(seed: int, work: Path) -> list[Invocation]:
    rng = Random(f"scan:{seed}")
    if seed == DEFAULT_SEED:
        lo, hi = 2, 10**6
    else:
        # A shifted window of the same width: about the same prime count.
        lo = rng.randrange(2, 20_000)
        hi = lo + 10**6 - 2
    fractions = [rng.random() for _ in range(2)]
    window = ["--pmin", str(lo), "--pmax", str(hi)]
    json_rows: dict[str, str] = {}

    def verify(k: int, rows: list, summary: tuple, brute: bool = True) -> dict[str, int]:
        require(summary == summarize(rows), f"summary {summary} disagrees with the rows")
        if seed == DEFAULT_SEED:
            require(summary == SCAN_GOLDEN[k], f"k={k} summary {summary}, want {SCAN_GOLDEN[k]}")
        if brute:
            sample = [rows[int(f * len(rows))][0] for f in fractions]
            if summary[1] is not None:
                sample.append(summary[1])
            check_scan_rows(rows, k, 2, lo, hi, sample)
        return {"residues.primes_scanned": len(rows), "residues.candidates": candidates(rows, 2)}

    def check_json(k: int, threads: int):
        def check(out: bytes) -> dict[str, int]:
            r = _json(out)
            require(r.get("parameters", {}).get("threads") == threads, "threads not echoed")
            body = json.dumps([r.get("reports"), r.get("summary")], sort_keys=True)
            if threads > 1:
                require(body == json_rows.get("single"),
                        "threaded reports or summary differ from the single-process scan")
            else:
                json_rows["single"] = body
            rows = [(rep["p"], rep["r"]) for rep in r["reports"]]
            require(all(rep["exceptional"] == (rep["r"] is None) for rep in r["reports"]),
                    "exceptional flag disagrees with r")
            s = r["summary"]
            require((s["k"], s["m"], s["p_min"], s["p_max"]) == (k, 2, lo, hi), "summary echo")
            # The threaded rows equal the single-process ones checked above.
            return verify(k, rows, (s["max_r"], s["argmax_p"], s["exceptional"]), threads == 1)

        return check

    def check_csv(k: int):
        def check(out: bytes) -> dict[str, int]:
            lines = out.decode("ascii").splitlines()
            require(lines[0] == "p,k,m,r,exceptional", "CSV header")
            rows = []
            for line in lines[1:-1]:
                p, k_text, m_text, r, exc = line.split(",")
                require((k_text, m_text) == (str(k), "2"), f"CSV row {line!r}")
                require(exc == ("true" if r == "" else "false"), f"CSV row {line!r}")
                rows.append((int(p), None if r == "" else int(r)))
            max_r, argmax, exceptional = summarize(rows)
            want = f"max_r={'' if max_r is None else max_r},argmax_p={'' if argmax is None else argmax}"
            require(lines[-1] == want, f"CSV summary {lines[-1]!r}, want {want!r}")
            return verify(k, rows, (max_r, argmax, exceptional))

        return check

    return [
        Invocation("residues-k3-json", ["residues", "--k", "3", "--m", "2", *window],
                   check_json(3, 1)),
        Invocation("residues-k4-csv", ["residues", "--k", "4", "--m", "2", *window, "--format", "csv"],
                   check_csv(4)),
        Invocation("residues-k3-threads-2",
                   ["residues", "--k", "3", "--m", "2", *window, "--threads", "2"],
                   check_json(3, 2)),
    ]


# --- witness-mix -----------------------------------------------------------------

def _first_mono_triangle(coloring: SpecColoring, vertices: int):
    m = coloring.modulus
    edge: dict[tuple[int, int], int] = {}

    def color(a: int, b: int) -> int:
        if (a, b) not in edge:
            edge[a, b] = coloring.color(factorial_block_sum_mod(a, b, m))
        return edge[a, b]

    for i in range(1, vertices + 1):
        for j in range(i + 1, vertices + 1):
            for k in range(j + 1, vertices + 1):
                c = color(i, j)
                if color(i, k) == c and color(j, k) == c:
                    return (i, j, k), c
    return None, None


def _witness_check(spec: str, via: str):
    coloring = SpecColoring(spec)

    def check(out: bytes) -> dict[str, int]:
        r = _json(out)
        require(r.get("found") is True, "no witness reported")
        if via == "direct":
            require(r.get("via") == "direct-search", "via")
            x, y, z = int(r["x"]), int(r["y"]), int(r["z"])
            require(first_divisible_triple(coloring.color, z) == (x, y, z),
                    f"({x}, {y}, {z}) is not the first monochromatic divisible triple")
        else:
            require(r.get("via") == "ramsey-construction", "via")
            vertices, exact = r3_bound(coloring.num_colors)
            require((r.get("r_vertices"), r.get("r_exact")) == (vertices, exact), "Ramsey size")
            triangle, tri_color = _first_mono_triangle(coloring, vertices)
            require(triangle is not None and list(triangle) == r.get("triangle"),
                    f"triangle {r.get('triangle')}, want {triangle}")
            require(r.get("color") == tri_color, "triangle colour")
            i, j, k = triangle
            if k - 1 > 5:
                require([r["x"], r["y"], r["z"]] == [{"i": i, "j": j}, {"i": j, "j": k}, {"i": i, "j": k}],
                        "span witness")
                return {}
            terms = factorial_terms(5)
            x, y, z = (sum(terms[a - 1 : b - 1]) for a, b in ((i, j), (j, k), (i, k)))
            require([r["x"], r["y"], r["z"]] == [str(x), str(y), str(z)], "witness values")
            require(x + y == z and y % x == 0, f"({x}, {y}, {z}) is not x + y = z with x | y")
        require(r.get("quotient") == str(y // x), "quotient")
        require(coloring.color(x) == coloring.color(y) == coloring.color(z) == r.get("color"),
                f"({x}, {y}, {z}) is not monochromatic in colour {r.get('color')}")
        return {}

    return check


def _mult_check(k: int, default: int, bound: int, s_prime: int | None):
    def f(n: int) -> int:
        return unity_exponent(n, k, {}, default)

    def check(out: bytes) -> dict[str, int]:
        r = _json(out)
        require((r.get("k"), r.get("search_bound")) == (k, bound), "mult echo")
        own_min = next((a for a in range(1, bound + 1) if f(a) == 0 == f(a + 1)), None)
        require(r.get("minimal_a") == own_min, f"minimal_a={r.get('minimal_a')}, want {own_min}")
        if s_prime is None:
            require(r.get("witness") is None, "unexpected witness")
            return {}
        w = r.get("witness") or {}
        triple = first_divisible_triple(f, s_prime)
        require(triple is not None and (w.get("x"), w.get("y"), w.get("z")) == triple,
                f"witness {w}, want triple {triple}")
        a = triple[1] // triple[0]
        require(w.get("a") == a and f(a) == 0 == f(a + 1) and a <= s_prime, f"a={w.get('a')}")
        return {}

    return check


def _seq_check(kind: str, count: int):
    terms = factorial_terms(count) if kind == "factorial" else product_terms(count)

    def check(out: bytes) -> dict[str, int]:
        r = _json(out)
        require(r.get("terms") == [str(t) for t in terms], f"{kind} terms differ")
        check_divisibility_chain(terms)
        require((r.get("checked"), r.get("violations"), r.get("count")) == (True, [], count),
                "divisibility report")
        return {}

    return check


def _ramsey_check(l: int):
    vertices, exact = r3_bound(l)

    def check(out: bytes) -> dict[str, int]:
        r = _json(out)
        require((r.get("colors"), r.get("vertices"), r.get("exact")) == (l, vertices, exact),
                f"ramsey {r.get('vertices')}/{r.get('exact')}, want {vertices}/{exact}")
        return {}

    return check


def _witness_mix(seed: int, work: Path) -> list[Invocation]:
    if seed == DEFAULT_SEED:
        p, mod_map = 1000003, [0, 1, 2, 0, 2, 1, 1]
    else:
        # A prime p = 1 mod 3 just above 10^6 (three cube cosets, as for
        # the default) and a residue map mod 7 using all three colours.
        rng = Random(f"witness-mix:{seed}")
        p = 10**6 + rng.randrange(0, 20_000)
        while not (p % 3 == 1 and is_prime(p)):
            p += 1
        mod_map = [0, 0, 0]
        while set(mod_map) != {0, 1, 2}:
            mod_map = [rng.randrange(3) for _ in range(7)]
    coset = f"coset:{p}:3"
    mod7 = "mod:7:" + ",".join(map(str, mod_map))
    cache = work / "witness-mix-cache.json"

    def warm_cache() -> None:
        entries = [
            {"l": 4, "restricted": False, "n": 44, "coloring": W44_COLORING, "status": "valid",
             "timestamp": "2000-01-01T00:00:00Z"},
            {"l": 4, "restricted": False, "n": 45, "coloring": None, "status": "refuted",
             "timestamp": "2000-01-01T00:00:00Z"},
        ]
        cache.write_text(json.dumps({"version": 1, "entries": entries}), encoding="utf-8")

    def witness(spec: str, via: str) -> Invocation:
        return Invocation(f"witness-{spec.split(':')[0]}-{via}",
                          ["witness", "--coloring", spec, "--via", via], _witness_check(spec, via))

    return [
        witness(coset, "ramsey"),
        witness(coset, "direct"),
        witness("parity", "ramsey"),
        witness("parity", "direct"),
        witness(mod7, "ramsey"),
        witness(mod7, "direct"),
        # Unity colourings are not modular, so only the direct route applies.
        Invocation("witness-unity3-direct", ["witness", "--coloring", "unity:3::default=1", "--via", "direct"],
                   _witness_check("unity:3::default=1", "direct")),
        Invocation("witness-unity2-direct", ["witness", "--coloring", "unity:2::default=1", "--via", "direct"],
                   _witness_check("unity:2::default=1", "direct")),
        # --verify-s-prime needs an exact S'(k); S'(1) = 2 and S'(2) = 12.
        Invocation("mult-k2-verify", ["mult", "--k", "2", "--default-exp", "1", "--verify-s-prime", "12"],
                   _mult_check(2, 1, 10_000, 12)),
        Invocation("mult-k1-verify", ["mult", "--k", "1", "--verify-s-prime", "2"],
                   _mult_check(1, 0, 10_000, 2)),
        Invocation("mult-k3-scan", ["mult", "--k", "3", "--default-exp", "1", "--bound", "100000"],
                   _mult_check(3, 1, 100_000, None)),
        Invocation("seq-product", ["seq", "--kind", "product", "--count", "6", "--check-divisibility"],
                   _seq_check("product", 6)),
        Invocation("seq-factorial", ["seq", "--kind", "factorial", "--count", "5", "--check-divisibility"],
                   _seq_check("factorial", 5)),
        Invocation("ramsey-4", ["ramsey", "--colors", "4"], _ramsey_check(4)),
        Invocation("schur-4-warm-cache", ["schur", "--colors", "4", "--cache", str(cache)],
                   _schur_check(4, False, "exact", 44, 0,
                                lambda r: require(r["witness_coloring"] == W44_COLORING,
                                                  "warm-cache witness differs from the cache")),
                   prepare=warm_cache),
    ]


BUILDERS = {
    "search-seq": _search_seq,
    "search-par": _search_par,
    "scan": _scan,
    "witness-mix": _witness_mix,
}


def build(name: str, seed: int, work: Path) -> list[Invocation]:
    """The invocations of workload `name` for `seed`; scratch files go in `work`."""
    return BUILDERS[name](seed, work)
