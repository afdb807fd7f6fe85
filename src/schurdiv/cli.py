"""Command-line entry point: the `schur-div` tool.

Subcommands: seq, witness, ramsey, schur, residues, mult.  All flags are
long-form.  Reports go to stdout as canonical JSON (sorted keys, no
insignificant whitespace) so identical invocations against identical
cache state produce byte-identical output; `residues --format csv`
writes unquoted CSV instead, ending with a `max_r=...,argmax_p=...`
summary row.  Exit codes: 0 success, 2 usage error, 1 runtime failure.

Coloring spec grammar (bit-exact, shared with the library parser):

    parity
        two colors by parity: color 0 for even, 1 for odd.
    mod:M:c0,c1,...,c(M-1)
        color of n is the entry for n mod M; exactly M comma-separated
        0-based color indices.
    coset:P:K
        cosets of the K-th powers modulo the prime P, colors ordered by
        smallest positive representative, plus one extra color (the last
        index) for multiples of P.
    explicit:PATH
        PATH holds a JSON array of 0-based colors for 1..n.
    unity:K:p1=e1,p2=e2,...[:default=e]
        completely multiplicative function into K-th roots of unity,
        given by prime exponents (empty assignment list allowed);
        unlisted primes take the default exponent (0 unless given).

The schur subcommand caches proven witnesses and refutations in the
versioned JSON file named by `--cache`, the only way to name one, so the
environment never changes a report; timestamps live only in the cache,
never in reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .coloring import ColoringSpecError, parse_coloring_spec, parse_prime_exponents
from .multiplicative import UnityFunction, min_consecutive_ones, verify_consecutive_ones_bound
# is_prime stays a module attribute, unused here: bench/trace_cli.py wraps it.
from .primes import FactorizationBudgetError, is_prime  # noqa: F401
from .ramsey import direct_schur_div_search, r3_value_or_bound, witness_via_ramsey
from .residues import scan_primes, summarize_reports
from .schur_search import schur_number
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    EvaluationInfeasibleError,
    SequenceBudgetError,
    check_divisibility_lemma,
    generate,
)

DEFAULT_DIRECT_MAX_N = 10_000


class UsageError(Exception):
    """Semantic argument error; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schur-div", allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_seq = sub.add_parser("seq", help="generate a witness sequence")
    p_seq.add_argument("--kind", choices=["factorial", "product"], required=True)
    p_seq.add_argument("--count", type=int, required=True)
    p_seq.add_argument("--check-divisibility", action="store_true")
    p_seq.add_argument("--budget-digits", type=int, default=DEFAULT_DIGIT_BUDGET)

    p_wit = sub.add_parser("witness", help="monochromatic x+y=z with x | y")
    p_wit.add_argument("--coloring", required=True, metavar="SPEC")
    p_wit.add_argument("--via", choices=["ramsey", "direct"], required=True)
    p_wit.add_argument("--max-n", type=int, default=None)

    p_ram = sub.add_parser("ramsey", help="triangle Ramsey values and bounds")
    p_ram.add_argument("--colors", type=int, required=True)

    p_sch = sub.add_parser("schur", help="exact Schur-style numbers by search")
    p_sch.add_argument("--colors", type=int, required=True)
    p_sch.add_argument("--restricted", action="store_true")
    p_sch.add_argument("--max-n", type=int, default=None)
    p_sch.add_argument("--budget-nodes", type=int, default=None)
    p_sch.add_argument("--budget-secs", type=float, default=None)
    p_sch.add_argument("--threads", type=int, default=1)
    p_sch.add_argument("--cache", default=None, metavar="FILE")

    p_res = sub.add_parser("residues", help="scan primes for consecutive power residues")
    p_res.add_argument("--k", type=int, required=True)
    p_res.add_argument("--m", type=int, required=True)
    p_res.add_argument("--pmin", type=int, required=True)
    p_res.add_argument("--pmax", type=int, required=True)
    p_res.add_argument("--format", choices=["json", "csv"], default="json")
    p_res.add_argument("--threads", type=int, default=1)

    p_mult = sub.add_parser("mult", help="multiplicative functions into roots of unity")
    p_mult.add_argument("--k", type=int, required=True)
    p_mult.add_argument("--primes", default="", metavar="p1=e1,p2=e2,...")
    p_mult.add_argument("--default-exp", type=int, default=0)
    p_mult.add_argument("--bound", type=int, default=DEFAULT_DIRECT_MAX_N)
    p_mult.add_argument("--verify-s-prime", type=int, default=None)

    return parser


def _provenance(args: argparse.Namespace, keys: list[str]) -> dict:
    return {
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "parameters": {key: getattr(args, key.replace("-", "_")) for key in keys},
    }


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_seq(args) -> int:
    seq = generate(args.kind, args.count, args.budget_digits)
    violations = []
    if args.check_divisibility:
        report = check_divisibility_lemma(seq, len(seq.terms) + 1)
        violations = [{"i": v.i, "j": v.j, "k": v.k} for v in report.violations]
    out = _provenance(args, ["kind", "count", "budget-digits"])
    out.update(
        kind=seq.kind,
        count=len(seq.terms),
        terms=[str(t) for t in seq.terms],
        checked=args.check_divisibility,
        violations=violations,
    )
    _emit(out)
    return 0


def _witness_value(value: int | None, span: tuple[int, int] | None):
    if value is not None:
        return str(value)
    return {"i": span[0], "j": span[1]}


def _cmd_witness(args) -> int:
    try:
        coloring = parse_coloring_spec(args.coloring)
    except ColoringSpecError as exc:
        raise UsageError(str(exc)) from exc
    out = _provenance(args, ["coloring", "via", "max-n"])
    route = {}
    if args.via == "ramsey":
        if args.max_n is not None:
            raise UsageError("--max-n applies only to --via direct")
        w = witness_via_ramsey(coloring)
        route = {"triangle": w.triangle, "r_vertices": w.r_vertices, "r_exact": w.r_exact}
    else:
        n_max = (coloring.domain_max or DEFAULT_DIRECT_MAX_N) if args.max_n is None else args.max_n
        w = direct_schur_div_search(coloring, n_max)
        if w is None:
            out.update(found=False, n_max=n_max, via="direct-search")
    if w is not None:
        out.update(
            found=True,
            x=_witness_value(w.x, w.x_span),
            y=_witness_value(w.y, w.y_span),
            z=_witness_value(w.z, w.z_span),
            color=w.color,
            quotient=None if w.quotient is None else str(w.quotient),
            via=w.via,
            **route,
        )
    _emit(out)
    return 0


def _cmd_ramsey(args) -> int:
    info = r3_value_or_bound(args.colors)
    out = _provenance(args, ["colors"])
    out.update(info._asdict())
    _emit(out)
    return 0


def _cmd_schur(args) -> int:
    result = schur_number(
        args.colors,
        restricted=args.restricted,
        max_nodes=args.budget_nodes,
        max_seconds=args.budget_secs,
        max_n=args.max_n,
        threads=args.threads,
        cache_path=args.cache or None,
    )
    out = _provenance(
        args, ["colors", "restricted", "max-n", "budget-nodes", "budget-secs", "threads"]
    )
    out.update(
        colors=result.colors,
        restricted=result.restricted,
        status=result.status,
        W=result.W,
        S=result.S,
        witness_coloring=result.witness_coloring,
        nodes=result.stats.nodes,
    )
    _emit(out)
    return 0


def _cmd_residues(args) -> int:
    if not 2 <= args.pmin <= args.pmax:
        raise UsageError(f"--pmin/--pmax must satisfy 2 <= pmin <= pmax, got {args.pmin}..{args.pmax}")
    rows = scan_primes(args.k, args.m, args.pmin, args.pmax, threads=args.threads)
    estimate = summarize_reports(args.k, args.m, args.pmin, args.pmax, rows)
    # Rows go out straight from (p, r), in the bytes json.dumps gives per-row dicts.
    if args.format == "csv":
        km = f"{args.k},{args.m}"
        lines = ["p,k,m,r,exceptional"]
        lines += [f"{p},{km},,true" if r is None else f"{p},{km},{r},false" for p, r in rows]
        lines.append(f"max_r={estimate.max_r or ''},argmax_p={estimate.argmax_p or ''}")  # None or >= 1
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    out = _provenance(args, ["k", "m", "pmin", "pmax", "format", "threads"])
    out.update(reports=[], summary=estimate._asdict())
    reports = ",".join(
        f'{{"exceptional":true,"p":{p},"r":null}}' if r is None
        else f'{{"exceptional":false,"p":{p},"r":{r}}}'
        for p, r in rows
    )
    # The first '"reports":[]' is the key: parameters hold ints and a format name.
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text.replace('"reports":[]', f'"reports":[{reports}]', 1) + "\n")
    return 0


def _cmd_mult(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    try:
        exponents = parse_prime_exponents(args.primes)
    except ColoringSpecError as exc:
        raise UsageError(f"--primes: {exc}") from exc
    func = UnityFunction(args.k, exponents, args.default_exp)
    out = _provenance(args, ["k", "primes", "default-exp", "bound", "verify-s-prime"])
    minimal = min_consecutive_ones(func, args.bound)
    out.update(k=args.k, minimal_a=minimal, search_bound=args.bound, witness=None)
    if args.verify_s_prime is not None:
        record = verify_consecutive_ones_bound(func, args.verify_s_prime)
        out["witness"] = {"x": record.x, "y": record.y, "z": record.z, "a": record.a}
        if minimal is None:
            out["minimal_a"] = record.min_a
    _emit(out)
    return 0


_HANDLERS = {
    "seq": _cmd_seq,
    "witness": _cmd_witness,
    "ramsey": _cmd_ramsey,
    "schur": _cmd_schur,
    "residues": _cmd_residues,
    "mult": _cmd_mult,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Exact terms and Ramsey bounds may pass Python's int-to-str digit limit;
    # lift it while the command runs and restore it for the caller.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[args.subcommand](args)
    except (
        SequenceBudgetError,
        EvaluationInfeasibleError,
        FactorizationBudgetError,
        RuntimeError,
        OSError,
    ) as exc:
        print(f"schur-div: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        # Bad parameter values (including coloring spec errors) are usage errors.
        print(f"schur-div: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
