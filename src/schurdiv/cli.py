"""Command-line entry point: the `schur-div` tool.

Subcommands: seq, witness, ramsey, schur, residues, mult.  All flags are
long-form.  Reports go to stdout as canonical JSON (sorted keys, no
insignificant whitespace) so identical invocations against identical
cache state produce byte-identical output; `residues --format csv`
writes unquoted CSV instead, ending with a `max_r=...,argmax_p=...`
summary row.  `--coloring` takes the spec grammar described in the
`schurdiv.coloring` module docstring.

Each subcommand is declared once, in `_build_parser`: its flags, its
handler and the parameter names its report echoes, via
`set_defaults(handler=..., echo=[...])`.  A handler returns only its
report's own fields; `main` alone adds `tool_version`, `subcommand` and
`parameters`, writes the report and picks the exit code.  `residues`
writes its own CSV, or JSON with the rows spliced into the report text
(the fast output path of long scans), and returns None.

Exit codes: 0 success; 1 runtime failure (`SequenceBudgetError`,
`EvaluationInfeasibleError`, `FactorizationBudgetError`, `RuntimeError`,
`OSError`); 2 usage error (argparse rejections and every other
`ValueError`).

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
from .multiplicative import UnityFunction, min_consecutive_ones
# is_prime stays a module attribute, unused here: bench/trace_cli.py wraps it.
from .primes import FactorizationBudgetError, is_prime  # noqa: F401
from .ramsey import (
    direct_schur_div_search,
    r3_value_or_bound,
    verify_consecutive_ones_bound,
    witness_via_ramsey,
)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schur-div", allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_seq = sub.add_parser("seq", help="generate a witness sequence")
    p_seq.set_defaults(handler=_cmd_seq, echo=["kind", "count", "budget-digits"])
    p_seq.add_argument("--kind", choices=["factorial", "product"], required=True)
    p_seq.add_argument("--count", type=int, required=True)
    p_seq.add_argument("--check-divisibility", action="store_true")
    p_seq.add_argument("--budget-digits", type=int, default=DEFAULT_DIGIT_BUDGET)

    p_wit = sub.add_parser("witness", help="monochromatic x+y=z with x | y")
    p_wit.set_defaults(handler=_cmd_witness, echo=["coloring", "via", "max-n"])
    p_wit.add_argument("--coloring", required=True, metavar="SPEC")
    p_wit.add_argument("--via", choices=["ramsey", "direct"], required=True)
    p_wit.add_argument("--max-n", type=int, default=None)

    p_ram = sub.add_parser("ramsey", help="triangle Ramsey values and bounds")
    p_ram.set_defaults(handler=_cmd_ramsey, echo=["colors"])
    p_ram.add_argument("--colors", type=int, required=True)

    p_sch = sub.add_parser("schur", help="exact Schur-style numbers by search")
    p_sch.set_defaults(
        handler=_cmd_schur,
        echo=["colors", "restricted", "max-n", "budget-nodes", "budget-secs", "threads"],
    )
    p_sch.add_argument("--colors", type=int, required=True)
    p_sch.add_argument("--restricted", action="store_true")
    p_sch.add_argument("--max-n", type=int, default=None)
    p_sch.add_argument("--budget-nodes", type=int, default=None)
    p_sch.add_argument("--budget-secs", type=float, default=None)
    p_sch.add_argument("--threads", type=int, default=1)
    p_sch.add_argument("--cache", default=None, metavar="FILE")

    p_res = sub.add_parser("residues", help="scan primes for consecutive power residues")
    p_res.set_defaults(handler=_cmd_residues, echo=["k", "m", "pmin", "pmax", "format", "threads"])
    p_res.add_argument("--k", type=int, required=True)
    p_res.add_argument("--m", type=int, required=True)
    p_res.add_argument("--pmin", type=int, required=True)
    p_res.add_argument("--pmax", type=int, required=True)
    p_res.add_argument("--format", choices=["json", "csv"], default="json")
    p_res.add_argument("--threads", type=int, default=1)

    p_mult = sub.add_parser("mult", help="multiplicative functions into roots of unity")
    p_mult.set_defaults(handler=_cmd_mult, echo=["k", "primes", "default-exp", "bound", "verify-s-prime"])
    p_mult.add_argument("--k", type=int, required=True)
    p_mult.add_argument("--primes", default="", metavar="p1=e1,p2=e2,...")
    p_mult.add_argument("--default-exp", type=int, default=0)
    p_mult.add_argument("--bound", type=int, default=DEFAULT_DIRECT_MAX_N)
    p_mult.add_argument("--verify-s-prime", type=int, default=None)

    return parser


def _report_text(args: argparse.Namespace, fields: dict) -> str:
    """Canonical JSON of a report: its own fields plus the envelope."""
    parameters = {key: getattr(args, key.replace("-", "_")) for key in args.echo}
    report = dict(fields, tool_version=__version__, subcommand=args.subcommand, parameters=parameters)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def _cmd_seq(args) -> dict:
    seq = generate(args.kind, args.count, args.budget_digits)
    violations = []
    if args.check_divisibility:
        report = check_divisibility_lemma(seq)
        violations = [{"i": v.i, "j": v.j, "k": v.k} for v in report.violations]
    return {
        "kind": seq.kind,
        "count": len(seq.terms),
        "terms": [str(t) for t in seq.terms],
        "checked": args.check_divisibility,
        "violations": violations,
    }


def _witness_value(value: int | None, span: tuple[int, int] | None):
    if value is not None:
        return str(value)
    return {"i": span[0], "j": span[1]}


def _cmd_witness(args) -> dict:
    coloring = parse_coloring_spec(args.coloring)
    route = {}
    if args.via == "ramsey":
        if args.max_n is not None:
            raise ValueError("--max-n applies only to --via direct")
        w = witness_via_ramsey(coloring)
        route = {"triangle": w.triangle, "r_vertices": w.r_vertices, "r_exact": w.r_exact}
    else:
        n_max = (coloring.domain_max or DEFAULT_DIRECT_MAX_N) if args.max_n is None else args.max_n
        w = direct_schur_div_search(coloring, n_max)
        if w is None:
            return {"found": False, "n_max": n_max, "via": "direct-search"}
    return dict(
        found=True,
        x=_witness_value(w.x, w.x_span),
        y=_witness_value(w.y, w.y_span),
        z=_witness_value(w.z, w.z_span),
        color=w.color,
        quotient=None if w.quotient is None else str(w.quotient),
        via=w.via,
        **route,
    )


def _cmd_ramsey(args) -> dict:
    return r3_value_or_bound(args.colors)._asdict()


def _cmd_schur(args) -> dict:
    result = schur_number(
        args.colors,
        restricted=args.restricted,
        max_nodes=args.budget_nodes,
        max_seconds=args.budget_secs,
        max_n=args.max_n,
        threads=args.threads,
        cache_path=args.cache or None,
    )
    fields = result._asdict()
    fields["nodes"] = fields.pop("stats").nodes
    return fields


def _cmd_residues(args) -> None:
    rows = scan_primes(args.k, args.m, args.pmin, args.pmax, threads=args.threads)
    estimate = summarize_reports(args.k, args.m, args.pmin, args.pmax, rows)
    # Rows go out straight from (p, r), in the bytes json.dumps gives per-row dicts.
    if args.format == "csv":
        km = f"{args.k},{args.m}"
        lines = ["p,k,m,r,exceptional"]
        lines += [f"{p},{km},,true" if r is None else f"{p},{km},{r},false" for p, r in rows]
        lines.append(f"max_r={estimate.max_r or ''},argmax_p={estimate.argmax_p or ''}")  # None or >= 1
        sys.stdout.write("\n".join(lines) + "\n")
        return
    reports = ",".join(
        f'{{"exceptional":true,"p":{p},"r":null}}' if r is None
        else f'{{"exceptional":false,"p":{p},"r":{r}}}'
        for p, r in rows
    )
    # The first '"reports":[]' is the key: parameters hold ints and a format name.
    text = _report_text(args, {"reports": [], "summary": estimate._asdict()})
    sys.stdout.write(text.replace('"reports":[]', f'"reports":[{reports}]', 1) + "\n")


def _cmd_mult(args) -> dict:
    func = UnityFunction(args.k, default_exponent=args.default_exp)
    try:  # k and the default exponent have passed: what fails here is --primes
        func = func._replace(prime_exponents=parse_prime_exponents(args.primes))
    except ColoringSpecError as exc:  # the spec is the flag's own text: name only the position
        raise ValueError(f"--primes: position {exc.position}: {exc.message}") from exc
    except ValueError as exc:
        raise ValueError(f"--primes: {exc}") from exc
    minimal = min_consecutive_ones(func, args.bound)
    fields = {"k": args.k, "minimal_a": minimal, "search_bound": args.bound, "witness": None}
    if args.verify_s_prime is not None:
        record = verify_consecutive_ones_bound(func, args.verify_s_prime)
        fields["witness"] = {"x": record.x, "y": record.y, "z": record.z, "a": record.a}
    return fields


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Exact terms and Ramsey bounds may pass Python's int-to-str digit limit;
    # lift it while the command runs and its report is written, then restore it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        fields = args.handler(args)
        if fields is not None:
            sys.stdout.write(_report_text(args, fields) + "\n")
        return 0
    except (
        SequenceBudgetError,
        EvaluationInfeasibleError,
        FactorizationBudgetError,
        RuntimeError,
        OSError,
    ) as exc:
        print(f"schur-div: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Bad parameter values (including coloring spec errors) are usage errors.
        print(f"schur-div: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
