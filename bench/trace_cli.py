"""Run one `schur-div` invocation with timing spans around each schurdiv layer.

    python3 bench/trace_cli.py TRACE_DIR <schur-div arguments...>

Wrappers go on module attributes that the package looks up at call time,
so the program runs unchanged.  Classes are never wrapped (`ramsey`
dispatches on `isinstance`).  Spans (name, start, end, parent) stay in
memory; when the process ends they are reduced to per-name call counts,
inclusive time and self time (a span minus its child spans) and written
to TRACE_DIR/<pid>.json.  Worker processes forked by `--threads` inherit
the wrappers and write their own file when they exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from multiprocessing import util as mp_util

import schurdiv.cli
import schurdiv.coloring
import schurdiv.multiplicative
import schurdiv.primes
import schurdiv.ramsey
import schurdiv.residues
import schurdiv.sequences

# (module, attribute, span name).  Several attributes may share a span
# name when the same function is imported into more than one module.
WRAPPED = [
    (schurdiv.cli, "schur_number", "schur_search.schur_number"),
    (schurdiv.cli, "scan_primes", "residues.scan_primes"),
    (schurdiv.cli, "summarize_reports", "residues.summarize_reports"),
    (schurdiv.cli, "parse_coloring_spec", "coloring.parse_coloring_spec"),
    (schurdiv.cli, "witness_via_ramsey", "ramsey.witness_via_ramsey"),
    (schurdiv.cli, "direct_schur_div_search", "ramsey.direct_schur_div_search"),
    (schurdiv.cli, "r3_value_or_bound", "ramsey.r3_value_or_bound"),
    (schurdiv.cli, "generate", "sequences.generate"),
    (schurdiv.cli, "check_divisibility_lemma", "sequences.check_divisibility_lemma"),
    (schurdiv.cli, "min_consecutive_ones", "multiplicative.min_consecutive_ones"),
    (schurdiv.cli, "verify_consecutive_ones_bound", "multiplicative.verify_consecutive_ones_bound"),
    (schurdiv.cli, "is_prime", "primes.is_prime"),
    (schurdiv.residues, "residue_run_start", "residues.residue_run_start"),
    (schurdiv.residues, "primes_in_range", "primes.primes_in_range"),
    (schurdiv.multiplicative, "factorize", "primes.factorize"),
    (schurdiv.multiplicative, "evaluate", "multiplicative.evaluate"),
    (schurdiv.coloring, "evaluate", "multiplicative.evaluate"),
    (schurdiv.ramsey, "interval_sum_mod", "sequences.interval_sum_mod"),
    (schurdiv.ramsey, "find_mono_triangle", "ramsey.find_mono_triangle"),
    (schurdiv.ramsey, "generate", "sequences.generate"),
    (schurdiv.ramsey, "direct_schur_div_search", "ramsey.direct_schur_div_search"),
    (schurdiv.sequences, "kempner", "sequences.kempner"),
    (schurdiv.sequences, "factorize", "primes.factorize"),
    (schurdiv.primes, "prime_table", "primes.prime_table"),
]


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        # A forked worker starts with empty spans and writes its own file
        # from multiprocessing's exit hook (atexit does not run there).
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.stack = []
        self.counters = {}
        mp_util.Finalize(None, self.write, exitpriority=0)

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def summary(self) -> dict:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        names: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if span is None:  # still open: the process is leaving mid-call
                continue
            name, start, end, _ = span
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return {"pid": os.getpid(), "spans": names, "counters": self.counters}

    def write(self) -> None:
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def _count_nodes(tracer: Tracer, result) -> None:
    tracer.counters["schur_search.nodes"] = (
        tracer.counters.get("schur_search.nodes", 0) + result.stats.nodes
    )


def main() -> int:
    tracer = Tracer(sys.argv[1])
    for module, attr, name in WRAPPED:
        on_result = _count_nodes if name == "schur_search.schur_number" else None
        setattr(module, attr, tracer.span(name, getattr(module, attr), on_result))
    cli_main = tracer.span("cli.main", schurdiv.cli.main)
    try:
        return cli_main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.write()


if __name__ == "__main__":
    sys.exit(main())
