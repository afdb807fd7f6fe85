"""Benchmark of the `schur-div` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`
directory, so nothing needs installing.  Each invocation of the
workload runs in a fresh process with SCHUR_DIV_CACHE unset, and its
stdout is checked.  The invocation list repeats while one more
repetition fits in --seconds (at least one always runs).

--trace 0 reports the end-to-end metrics: medians over the repetitions
of wall and CPU time, the largest resident set of any invocation, and
the set-up time (interpreter start plus `import schurdiv.cli`, median of
SETUP_SAMPLES fresh processes, half before and half after the
repetitions).  --trace 1 alternates untraced and traced repetitions
(bench/trace_cli.py) and reports the per-layer metrics.  The last line of stdout is one JSON object; lines above it
list the work counters and any that differ from bench/baseline.json.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckFailed
from workloads import BUILDERS, build

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline.json"

SETUP_SAMPLES = 10
STARTED = time.perf_counter()
RUN_CAP_S = 170.0  # a run must end within 180 s
INVOCATION_TIMEOUT_S = 150.0
# What the installed `schur-div` entry point runs.
CONSOLE_SCRIPT = "import sys; from schurdiv.cli import main; sys.exit(main())"

# Per-layer metric -> (span name, field) from bench/trace_cli.py.
SPAN_METRICS = {
    "cli.self_s": ("cli.main", "self_s"),
    "cli.calls": ("cli.main", "calls"),
    "schur_search.self_s": ("schur_search.schur_number", "self_s"),
    "schur_search.calls": ("schur_search.schur_number", "calls"),
    "residues.scan_s": ("residues.scan_primes", "total_s"),
    "residues.run_start_s": ("residues.residue_run_start", "total_s"),
    "residues.run_start_calls": ("residues.residue_run_start", "calls"),
    "residues.summarize_s": ("residues.summarize_reports", "total_s"),
    "primes.primes_in_range_s": ("primes.primes_in_range", "total_s"),
    "primes.prime_table_s": ("primes.prime_table", "total_s"),
    "primes.factorize_s": ("primes.factorize", "total_s"),
    "primes.factorize_calls": ("primes.factorize", "calls"),
    "coloring.parse_s": ("coloring.parse_coloring_spec", "total_s"),
    "coloring.parse_calls": ("coloring.parse_coloring_spec", "calls"),
    "sequences.interval_sum_mod_s": ("sequences.interval_sum_mod", "total_s"),
    "sequences.interval_sum_mod_calls": ("sequences.interval_sum_mod", "calls"),
    "sequences.kempner_s": ("sequences.kempner", "total_s"),
    "sequences.generate_s": ("sequences.generate", "total_s"),
    "ramsey.witness_via_ramsey_s": ("ramsey.witness_via_ramsey", "total_s"),
    "ramsey.find_mono_triangle_s": ("ramsey.find_mono_triangle", "total_s"),
    "ramsey.direct_search_s": ("ramsey.direct_schur_div_search", "total_s"),
    "multiplicative.evaluate_s": ("multiplicative.evaluate", "total_s"),
    "multiplicative.evaluate_calls": ("multiplicative.evaluate", "calls"),
    "multiplicative.verify_s": ("multiplicative.verify_consecutive_ones_bound", "total_s"),
}


@dataclass
class Outcome:
    """One finished child process.  wait4 reports CPU time and peak RSS for
    its whole process tree (pool workers included)."""

    returncode: int
    timed_out: bool
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str], stdout_path: Path, timeout: float) -> Outcome:
    env = dict(os.environ)
    # Children run as an installed `schur-div` does: no cache override,
    # bytecode cached (the warm-up import writes it), stdout buffered.
    for name in ("SCHUR_DIV_CACHE", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timed_out = threading.Event()

    def kill_group() -> None:
        timed_out.set()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, cwd=ROOT,
                                env=env, start_new_session=True)
        timer = threading.Timer(timeout, kill_group)
        timer.start()
        try:
            stderr = proc.stderr.read()
            # Wait without reaping, so the timer never signals a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            kill_group()
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stderr.close()
    if timed_out.is_set():
        # Give killed pool workers a moment to leave the process group.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return Outcome(proc.returncode, timed_out.is_set(), wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, stdout_path.read_bytes(), stderr)


class Run:
    def __init__(self, args: argparse.Namespace, work: Path):
        self.args = args
        self.work = work
        self.invocations = build(args.workload, args.seed, work)
        self.attempted = 0
        self.failed = 0
        self.first_sha: dict[str, str] = {}
        self.verified: dict[tuple[str, str], dict[str, int]] = {}
        self.failures: list[str] = []

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{key}: {why}")

    def check(self, inv, out: bytes) -> dict[str, int]:
        sha = hashlib.sha256(out).hexdigest()
        first = self.first_sha.setdefault(inv.key, sha)
        if sha != first:
            raise CheckFailed("stdout differs from the first repetition")
        if (inv.key, sha) not in self.verified:
            try:
                self.verified[inv.key, sha] = inv.check(out)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                raise CheckFailed(f"malformed output: {exc!r}") from None
        return self.verified[inv.key, sha]

    def rep(self, traced: bool) -> dict | None:
        """One pass over the invocation list; None when it had to stop early."""
        wall = cpu = rss = 0.0
        counters: dict[str, int] = {"cli.bytes_out": 0}
        spans: dict[str, dict] = {}
        digest = hashlib.sha256()
        for index, inv in enumerate(self.invocations):
            timeout = min(INVOCATION_TIMEOUT_S, _remaining() - 2)
            if timeout <= 0:
                return None
            if inv.prepare is not None:
                inv.prepare()
            argv = [sys.executable, "-c", CONSOLE_SCRIPT, *inv.args]
            trace_dir = None
            if traced:
                trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=self.work))
                argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(trace_dir), *inv.args]
            self.attempted += 1
            proc = run_process(argv, self.work / f"stdout-{index}", timeout)
            if proc.timed_out or proc.returncode != 0:
                why = "timed out" if proc.timed_out else f"exit code {proc.returncode}"
                self.fail(inv.key, f"{why}: {proc.stderr.decode(errors='replace').strip()[-300:]}")
                return None
            try:
                for name, value in self.check(inv, proc.stdout).items():
                    counters[name] = counters.get(name, 0) + value
            except CheckFailed as exc:
                self.fail(inv.key, str(exc))
            wall += proc.wall
            cpu += proc.cpu
            rss = max(rss, proc.rss_mb)
            counters["cli.bytes_out"] += len(proc.stdout)
            digest.update(proc.stdout)
            if trace_dir is not None:
                _merge_trace(trace_dir, spans, counters)
        counters["stdout.digest"] = int(digest.hexdigest()[:12], 16)
        return {"wall": wall, "cpu": cpu, "rss": rss, "counters": counters, "spans": spans}


def _remaining() -> float:
    return RUN_CAP_S - (time.perf_counter() - STARTED)


def _merge_trace(trace_dir: Path, spans: dict, counters: dict) -> None:
    for path in trace_dir.glob("*.json"):
        data = json.loads(path.read_text(encoding="utf-8"))
        for name, entry in data["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += entry[field]
            counters[f"calls.{name}"] = counters.get(f"calls.{name}", 0) + entry["calls"]
        for name, value in data["counters"].items():
            counters["traced." + name] = counters.get("traced." + name, 0) + value
    shutil.rmtree(trace_dir)


def measure_setup(count: int, work: Path) -> list[float]:
    """Wall times of `count` fresh processes that only import schurdiv.cli."""
    argv = [sys.executable, "-c", "import schurdiv.cli"]
    samples = []
    for _ in range(count):
        proc = run_process(argv, work / "setup-stdout", INVOCATION_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"bench: `import schurdiv.cli` failed:\n{proc.stderr.decode()}")
        samples.append(proc.wall)
    return samples


def load_baseline(workload: str, seed: int) -> dict[str, int]:
    if not BASELINE.exists():
        return {}
    data = json.loads(BASELINE.read_text(encoding="utf-8"))
    return data.get("counters", {}).get(workload, {}).get(str(seed), {})


def record_baseline(workload: str, seed: int, counters: dict[str, int]) -> None:
    data = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    entry = data.setdefault("counters", {}).setdefault(workload, {}).setdefault(str(seed), {})
    entry.update(counters)
    data["counters"][workload] = dict(sorted(data["counters"][workload].items(), key=lambda kv: int(kv[0])))
    BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-baseline", action="store_true",
                        help="store this run's work counters in bench/baseline.json")
    args = parser.parse_args()

    if not (SRC / "schurdiv" / "cli.py").is_file():
        print(f"bench: no schurdiv sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind so the running invocation is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        began = time.perf_counter()
        measure_setup(1, work)  # the first import may also write the bytecode cache
        # Half the set-up samples before the measured window and half after,
        # so their median spans the run.
        setup_samples = measure_setup(SETUP_SAMPLES // 2, work)
        run = Run(args, work)
        reps, traced_reps = _measure(run, args)
        setup_samples += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total = time.perf_counter() - began

    counters: dict[str, int] = {}
    for rep in reps + traced_reps:
        for name, value in rep["counters"].items():
            if counters.setdefault(name, value) != value:
                run.fail("counters", f"{name} differs between repetitions")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} untraced and {len(traced_reps)} traced repetitions, {total:.1f} s in all")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio {run.failed}/{run.attempted}")
    print("wall_s per repetition: " + " ".join(f"{rep['wall']:.3f}" for rep in reps))
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_samples))
    _print_rates(args.workload, reps, counters)
    baseline = load_baseline(args.workload, args.seed)
    for name in sorted(counters):
        drift = ""
        if name in baseline and baseline[name] != counters[name]:
            drift = f"   COUNTER DRIFT: baseline {baseline[name]}"
        print(f"counter {name} {counters[name]}{drift}")
    if args.record_baseline and not run.failed:
        record_baseline(args.workload, args.seed, counters)

    if args.trace:
        metrics = _layer_metrics(reps, traced_reps, counters)
    else:
        metrics = _end_to_end_metrics(reps, setup_samples)
    print(json.dumps({
        "correct": run.failed == 0 and bool(reps) and (bool(traced_reps) or not args.trace),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def _measure(run: Run, args) -> tuple[list[dict], list[dict]]:
    """Repeat the workload (alternating with traced passes under --trace 1)
    while one more repetition fits in --seconds."""
    reps: list[dict] = []
    traced_reps: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        rep = run.rep(traced=False)
        if rep is None:
            break
        reps.append(rep)
        next_rep = rep["wall"]
        if args.trace:
            rep = run.rep(traced=True)
            if rep is None:
                break
            traced_reps.append(rep)
            next_rep += rep["wall"]
        # Output checks are cached by content, so a repeat costs about its wall time.
        now = time.perf_counter()
        if now + next_rep > deadline or next_rep > _remaining() - 5:
            break
    return reps, traced_reps


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps) if reps else 0.0


def _end_to_end_metrics(reps: list[dict], setup_samples: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": _median(reps, "wall"), "unit": "s"},
        "cpu_s": {"value": _median(reps, "cpu"), "unit": "s"},
        "peak_rss_mb": {"value": max((rep["rss"] for rep in reps), default=0.0), "unit": "MB"},
    }


def _print_rates(workload: str, reps: list[dict], counters: dict[str, int]) -> None:
    """Rates that cannot be end-to-end metrics, which every workload must
    report: search nodes/s where a budget fixes the node count, primes/s."""
    wall = _median(reps, "wall")
    if wall and workload == "search-seq":
        print(f"rate nodes_per_s {counters.get('schur_search.nodes', 0) / wall:.1f}")
    if wall and workload == "scan":
        print(f"rate primes_per_s {counters.get('residues.primes_scanned', 0) / wall:.1f}")


def _layer_metrics(reps: list[dict], traced_reps: list[dict], counters: dict[str, int]) -> dict:
    metrics = {}
    for name, (span, field) in SPAN_METRICS.items():
        values = [rep["spans"].get(span, {}).get(field, 0) for rep in traced_reps] or [0]
        if field == "calls":
            metrics[name] = {"value": values[0], "unit": "count"}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
    metrics["cli.bytes_out"] = {"value": counters.get("cli.bytes_out", 0), "unit": "bytes"}
    metrics["schur_search.nodes"] = {"value": counters.get("traced.schur_search.nodes", 0), "unit": "count"}
    metrics["residues.candidates"] = {"value": counters.get("residues.candidates", 0), "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": _median(traced_reps, "wall") - _median(reps, "wall"), "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
