import concurrent.futures
import contextlib
import json
import math
import os
import sys

import pytest

import schurdiv.cli
from schurdiv import __version__, is_prime, residues, scan_primes
from schurdiv import generate, r3_value_or_bound
from schurdiv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def int_str_limit():
    """Python's int-to-str digit limit, or None where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


# Python's own default (4300 digits since 3.11), None where there is no limit.
DEFAULT_INT_STR_LIMIT = getattr(sys.int_info, "default_max_str_digits", None)


@contextlib.contextmanager
def int_str_limit_set(digits):
    """Inside the block the int-to-str limit is `digits` (0 lifts it)."""
    old = int_str_limit()
    if old is not None:
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def run_unlimited(capsys, *argv):
    """Stdout of a command whose report holds integers past the default
    int-to-str limit; main must lift that limit and then restore it."""
    with int_str_limit_set(DEFAULT_INT_STR_LIMIT):
        code, out, err = run(capsys, *argv)
        assert (code, int_str_limit()) == (0, DEFAULT_INT_STR_LIMIT), err
    return out


class TestSeq:
    def test_factorial_with_check(self, capsys):
        report = run_json(
            capsys, "seq", "--kind", "factorial", "--count", "5", "--check-divisibility"
        )
        assert report["terms"] == ["1", "1", "2", "24", str(math.factorial(28))]
        assert report["checked"] is True
        assert report["violations"] == []
        assert report["tool_version"]
        assert report["subcommand"] == "seq"
        assert report["parameters"]["count"] == 5

    def test_product(self, capsys):
        report = run_json(capsys, "seq", "--kind", "product", "--count", "5")
        assert report["terms"] == ["1", "1", "2", "48", "305510400"]
        assert report["checked"] is False

    def test_budget_exceeded_is_runtime_failure(self, capsys):
        code, out, err = run(capsys, "seq", "--kind", "factorial", "--count", "6")
        assert code == 1
        assert "term 6" in err

    def test_budget_digits_below_one_is_usage_error(self, capsys):
        for count in ("1", "3"):
            code, out, err = run(capsys, "seq", "--kind", "factorial", "--count", count, "--budget-digits", "-5")
            assert (code, out) == (2, ""), count
            assert "size_budget must be >= 1, got -5" in err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "seq", "--kind", "factorial", "--count", "4")
        _, out2, _ = run(capsys, "seq", "--kind", "factorial", "--count", "4")
        assert out1 == out2

    @pytest.mark.parametrize("count", [9, 10])
    def test_terms_past_the_int_str_digit_limit(self, capsys, count):
        # Term 9 of the product sequence has over 4,300 digits, the default
        # int-to-str limit of Python 3.11+.
        out = run_unlimited(capsys, "seq", "--kind", "product", "--count", str(count))
        with int_str_limit_set(0):
            terms = [str(t) for t in generate("product", count).terms]
            assert json.loads(out)["terms"] == terms
        assert len(terms[8]) > 4300

    def test_failing_command_restores_the_int_str_limit(self, capsys):
        with int_str_limit_set(DEFAULT_INT_STR_LIMIT):
            assert run(capsys, "seq", "--kind", "factorial", "--count", "6")[0] == 1
            assert int_str_limit() == DEFAULT_INT_STR_LIMIT

    def test_canonical_json(self, capsys):
        _, out, _ = run(capsys, "seq", "--kind", "factorial", "--count", "3")
        assert ": " not in out and ", " not in out
        keys = list(json.loads(out))
        assert keys == sorted(keys)


class TestWitness:
    def test_direct_parity(self, capsys):
        report = run_json(capsys, "witness", "--coloring", "parity", "--via", "direct")
        assert (report["x"], report["y"], report["z"]) == ("2", "2", "4")
        assert report["quotient"] == "1"
        assert report["found"] is True

    def test_ramsey_parity(self, capsys):
        report = run_json(capsys, "witness", "--coloring", "parity", "--via", "ramsey")
        assert (report["x"], report["y"], report["z"]) == ("2", "2", "4")
        assert report["triangle"] == [1, 3, 4]
        assert report["r_vertices"] == 6 and report["r_exact"] is True

    def test_ramsey_unity_stops_at_a_shallow_triangle(self, capsys):
        report = run_json(capsys, "witness", "--coloring", "unity:3:", "--via", "ramsey")
        assert (report["x"], report["y"], report["z"]) == ("1", "1", "2")
        assert report["triangle"] == [1, 2, 3]

    def test_ramsey_symbolic_spans(self, capsys):
        spec = "mod:29:" + ",".join(str(i % 3) for i in range(29))
        report = run_json(capsys, "witness", "--coloring", spec, "--via", "ramsey")
        i, j, k = report["triangle"]
        if isinstance(report["x"], dict):
            assert report["x"] == {"i": i, "j": j}
            assert report["y"] == {"i": j, "j": k}
            assert report["z"] == {"i": i, "j": k}
            assert report["quotient"] is None

    def test_direct_not_found_reported(self, capsys):
        report = run_json(
            capsys, "witness", "--coloring", "parity", "--via", "direct", "--max-n", "3"
        )
        assert report["found"] is False

    def test_max_n_with_ramsey_is_usage_error(self, capsys):
        # The Ramsey route has no search bound to set.
        for max_n in ("-3", "10"):
            code, out, err = run(capsys, "witness", "--coloring", "parity", "--via", "ramsey", "--max-n", max_n)
            assert (code, out) == (2, ""), max_n
            assert "--max-n applies only to --via direct" in err

    def test_direct_explicit_uses_domain(self, capsys, tmp_path):
        path = tmp_path / "colors.json"
        path.write_text(json.dumps([0, 1, 0, 1]))
        report = run_json(capsys, "witness", "--coloring", f"explicit:{path}", "--via", "direct")
        assert (report["x"], report["y"], report["z"]) == ("2", "2", "4")

    def test_bad_spec_is_usage_error(self, capsys):
        code, out, err = run(capsys, "witness", "--coloring", "mod:3:0,1", "--via", "direct")
        assert code == 2
        assert "position" in err

    def test_empty_explicit_table_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "colors.json"
        path.write_text("[]")
        code, out, err = run(capsys, "witness", "--coloring", f"explicit:{path}", "--via", "direct")
        assert (code, out) == (2, "")
        assert "position 9" in err

    def test_modulus_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "witness", "--coloring", "mod:0:", "--via", "direct")
        assert (code, out) == (2, "")
        assert "modulus must be >= 1" in err

    def test_ramsey_modulus_one_golden(self, capsys):
        # Recorded when a modulus-1 rule had its own edge-colour branch; block sums mod 1 must match it.
        code, out, err = run(capsys, "witness", "--coloring", "mod:1:0", "--via", "ramsey")
        assert code == 0, err
        assert out == (
            '{"color":0,"found":true,"parameters":{"coloring":"mod:1:0","max-n":null,"via":"ramsey"},'
            '"quotient":"1","r_exact":true,"r_vertices":3,"subcommand":"witness","tool_version":"0.1.0",'
            '"triangle":[1,2,3],"via":"ramsey-construction","x":"1","y":"1","z":"2"}\n'
        )

    def test_infeasible_is_runtime_failure(self, capsys, tmp_path):
        path = tmp_path / "colors.json"
        path.write_text(json.dumps([0, 1, 0, 1]))
        code, _, err = run(capsys, "witness", "--coloring", f"explicit:{path}", "--via", "ramsey")
        assert code == 1


# Reports recorded from the earlier table-based coset coloring; the
# character-based one must reproduce them byte for byte.
COSET_1000003_3_GOLDEN = {
    "ramsey": '{"color":0,"found":true,"parameters":{"coloring":"coset:1000003:3",'
    '"max-n":null,"via":"ramsey"},"quotient":"8","r_exact":false,'
    '"r_vertices":66,"subcommand":"witness","tool_version":"0.1.0","triangle":[2,4,5],'
    '"via":"ramsey-construction","x":"3","y":"24","z":"27"}\n',
    "direct": '{"color":0,"found":true,"parameters":{"coloring":"coset:1000003:3",'
    '"max-n":null,"via":"direct"},"quotient":"8","subcommand":"witness",'
    '"tool_version":"0.1.0","via":"direct-search","x":"1","y":"8","z":"9"}\n',
}


@pytest.mark.parametrize("via", sorted(COSET_1000003_3_GOLDEN))
def test_coset_witness_golden(capsys, via):
    code, out, err = run(capsys, "witness", "--coloring", "coset:1000003:3", "--via", via)
    assert code == 0, err
    assert out == COSET_1000003_3_GOLDEN[via]


class TestRamsey:
    def test_exact(self, capsys):
        report = run_json(capsys, "ramsey", "--colors", "3")
        assert (report["vertices"], report["exact"]) == (17, True)

    def test_bound(self, capsys):
        report = run_json(capsys, "ramsey", "--colors", "4")
        assert (report["vertices"], report["exact"]) == (66, False)

    def test_report_bytes(self, capsys):
        # Recorded when the fields were copied one by one; the report is now
        # built from the record and must not change.
        code, out, _ = run(capsys, "ramsey", "--colors", "4")
        assert code == 0
        assert out == (
            '{"colors":4,"exact":false,"parameters":{"colors":4},'
            '"subcommand":"ramsey","tool_version":"0.1.0","vertices":66}\n'
        )

    def test_bound_past_the_int_str_digit_limit(self, capsys):
        out = run_unlimited(capsys, "ramsey", "--colors", "2000")
        with int_str_limit_set(0):
            vertices = json.loads(out)["vertices"]
            assert vertices == r3_value_or_bound(2000).vertices
            assert len(str(vertices)) > 4300


class TestSchur:
    def test_restricted_two_colors(self, capsys):
        report = run_json(capsys, "schur", "--colors", "2", "--restricted")
        assert (report["status"], report["W"], report["S"]) == ("exact", 11, 12)
        assert len(report["witness_coloring"]) == 11

    def test_byte_identical_with_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.json")
        code1, out1, _ = run(capsys, "schur", "--colors", "2", "--restricted", "--cache", cache)
        code2, out2, _ = run(capsys, "schur", "--colors", "2", "--restricted", "--cache", cache)
        assert code1 == code2 == 0
        # the second run resumes from the cache, so node counts differ;
        # everything else is byte-stable
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r2["nodes"] == 0
        for key in r1.keys() | r2.keys():
            if key != "nodes":
                assert r1[key] == r2[key], key
        code3, out3, _ = run(capsys, "schur", "--colors", "2", "--restricted", "--cache", cache)
        assert out3 == out2

    def test_environment_names_no_cache(self, capsys, tmp_path, monkeypatch):
        # Only --cache names a cache file, so the environment cannot change a report.
        plain = run(capsys, "schur", "--colors", "3")
        cache = tmp_path / "env-cache.json"
        monkeypatch.setenv("SCHUR_DIV_CACHE", str(cache))
        assert run(capsys, "schur", "--colors", "3") == plain
        assert not cache.exists()

    def test_budget_lower_bound(self, capsys):
        report = run_json(
            capsys, "schur", "--colors", "3", "--restricted", "--budget-nodes", "100"
        )
        assert report["status"] == "lower_bound"
        assert report["S"] is None

    @pytest.mark.parametrize("flag, value", [
        ("--budget-secs", "nan"), ("--budget-secs", "-5"), ("--budget-secs", "inf"), ("--budget-nodes", "-3"),
    ])
    def test_invalid_budget_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "schur", "--colors", "3", flag, value)
        assert (code, out) == (2, "")
        assert "must be" in err and value in err

    @pytest.mark.parametrize("colors", ["0", "-1"])
    def test_color_count_below_one_usage_error(self, capsys, colors):
        code, out, err = run(capsys, "schur", "--colors", colors)
        assert (code, out) == (2, "")
        assert f"color count must be >= 1, got {colors}" in err

    @pytest.mark.parametrize("max_n", ["0", "-4"])
    def test_max_n_below_one_usage_error(self, capsys, max_n):
        code, out, err = run(capsys, "schur", "--colors", "2", "--max-n", max_n)
        assert (code, out) == (2, "")
        assert f"max_n must be >= 1, got {max_n}" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_usage_error(self, capsys, threads):
        code, out, err = run(capsys, "schur", "--colors", "2", "--threads", threads)
        assert (code, out) == (2, "")
        assert f"threads must be >= 1, got {threads}" in err


class TestResidues:
    EXPECTED_CSV = (
        "p,k,m,r,exceptional\n"
        "7,2,2,1,false\n"
        "11,2,2,3,false\n"
        "13,2,2,3,false\n"
        "17,2,2,1,false\n"
        "19,2,2,4,false\n"
        "23,2,2,1,false\n"
        "29,2,2,4,false\n"
        "31,2,2,1,false\n"
        "37,2,2,3,false\n"
        "41,2,2,1,false\n"
        "43,2,2,9,false\n"
        "47,2,2,1,false\n"
        "max_r=9,argmax_p=43\n"
    )

    def test_csv_frozen(self, capsys):
        code, out, _ = run(
            capsys, "residues", "--k", "2", "--m", "2",
            "--pmin", "7", "--pmax", "50", "--format", "csv",
        )
        assert code == 0
        assert out == self.EXPECTED_CSV

    def test_csv_exceptional_rows(self, capsys):
        code, out, _ = run(
            capsys, "residues", "--k", "2", "--m", "2",
            "--pmin", "2", "--pmax", "6", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "2,2,2,,true"
        assert lines[-1] == "max_r=,argmax_p="

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_usage_error(self, capsys, threads):
        code, out, err = run(capsys, "residues", "--k", "2", "--m", "2", "--pmin", "7", "--pmax", "20",
                             "--threads", threads)
        assert (code, out) == (2, "")
        assert f"threads must be >= 1, got {threads}" in err

    def test_json_summary(self, capsys):
        report = run_json(
            capsys, "residues", "--k", "2", "--m", "2", "--pmin", "2", "--pmax", "100"
        )
        assert report["summary"]["max_r"] == 9
        assert report["summary"]["argmax_p"] == 43
        assert report["summary"]["exceptional"] == [2, 3, 5]
        assert {"p": 43, "r": 9, "exceptional": False} in report["reports"]

    def test_json_summary_bytes(self, capsys):
        # Recorded when the summary fields were copied one by one.
        code, out, _ = run(capsys, "residues", "--k", "3", "--m", "2", "--pmin", "2", "--pmax", "30")
        assert code == 0
        assert out.endswith(
            '"subcommand":"residues","summary":{"argmax_p":19,"exceptional":[2,7,13],"k":3,"m":2,'
            '"max_r":7,"p_max":30,"p_min":2},"tool_version":"0.1.0"}\n'
        )

    @staticmethod
    def record_stdout(k, m, pmin, pmax, fmt, threads):
        """The report as written from `scan_primes` rows and per-row dicts."""
        reports = scan_primes(k, m, pmin, pmax, threads=threads)
        max_r = argmax_p = None
        for p, r in reports:
            if r is not None and (max_r is None or r > max_r):
                max_r, argmax_p = r, p
        if fmt == "csv":
            lines = ["p,k,m,r,exceptional"] + [
                f"{p},{k},{m},{'' if r is None else r},"
                f"{'true' if r is None else 'false'}"
                for p, r in reports
            ]
            lines.append(f"max_r={'' if max_r is None else max_r},"
                         f"argmax_p={'' if argmax_p is None else argmax_p}")
            return "\n".join(lines) + "\n"
        report = {
            "tool_version": __version__,
            "subcommand": "residues",
            "parameters": {"k": k, "m": m, "pmin": pmin, "pmax": pmax,
                           "format": fmt, "threads": threads},
            "reports": [{"p": p, "r": r, "exceptional": r is None} for p, r in reports],
            "summary": {"k": k, "m": m, "p_min": pmin, "p_max": pmax, "max_r": max_r,
                        "argmax_p": argmax_p,
                        "exceptional": [p for p, r in reports if r is None]},
        }
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "k, m, pmin, pmax, threads",
        [
            (3, 2, 24, 28, 1),  # no prime in the window
            (2, 2, 2, 2, 1),  # p = 2 with m = 2 is exceptional
            (2, 2, 2, 6, 1),  # every prime exceptional
            (1, 1, 2, 100, 1),
            (5, 3, 2, 3000, 1),
            (3, 2, 2, 20_000, 2),
        ],
    )
    def test_rows_written_as_the_records_were(self, capsys, fmt, k, m, pmin, pmax, threads):
        code, out, _ = run(
            capsys, "residues", "--k", str(k), "--m", str(m), "--pmin", str(pmin),
            "--pmax", str(pmax), "--format", fmt, "--threads", str(threads),
        )
        assert code == 0
        assert out == self.record_stdout(k, m, pmin, pmax, fmt, threads)

    def test_traced_names_stay_cli_attributes(self, capsys, monkeypatch):
        # bench/trace_cli.py wraps these three attributes of schurdiv.cli.
        assert schurdiv.cli.scan_primes is scan_primes
        assert schurdiv.cli.is_prime is is_prime
        assert schurdiv.cli.summarize_reports is residues.summarize_reports
        calls, scans = [], []

        def summarize(*args):
            calls.append(args[:4])
            return residues.summarize_reports(*args)

        def scan(*args, **kwargs):
            scans.append((args, kwargs))
            return scan_primes(*args, **kwargs)

        monkeypatch.setattr(schurdiv.cli, "summarize_reports", summarize)
        monkeypatch.setattr(schurdiv.cli, "scan_primes", scan)
        run_json(capsys, "residues", "--k", "2", "--m", "2", "--pmin", "7", "--pmax", "50")
        assert calls == [(2, 2, 7, 50)]
        assert scans == [((2, 2, 7, 50), {"threads": 1})]

    def test_bad_range_usage_error(self, capsys):
        code, _, err = run(
            capsys, "residues", "--k", "2", "--m", "2", "--pmin", "9", "--pmax", "5"
        )
        assert code == 2
        assert "p_min" in err

    @pytest.mark.parametrize("flag", ["--k", "--m"])
    def test_bad_power_or_run_usage_error_without_primes(self, capsys, flag):
        args = {"--k": "2", "--m": "2", flag: "0"}
        code, out, err = run(
            capsys, "residues", "--k", args["--k"], "--m", args["--m"], "--pmin", "4", "--pmax", "4"
        )
        assert (code, out) == (2, "")
        assert ">= 1" in err


class TestMult:
    def test_liouville_minimal(self, capsys):
        report = run_json(
            capsys, "mult", "--k", "2", "--default-exp", "1", "--bound", "50"
        )
        assert report["minimal_a"] == 9
        assert report["witness"] is None

    def test_verified_bound(self, capsys):
        report = run_json(
            capsys, "mult", "--k", "2", "--default-exp", "1",
            "--bound", "50", "--verify-s-prime", "12",
        )
        assert report["witness"] == {"x": 1, "y": 9, "z": 10, "a": 9}
        assert report["minimal_a"] == 9

    def test_minimal_a_stays_within_the_search_bound(self, capsys):
        # The first pair, a = 9, lies past --bound 5: only the verification finds it.
        report = run_json(
            capsys, "mult", "--k", "2", "--default-exp", "1",
            "--bound", "5", "--verify-s-prime", "12",
        )
        assert (report["minimal_a"], report["search_bound"]) == (None, 5)
        assert report["witness"] == {"x": 1, "y": 9, "z": 10, "a": 9}

    def test_prime_assignments(self, capsys):
        report = run_json(capsys, "mult", "--k", "2", "--primes", "2=1", "--bound", "10")
        assert report["minimal_a"] == 3

    def test_verify_bound_below_one_usage_error(self, capsys):
        code, out, err = run(capsys, "mult", "--k", "2", "--verify-s-prime", "0")
        assert (code, out) == (2, "")
        assert "restricted_schur_bound must be >= 1, got 0" in err

    def test_k_below_one_usage_error(self, capsys):
        code, out, err = run(capsys, "mult", "--k", "0")
        assert (code, out) == (2, "")
        assert "k must be >= 1, got 0" in err

    def test_bad_primes_usage_error(self, capsys):
        for prime in (4, 1):
            code, _, err = run(capsys, "mult", "--k", "2", "--primes", f"{prime}=1")
            assert code == 2
            assert err.startswith(f"schur-div: --primes: exponent assigned to non-prime {prime}")

    def test_primes_spec_error_names_the_flag_not_a_coloring_spec(self, capsys):
        code, out, err = run(capsys, "mult", "--k", "2", "--primes", "2=1,2=1")
        assert (code, out) == (2, "")
        assert err == "schur-div: --primes: position 4: prime 2 assigned twice\n"

    @pytest.mark.parametrize("primes", ["2", "2=x", "x=1", "2=1,2=0", "2=1,,3=1", "1=1"])
    def test_malformed_primes_usage_error(self, capsys, primes):
        code, out, err = run(capsys, "mult", "--k", "2", "--primes", primes)
        assert (code, out) == (2, "")
        assert err.startswith("schur-div: --primes:")


class TestUsage:
    def test_seed_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "--seed", "1", "ramsey", "--colors", "3")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "seq", "--kind", "factorial", "--count", "3", "--wat")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2


@pytest.fixture
def inline_pools(monkeypatch):
    """Process pools on a pinned 2-CPU machine that record their worker
    count and run each task at once, so no process is started."""
    built = []

    class InlinePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            # A generator, as Executor.map returns: callers may close it.
            return (fn(item) for item in items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ("residues", "--k", "3", "--m", "2", "--pmin", "2", "--pmax", "5000"),
        ("residues", "--k", "3", "--m", "2", "--pmin", "2", "--pmax", "5000", "--format", "csv"),
        ("schur", "--colors", "3"),
    ],
)
def test_threads_beyond_the_cpus_share_one_worker_each(capsys, inline_pools, argv):
    """--threads 500 builds a pool of os.cpu_count() workers, and reports
    the same rows, witness and node count as --threads 2; only the echoed
    parameter differs."""
    code, two, _ = run(capsys, *argv, "--threads", "2")
    assert code == 0
    code, many, _ = run(capsys, *argv, "--threads", "500")
    assert code == 0
    assert inline_pools == [2, 2]
    assert many == two.replace('"threads":2', '"threads":500')


# Stdout of every JSON subcommand, byte for byte: fields, envelope and key
# order of each report are part of the tool's output contract.
REPORT_BYTES = {
    "seq --kind factorial --count 5 --check-divisibility": (
        '{"checked":true,"count":5,"kind":"factorial","parameters":{"budget-digits":1000000,'
        '"count":5,"kind":"factorial"},"subcommand":"seq","terms":["1","1","2","24",'
        '"304888344611713860501504000000"],"tool_version":"0.1.0","violations":[]}\n'
    ),
    "seq --kind product --count 5": (
        '{"checked":false,"count":5,"kind":"product","parameters":{"budget-digits":1000000,'
        '"count":5,"kind":"product"},"subcommand":"seq","terms":["1","1","2","48",'
        '"305510400"],"tool_version":"0.1.0","violations":[]}\n'
    ),
    "witness --coloring parity --via direct": (
        '{"color":0,"found":true,"parameters":{"coloring":"parity","max-n":null,'
        '"via":"direct"},"quotient":"1","subcommand":"witness","tool_version":"0.1.0",'
        '"via":"direct-search","x":"2","y":"2","z":"4"}\n'
    ),
    "witness --coloring coset:7:2 --via ramsey": (
        '{"color":0,"found":true,"parameters":{"coloring":"coset:7:2","max-n":null,'
        '"via":"ramsey"},"quotient":"1","r_exact":true,"r_vertices":17,'
        '"subcommand":"witness","tool_version":"0.1.0","triangle":[1,2,3],'
        '"via":"ramsey-construction","x":"1","y":"1","z":"2"}\n'
    ),
    # each edge sum of the triangle [1,4,5] is 0 mod 4
    "witness --coloring mod:4:2,0,1,1 --via ramsey": (
        '{"color":2,"found":true,"parameters":{"coloring":"mod:4:2,0,1,1","max-n":null,'
        '"via":"ramsey"},"quotient":"6","r_exact":true,"r_vertices":17,'
        '"subcommand":"witness","tool_version":"0.1.0","triangle":[1,4,5],'
        '"via":"ramsey-construction","x":"4","y":"24","z":"28"}\n'
    ),
    # color 3 is the extra color, for multiples of 13
    "witness --coloring coset:13:3 --via ramsey": (
        '{"color":3,"found":true,"parameters":{"coloring":"coset:13:3","max-n":null,'
        '"via":"ramsey"},"quotient":"11726474792758225403904000000","r_exact":false,'
        '"r_vertices":66,"subcommand":"witness","tool_version":"0.1.0","triangle":[3,5,6],'
        '"via":"ramsey-construction","x":"26","y":"304888344611713860501504000000",'
        '"z":"304888344611713860501504000026"}\n'
    ),
    "witness --coloring mod:1:0 --via direct --max-n 1": (
        '{"found":false,"n_max":1,"parameters":{"coloring":"mod:1:0","max-n":1,'
        '"via":"direct"},"subcommand":"witness","tool_version":"0.1.0",'
        '"via":"direct-search"}\n'
    ),
    "ramsey --colors 4": (
        '{"colors":4,"exact":false,"parameters":{"colors":4},"subcommand":"ramsey",'
        '"tool_version":"0.1.0","vertices":66}\n'
    ),
    "schur --colors 2 --restricted": (
        '{"S":12,"W":11,"colors":2,"nodes":87,"parameters":{"budget-nodes":null,'
        '"budget-secs":null,"colors":2,"max-n":null,"restricted":true,"threads":1},'
        '"restricted":true,"status":"exact","subcommand":"schur","tool_version":"0.1.0",'
        '"witness_coloring":[0,1,1,0,1,0,1,1,1,0,1]}\n'
    ),
    "mult --k 2 --default-exp 1 --bound 50 --verify-s-prime 12": (
        '{"k":2,"minimal_a":9,"parameters":{"bound":50,"default-exp":1,"k":2,"primes":"",'
        '"verify-s-prime":12},"search_bound":50,"subcommand":"mult","tool_version":"0.1.0",'
        '"witness":{"a":9,"x":1,"y":9,"z":10}}\n'
    ),
}


@pytest.mark.parametrize("invocation", sorted(REPORT_BYTES))
def test_report_bytes_of_every_subcommand(capsys, invocation):
    code, out, err = run(capsys, *invocation.split())
    assert (code, err) == (0, "")
    assert out == REPORT_BYTES[invocation]
