"""Cold start and the result records.

`import schurdiv.cli` must not load the process-pool or dataclass
machinery; pools are imported on the first threaded call.  Every result
record is a NamedTuple: fields keep their order and defaults, and
assigning to a field raises AttributeError.  The package exports the
union of its library modules' `__all__` lists and nothing else.  Every
exception it exports survives a pickle round trip, as a pool worker's
exception must.
"""

import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

import schurdiv
from schurdiv import (
    BudgetExhausted,
    CacheError,
    ColoringSpecError,
    ConsecutiveOnesWitness,
    EvaluationInfeasibleError,
    FactorizationBudgetError,
    OutOfDomainError,
    SequenceBudgetError,
    ConsecutivePair,
    LambdaEstimate,
    LemmaReport,
    R3Info,
    SchurWitness,
    SearchResult,
    SearchStats,
    UnityFunction,
    WitnessSequence,
    generate,
)
from schurdiv.sequences import LemmaViolation

HEAVY_MODULES = ("concurrent.futures.process", "multiprocessing", "dataclasses")


def _loaded_after(code):
    src = str(Path(schurdiv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1].split()


class TestColdStart:
    def test_cli_import_loads_no_pool_or_dataclasses(self):
        assert _loaded_after("import schurdiv.cli") == []

    def test_single_process_runs_load_no_pool(self):
        code = (
            "from schurdiv.cli import main\n"
            "main(['schur', '--colors', '2'])\n"
            "main(['residues', '--k', '3', '--m', '2', '--pmin', '2', '--pmax', '200'])"
        )
        assert _loaded_after(code) == []

    def test_threaded_runs_that_never_split_import_no_pool(self):
        # Decided in cube 0, or budgeted: no cube reaches a worker, so no pool is opened.
        code = (
            "from schurdiv import schur_number\n"
            "schur_number(3, True, max_n=111, threads=2)\n"
            "schur_number(4, max_nodes=300_000, threads=2)\n"
            "import sys\n"
            "assert 'concurrent.futures' not in sys.modules"
        )
        assert _loaded_after(code) == []

    def test_threaded_scan_imports_the_pool(self):
        code = "from schurdiv import scan_primes\nscan_primes(3, 2, 2, 3000, threads=2)"
        assert "concurrent.futures.process" in _loaded_after(code)


LIBRARY_MODULES = ("coloring", "multiplicative", "primes", "ramsey", "residues", "schur_search", "sequences")


def test_package_exports_are_the_modules_all():
    declared = [name for module in LIBRARY_MODULES for name in importlib.import_module(f"schurdiv.{module}").__all__]
    public = {name for name in vars(schurdiv) if not name.startswith("_")} - set(LIBRARY_MODULES) - {"cli"}
    assert len(declared) == len(set(declared)) and public == set(declared)
    assert "sieve" not in public
    assert {"CACHE_VERSION", "LemmaViolation", "prime_table", "smallest_prime_factors"} <= public


EXCEPTIONS = [
    BudgetExhausted(42),
    CacheError("cache c.json: entry 0 is not an object"),
    ColoringSpecError("x", 1, "bad"),
    EvaluationInfeasibleError("too many digits"),
    FactorizationBudgetError("cofactor unresolved"),
    OutOfDomainError("n = 0 is outside 1..5"),
    SequenceBudgetError("factorial", 6, 8.8e30, 10**6),
    SequenceBudgetError("factorial", 6, 8.8e30, 10**50, over_budget=False),
]


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda exc: type(exc).__name__)
def test_exception_survives_pickling(exc):
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert (str(copy), copy.args, vars(copy)) == (str(exc), exc.args, vars(exc))


def test_every_exported_exception_is_pickled():
    exported = {value for value in vars(schurdiv).values()
                if isinstance(value, type) and issubclass(value, BaseException)}
    assert exported == {type(exc) for exc in EXCEPTIONS}


RECORDS = [
    (SearchStats, ("nodes", "wall_time"), {}),
    (SearchResult, ("colors", "restricted", "status", "W", "S", "witness_coloring", "stats"), {}),
    (LambdaEstimate, ("k", "m", "p_min", "p_max", "max_r", "argmax_p", "exceptional"), {}),
    (ConsecutivePair, ("y_prime", "z_prime", "witness"), {}),
    (WitnessSequence, ("kind", "terms", "prefix_sums"), {}),
    (LemmaViolation, ("i", "j", "k", "x", "y"), {}),
    (LemmaReport, ("kind", "limit", "triples_checked", "violations"), {}),
    (R3Info, ("colors", "vertices", "exact"), {}),
    (
        SchurWitness,
        ("x", "y", "z", "color", "quotient", "via", "x_span", "y_span", "z_span",
         "triangle", "r_vertices", "r_exact"),
        {"x_span": None, "y_span": None, "z_span": None, "triangle": None,
         "r_vertices": None, "r_exact": None},
    ),
    (ConsecutiveOnesWitness, ("x", "y", "z", "a", "min_a", "bound", "color"), {}),
    (UnityFunction, ("k", "prime_exponents", "default_exponent"),
     {"prime_exponents": MappingProxyType({}), "default_exponent": 0}),
]


class TestRecords:
    @pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=lambda r: getattr(r, "__name__", ""))
    def test_fields_and_defaults(self, record, fields, defaults):
        assert record._fields == fields
        assert record._field_defaults == defaults

    @pytest.mark.parametrize(
        "value, field",
        [
            (SearchStats(nodes=3, wall_time=0.5), "nodes"),
            (LambdaEstimate(3, 2, 2, 30, 7, 19, (2, 7, 13)), "max_r"),
            (R3Info(3, 17, True), "exact"),
            (SchurWitness(x=1, y=1, z=2, color=0, quotient=1, via="direct-search"), "x"),
            (UnityFunction(2, {3: 1}), "k"),
        ],
    )
    def test_assignment_raises(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)

    def test_members_kept(self):
        assert SchurWitness(1, 1, 2, 0, 1, "direct-search").materialized
        assert LemmaReport("factorial", 3, 1, ()).ok

    def test_records_are_tuples(self):
        report = LambdaEstimate(k=3, m=2, p_min=2, p_max=30, max_r=None, argmax_p=None, exceptional=())
        assert report == (3, 2, 2, 30, None, None, ())
        assert report.max_r is report[4]

    def test_witness_sequence_len_is_term_count(self):
        seq = generate("product", 5)
        assert len(seq) == len(seq.terms) == 5
        assert len(WitnessSequence("factorial", (1,), (0, 1))) == 1


class TestUnityFunctionRecord:
    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            UnityFunction(0)

    def test_rejects_non_primes(self):
        with pytest.raises(ValueError, match="non-prime 9"):
            UnityFunction(3, {2: 1, 9: 1})

    def test_normalises_exponents(self):
        f = UnityFunction(3, {2: 7, 5: -1}, default_exponent=-4)
        assert dict(f.prime_exponents) == {2: 1, 5: 2}
        assert f.default_exponent == 2
        assert (f.exponent_of(5), f.exponent_of(11)) == (2, 2)

    def test_exponents_are_read_only(self):
        source = {2: 1}
        f = UnityFunction(2, source)
        assert isinstance(f.prime_exponents, MappingProxyType)
        with pytest.raises(TypeError):
            f.prime_exponents[3] = 1
        source[3] = 1
        assert 3 not in f.prime_exponents

    def test_replace_validates(self):
        f = UnityFunction(3, {2: 1})
        assert f._replace(default_exponent=7).default_exponent == 1
        with pytest.raises(ValueError, match="non-prime 4"):
            f._replace(prime_exponents={4: 1})

    def test_defaults(self):
        f = UnityFunction(4)
        assert (dict(f.prime_exponents), f.default_exponent) == ({}, 0)
        assert f == UnityFunction(4, {}, 0)
