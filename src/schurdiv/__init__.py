"""Monochromatic sum triples with a divisibility condition, exactly.

Every finite coloring of the positive integers contains x + y = z in one
color class; this package works with the sharper pattern that also
demands x | y.  It generates the witness sequences whose block sums make
that pattern extractable from a monochromatic triangle, computes
classical and divisibility-restricted Schur numbers by exhaustive
search, scans primes for consecutive k-th power residues, and runs the
coset and root-of-unity colorings that connect the two worlds.
"""

from .coloring import (
    Coloring,
    ColoringSpecError,
    CosetColoring,
    ExplicitColoring,
    OutOfDomainError,
    ResidueColoring,
    UnityColoring,
    parse_coloring_spec,
    parse_prime_exponents,
)
from .multiplicative import (
    ConsecutiveOnesWitness,
    UnityFunction,
    evaluate,
    min_consecutive_ones,
    verify_consecutive_ones_bound,
)
from .primes import (
    FactorizationBudgetError,
    factorize,
    is_prime,
    primes_in_range,
    sieve,
)
from .ramsey import (
    MonoTriangle,
    R3Info,
    SchurWitness,
    direct_schur_div_search,
    find_mono_triangle,
    r3_value_or_bound,
    witness_via_ramsey,
)
from .residues import (
    ConsecutivePair,
    LambdaEstimate,
    consecutive_pair_via_triple,
    exceptional_primes,
    is_kth_residue,
    residue_run_start,
    scan_primes,
    summarize_reports,
)
from .schur_search import (
    BudgetExhausted,
    CacheError,
    ForbiddenTriple,
    SearchResult,
    SearchStats,
    exists_valid_coloring,
    forbidden_triples,
    load_search_cache,
    save_search_cache,
    schur_number,
    validate_coloring,
)
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    FACTORIAL,
    PRODUCT,
    EvaluationInfeasibleError,
    LemmaReport,
    SequenceBudgetError,
    WitnessSequence,
    check_divisibility_lemma,
    generate,
    interval_sum,
    interval_sum_mod,
    kempner,
)

__version__ = "0.1.0"
