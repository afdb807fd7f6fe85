"""Tour of the witness sequences and their divisibility chain.

The whole package rests on one arithmetic fact: there are sequences whose
block sums divide each other whenever one block ends where the other
starts.  This script builds both constructions, shows the chain holding,
and demonstrates how block sums stay computable modulo m long after the
terms themselves stop fitting in the universe.
"""

from schurdiv import (
    FACTORIAL,
    PRODUCT,
    SequenceBudgetError,
    check_divisibility_lemma,
    generate,
    interval_sum,
    interval_sum_mod,
)


def main():
    print("== factorial kind: a(n+1) = (a(1)+...+a(n))! ==")
    seq = generate(FACTORIAL, 5)
    for idx, term in enumerate(seq.terms, 1):
        print(f"  a({idx}) = {term}")

    print("\nBlock sums divide later block sums:")
    for i, j, k in ((1, 3, 5), (2, 4, 6), (1, 2, 4)):
        x = interval_sum(seq, i, j)
        y = interval_sum(seq, j, k) if k <= 6 else None
        print(f"  sum({i}..{j - 1}) = {x} divides sum({j}..{k - 1}) = {y}: {y % x == 0}")

    report = check_divisibility_lemma(seq)
    print(f"\nAll {report.triples_checked} index triples up to {report.limit}: "
          f"{len(report.violations)} violations")

    print("\nThe sixth term is a factorial of a 30-digit number:")
    try:
        generate(FACTORIAL, 6)
    except SequenceBudgetError as exc:
        print(f"  refused: {exc}")

    print("\nBut block sums modulo m never need it:")
    for i, j, m in ((1, 17, 7), (5, 6, 29), (9, 14, 97)):
        print(f"  sum({i}..{j - 1}) mod {m} = {interval_sum_mod(i, j, m)}")

    print("\n== product kind: multiply every block sum seen so far ==")
    prod = generate(PRODUCT, 6)
    for idx, term in enumerate(prod.terms, 1):
        print(f"  b({idx}) = {term}")
    report = check_divisibility_lemma(prod)
    print(f"Same chain, far slower growth: {report.triples_checked} triples, "
          f"{len(report.violations)} violations")


if __name__ == "__main__":
    main()
