"""Consecutive k-th power residues, scanned and constructed.

For every prime p (finitely many exceptions aside) there is a least r
with r and r+1 both k-th powers mod p.  Scanning primes shows the
running maximum of that r flatlining: for squares it never beats 9,
first hit at p = 43.  The second half constructs a consecutive pair for
a single prime by dividing a monochromatic divisible triple of the
coset coloring, which is what bounds the maximum by the restricted
Schur number.
"""

from schurdiv import (
    consecutive_pair_via_triple,
    exceptional_primes,
    residue_run_start,
    scan_primes,
    schur_number,
    summarize_reports,
)


def main():
    print("Least r with r, r+1 both squares mod p:")
    for p in (7, 11, 13, 19, 43, 9967):
        print(f"  p={p}: r = {residue_run_start(p, 2, 2)}")

    print("\nRunning maximum over whole prime ranges (k=2, m=2):")
    for p_max in (50, 1000, 10_000):
        est = summarize_reports(2, 2, 7, p_max, scan_primes(2, 2, 7, p_max))
        print(f"  primes 7..{p_max}: max r = {est.max_r} at p = {est.argmax_p}")

    print(f"\nExceptional primes (no consecutive square pair): "
          f"{exceptional_primes(2, 2, 100)} up to 100")
    print(f"Runs of three squares are rarer; exceptions up to 50: "
          f"{exceptional_primes(2, 3, 50)}")

    s_prime = schur_number(2, restricted=True).S
    print(f"\nThe restricted Schur number for two colors is {s_prime},")
    print("and dividing a monochromatic divisible triple bounds r by it:")
    for p in (43, 101, 9967):
        pair = consecutive_pair_via_triple(p, 2, s_prime)
        w = pair.witness
        print(f"  p={p}: triple ({w.x}, {w.y}, {w.z}) in one coset -> "
              f"pair ({pair.y_prime}, {pair.z_prime})")

    print("\nCubes behave the same way (three cosets, so bound via 3 colors):")
    pair = consecutive_pair_via_triple(31, 3, 17)
    print(f"  p=31: pair ({pair.y_prime}, {pair.z_prime})")


if __name__ == "__main__":
    main()
