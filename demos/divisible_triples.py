"""Monochromatic x + y = z with x | y, two independent ways.

Any finite coloring of the positive integers contains such a triple.  The
constructive route colors edges of a complete graph by block sums of the
factorial witness sequence and reads the triple off a monochromatic
triangle; the direct route just scans (x, a*x, (a+1)*x) patterns.  Both
are shown here on residue, coset, and root-of-unity colorings.
"""

from schurdiv import (
    UnityColoring,
    UnityFunction,
    direct_schur_div_search,
    parse_coloring_spec,
    witness_via_ramsey,
)


def show(witness):
    if witness is None:
        return "none"
    if witness.materialized:
        core = f"x={witness.x} y={witness.y} z={witness.z} (quotient {witness.quotient})"
    else:
        core = (f"x=sum{witness.x_span} y=sum{witness.y_span} z=sum{witness.z_span} "
                f"[too large to print]")
    extra = f", triangle {witness.triangle}" if witness.triangle else ""
    return f"{core}, color {witness.color}{extra}"


def main():
    specs = [
        ("parity", "even/odd"),
        ("mod:3:0,1,2", "three residue classes mod 3"),
        ("coset:7:2", "squares vs non-squares mod 7"),
        ("coset:11:2", "squares vs non-squares mod 11"),
    ]
    for spec, blurb in specs:
        coloring = parse_coloring_spec(spec)
        print(f"== {spec} ({blurb}) ==")
        print(f"  via triangle: {show(witness_via_ramsey(coloring))}")
        print(f"  via scan:     {show(direct_schur_div_search(coloring, 1000))}")
        print()

    print("== unity:2 (Liouville-like sign function) ==")
    liouville = UnityColoring(UnityFunction(2, {}, default_exponent=1))
    print(f"  via triangle: {show(witness_via_ramsey(liouville))}")
    print(f"  via scan:     {show(direct_schur_div_search(liouville, 1000))}")

    print("\n== a deep triangle: 3 classes painted over residues mod 29 ==")
    spec = "mod:29:" + ",".join(str(i % 3) for i in range(29))
    print(f"  via triangle: {show(witness_via_ramsey(parse_coloring_spec(spec)))}")


if __name__ == "__main__":
    main()
