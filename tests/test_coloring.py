import builtins
import json
import math
import random

import pytest

from schurdiv import coloring
from schurdiv.coloring import (
    ColoringSpecError,
    CosetColoring,
    ExplicitColoring,
    OutOfDomainError,
    ResidueColoring,
    UnityColoring,
    parse_coloring_spec,
    parse_prime_exponents,
)
from schurdiv.multiplicative import UnityFunction


def brute_power_residues(p, k):
    return {pow(s, k, p) for s in range(1, p)}


def brute_coset_table(p, k):
    """Color of each residue mod p from the definition: cosets of the k-th
    powers colored in order of smallest representative, 0 mod p last."""
    powers = brute_power_residues(p, k)
    table = [None] * p
    next_color = 0
    for r in range(1, p):
        if table[r] is None:
            for h in powers:
                table[r * h % p] = next_color
            next_color += 1
    table[0] = next_color
    return table


PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


class TestResidueColoring:
    def test_parity_example(self):
        assert ResidueColoring(2, (0, 1)).color_of(7) == 1
        assert ResidueColoring(2, (0, 1)).color_of(10) == 0

    def test_accepts_huge_arguments(self):
        c = ResidueColoring(3, (0, 1, 2))
        n = math.factorial(28) + 1
        assert c.color_of(n) == n % 3

    def test_class_map_length_enforced(self):
        with pytest.raises(ValueError):
            ResidueColoring(3, (0, 1))

    @pytest.mark.parametrize("class_map", [(0, True, 2), (0, 0.9, 2), (0, "1", 2), (0, -1, 2)])
    def test_class_map_entries_are_ints_from_zero(self, class_map):
        with pytest.raises(ValueError, match="must be integers >= 0"):
            ResidueColoring(3, class_map)

    def test_rejects_nonpositive(self):
        with pytest.raises(OutOfDomainError):
            ResidueColoring(2, (0, 1)).color_of(0)

    def test_modulus_is_an_int(self):
        with pytest.raises(ValueError, match="modulus must be an int, got True"):
            ResidueColoring(True, (0,))


class TestExplicitColoring:
    def test_table_lookup(self):
        c = ExplicitColoring([0, 1, 1, 0])
        assert [c.color_of(n) for n in range(1, 5)] == [0, 1, 1, 0]
        assert c.domain_max == 4
        assert c.num_colors == 2

    @pytest.mark.parametrize("table", [[True, 0, 2], [1, 0.9, 2.5], ["0", "1"], [0, -1]])
    def test_entries_are_ints_from_zero(self, table):
        with pytest.raises(ValueError, match="must be integers >= 0"):
            ExplicitColoring(table)

    def test_out_of_domain(self):
        c = ExplicitColoring([0, 1])
        with pytest.raises(OutOfDomainError):
            c.color_of(3)
        with pytest.raises(OutOfDomainError):
            c.color_of(0)


class TestCosetColoring:
    def test_quadratic_residues_mod_11(self):
        c = CosetColoring(11, 2)
        assert c.color_of(3) == c.color_of(5)
        qrs = brute_power_residues(11, 2)
        assert qrs == {1, 3, 4, 5, 9}
        assert c.classes_on_units()[c.color_of(1)] == frozenset(qrs)

    def test_multiple_of_p_gets_extra_color(self):
        c = CosetColoring(11, 2)
        assert c.color_of(22) == c.num_colors - 1 == c.extra_color
        assert c.color_of(11 * math.factorial(28)) == c.extra_color

    def test_classes_mod_7(self):
        c = CosetColoring(7, 2)
        assert c.classes_on_units() == (frozenset({1, 2, 4}), frozenset({3, 5, 6}))
        assert c.num_colors == 3  # two cosets plus the extra color

    def test_cubes_mod_31(self):
        c = CosetColoring(31, 3)
        assert c.coset_count == 3
        assert c.classes_on_units()[c.color_of(1)] == frozenset(
            {1, 2, 4, 8, 15, 16, 23, 27, 29, 30}
        )

    @pytest.mark.parametrize("p, k", [(7, True), (2.0, 3)])
    def test_prime_and_power_are_ints(self, p, k):
        with pytest.raises(ValueError, match="(p|power) must be an int, got"):
            CosetColoring(p, k)

    def test_first_powers_are_one_class(self):
        c = CosetColoring(7, 1)
        assert c.coset_count == 1
        assert c.classes_on_units() == (frozenset(range(1, 7)),)

    def test_coset_count_is_gcd(self):
        for p in (7, 11, 13, 31, 101):
            for k in (1, 2, 3, 4, 5, 6):
                assert CosetColoring(p, k).coset_count == math.gcd(k, p - 1)

    def test_colors_ordered_by_smallest_representative(self):
        c = CosetColoring(13, 3)
        classes = c.classes_on_units()
        smallest = [min(members) for members in classes]
        assert smallest == sorted(smallest)
        assert c.color_of(1) == 0

    def test_same_color_iff_ratio_is_power(self):
        # u, v share a color exactly when u * v^-1 is a k-th power
        for p, k in ((7, 2), (11, 2), (31, 3), (101, 4), (13, 6)):
            c = CosetColoring(p, k)
            powers = brute_power_residues(p, k)
            for u in range(1, p):
                for v in range(1, p):
                    ratio = u * pow(v, -1, p) % p
                    assert (c.color_of(u) == c.color_of(v)) == (ratio in powers), (p, k, u, v)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            CosetColoring(15, 2)

    def test_purity(self):
        c = CosetColoring(17, 2)
        assert [c.color_of(9)] * 5 == [c.color_of(9) for _ in range(5)]

    @pytest.mark.parametrize("p", PRIMES_BELOW_200)
    def test_matches_brute_force_table(self, p):
        for k in range(1, p + 2):
            c = CosetColoring(p, k)
            table = brute_coset_table(p, k)
            assert c.num_colors == table[0] + 1, (p, k)
            assert [c.color_of(n) for n in range(1, 2 * p + 2)] == [
                table[n % p] for n in range(1, 2 * p + 2)
            ], (p, k)
            classes = tuple(
                frozenset(r for r in range(1, p) if table[r] == color)
                for color in range(table[0])
            )
            assert c.classes_on_units() == classes, (p, k)

    def test_construction_makes_few_pow_calls(self, monkeypatch):
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return builtins.pow(*args)

        monkeypatch.setattr(coloring, "pow", counting_pow, raising=False)
        c = CosetColoring(1000003, 3)
        # A walk over r = 1, 2, ... until all three character values appear;
        # a table over all residues would take about 10^6 calls.
        assert len(calls) <= 8
        calls.clear()
        c.color_of(10**40 + 7)
        assert len(calls) == 1


class TestUnityColoring:
    def test_all_ones_function(self):
        c = UnityColoring(UnityFunction(1, {}))
        assert all(c.color_of(n) == 0 for n in range(1, 50))
        assert c.num_colors == 1

    def test_liouville_type(self):
        c = UnityColoring(UnityFunction(2, {}, default_exponent=1))
        assert c.color_of(12) == 1  # 12 = 2*2*3, three prime factors
        assert c.color_of(1) == 0

    def test_single_prime_tracked(self):
        c = UnityColoring(UnityFunction(2, {2: 1}))
        assert c.color_of(12) == 0  # 2 divides 12 twice

    def test_color_is_additive_over_products(self):
        rng = random.Random(7)
        for k in (2, 3, 5):
            exps = {p: rng.randrange(k) for p in (2, 3, 5, 7, 11, 13)}
            c = UnityColoring(UnityFunction(k, exps, rng.randrange(k)))
            for m in range(1, 61):
                for n in range(1, 61):
                    assert c.color_of(m * n) == (c.color_of(m) + c.color_of(n)) % k


class TestSpecGrammar:
    def test_parity(self):
        assert isinstance(parse_coloring_spec("parity"), ResidueColoring)

    def test_mod(self):
        c = parse_coloring_spec("mod:3:0,1,2")
        assert isinstance(c, ResidueColoring)
        assert c.color_of(7) == 1

    def test_coset(self):
        c = parse_coloring_spec("coset:11:2")
        assert isinstance(c, CosetColoring)
        assert c.color_of(3) == c.color_of(5)

    def test_explicit(self, tmp_path):
        path = tmp_path / "colors.json"
        path.write_text(json.dumps([0, 1, 0, 1]))
        c = parse_coloring_spec(f"explicit:{path}")
        assert c.color_of(2) == 1
        assert c.domain_max == 4

    def test_unity(self):
        c = parse_coloring_spec("unity:2:2=1,3=1")
        assert c.color_of(6) == 0
        assert c.color_of(2) == 1

    def test_unity_default(self):
        c = parse_coloring_spec("unity:2::default=1")
        assert c.color_of(5) == 1  # unlisted prime takes the default

    @pytest.mark.parametrize(
        "spec,position",
        [
            ("bogus:1", 0),
            ("mod:3:0,1", 6),
            ("mod:x:0", 4),
            ("coset:15:2", 6),
            ("coset:7", 6),
            ("unity:2:4=1", 8),
            ("unity:2:2=1,2=0", 12),
            ("unity:2:2=1:fallback=1", 12),
            ("mod:0:", 4),
            ("mod:-2:", 4),
            ("mod:0:0", 4),
        ],
    )
    def test_errors_carry_positions(self, spec, position):
        with pytest.raises(ColoringSpecError) as exc:
            parse_coloring_spec(spec)
        assert exc.value.position == position

    def test_prime_exponents(self):
        assert parse_prime_exponents("") == {}
        assert parse_prime_exponents("2=1,3=-4,7=0") == {2: 1, 3: -4, 7: 0}

    @pytest.mark.parametrize(
        "text,position,message",
        [
            ("2", 0, "expected p=e"),
            ("2=1,x=1", 4, "integer prime"),
            ("2=1,3=x", 6, "integer exponent"),
            ("9=1", 0, "9 is not prime"),
            ("2=1,3=1,2=0", 8, "prime 2 assigned twice"),
        ],
    )
    def test_prime_exponent_errors(self, text, position, message):
        with pytest.raises(ColoringSpecError, match=message) as exc:
            parse_prime_exponents(text)
        assert (exc.value.spec, exc.value.position) == (text, position)
        with pytest.raises(ColoringSpecError) as exc:
            parse_coloring_spec(f"unity:5:{text}")
        assert exc.value.position == position + len("unity:5:")

    def test_explicit_rejects_booleans(self, tmp_path):
        path = tmp_path / "colors.json"
        path.write_text(json.dumps([True, False, True, 2]))
        with pytest.raises(ColoringSpecError, match="JSON array of integers"):
            parse_coloring_spec(f"explicit:{path}")

    @pytest.mark.parametrize("table,message", [([], "empty array"), ([0, -1, 2], "colors must be >= 0")],
                             ids=["empty", "negative"])
    def test_explicit_rejects_bad_tables(self, tmp_path, table, message):
        path = tmp_path / "colors.json"
        path.write_text(json.dumps(table))
        with pytest.raises(ColoringSpecError, match=message) as info:
            parse_coloring_spec(f"explicit:{path}")
        assert info.value.position == 9

    def test_explicit_missing_file(self, tmp_path):
        with pytest.raises(ColoringSpecError):
            parse_coloring_spec(f"explicit:{tmp_path}/nope.json")
