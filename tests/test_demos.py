"""Every script in demos/ runs to completion and prints its stable lines.

The demos run side by side in subprocesses; the slowest is the restricted
3-color search under its own 2 s budget.  Timing-dependent text (seconds,
and the node count reached under the time budget) is not pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurdiv

DEMOS = Path(__file__).resolve().parents[1] / "demos"

PINNED = {
    "divisible_triples.py": [
        "== parity (even/odd) ==\n"
        "  via triangle: x=2 y=2 z=4 (quotient 1), color 0, triangle (1, 3, 4)\n"
        "  via scan:     x=2 y=2 z=4 (quotient 1), color 0\n",
        "== mod:3:0,1,2 (three residue classes mod 3) ==\n"
        "  via triangle: x=3 y=24 z=27 (quotient 8), color 0, triangle (2, 4, 5)\n"
        "  via scan:     x=3 y=3 z=6 (quotient 1), color 0\n",
        "== unity:2 (Liouville-like sign function) ==\n"
        "  via triangle: x=3 y=304888344611713860501504000024 z=304888344611713860501504000027 "
        "(quotient 101629448203904620167168000008), color 1, triangle (2, 4, 6)\n"
        "  via scan:     x=1 y=9 z=10 (quotient 9), color 0\n",
        "  via triangle: x=sum(1, 6) y=sum(6, 7) z=sum(1, 7) [too large to print], color 0, triangle (1, 6, 7)\n",
    ],
    "multiplicative_ones.py": [
        "First ++ at a = 9\n",
        "Pipeline witness: triple (1, 9, 10) -> a = 9 <= 12\n",
        "  200 random functions: first ++ always found, latest at a = 9\n",
        "  first a with f(a) = f(a+1) = 1: 5\n",
    ],
    "power_residues.py": [
        "  primes 7..10000: max r = 9 at p = 43\n",
        "Exceptional primes (no consecutive square pair): [2, 3, 5] up to 100\n",
        "  p=43: triple (1, 9, 10) in one coset -> pair (9, 10)\n",
        "  p=101: triple (1, 4, 5) in one coset -> pair (4, 5)\n",
    ],
    "schur_numbers.py": [
        "  l=3: W=13 S=14 [exact] 397 nodes, ",
        "  l=2: W=11 S=12 [exact] witness [0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1]\n"
        "       witness revalidates: True\n",
        "  unrestricted triples: 36\n",
        "  restricted triples:   23\n",
        "  e.g. restricted ending at 12: [(1, 11, 12), (2, 10, 12), (3, 9, 12), (4, 8, 12), (6, 6, 12)]\n",
        " [lower_bound] ",
    ],
    "witness_sequences.py": [
        "All 20 index triples up to 6: 0 violations\n",
        "Same chain, far slower growth: 35 triples, 0 violations\n",
    ],
}


@pytest.fixture(scope="module")
def demo_output():
    src = str(Path(schurdiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = {
        path.name: subprocess.Popen([sys.executable, str(path)], stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True, env=env)
        for path in sorted(DEMOS.glob("*.py"))
    }
    return {name: (proc.communicate(timeout=120), proc.returncode) for name, proc in procs.items()}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_runs_and_prints_its_results(demo_output, name):
    (out, err), code = demo_output[name]
    assert (code, err) == (0, "")
    for text in PINNED[name]:
        assert text in out
