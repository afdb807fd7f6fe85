"""Monochromatic sum triples with a divisibility condition, exactly.

Every finite coloring of the positive integers contains x + y = z in one
color class; this package works with the sharper pattern that also
demands x | y.  It generates the witness sequences whose block sums make
that pattern extractable from a monochromatic triangle, computes
classical and divisibility-restricted Schur numbers by exhaustive
search, scans primes for consecutive k-th power residues, and runs the
coset and root-of-unity colorings that connect the two worlds.
"""

# The public API is the union of the modules' __all__ lists; each name is declared there once.
from .coloring import *  # noqa: F401,F403
from .multiplicative import *  # noqa: F401,F403
from .primes import *  # noqa: F401,F403
from .ramsey import *  # noqa: F401,F403
from .residues import *  # noqa: F401,F403
from .schur_search import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403

__version__ = "0.1.0"
