"""Strong Skolem starters for Z_n: construction, verification, search.

A starter for Z_n (n odd) partitions {1, ..., n-1} into pairs whose
differences cover Z_n except 0; strong adds pairwise-distinct pair sums,
Skolem adds integer differences exactly {1, ..., (n-1)/2}.  The package

  - builds strong Skolem starters for every prime q with q == 3 (mod 8)
    from the quadratic-residue construction (skolem.construction),
  - verifies the three properties of arbitrary pair sets with witnesses
    (skolem.starters), and
  - exhaustively enumerates starters of small orders with an independent
    backtracking search, compiled when possible (skolem.search).

The skolem command-line tool exposes all three as generate, verify,
search and tabulate.  Each module lists its own public names in its
__all__, and the package exports __version__ and those lists in turn.
"""

__version__ = "0.1.0"

from .residues import *
from .starters import *
from .construction import *
from .search import *

__all__ = [
    "__version__",
    *residues.__all__,
    *starters.__all__,
    *construction.__all__,
    *search.__all__,
]
