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
search and tabulate.
"""

__version__ = "0.1.0"

from .construction import (
    BetaChoice,
    ConstructionError,
    HalfSetCertificate,
    build_strong_skolem,
    build_strong_starter,
    construction_primes,
    enumerate_strong_skolem,
    half_set_certificate,
)
from .residues import (
    MAX_MODULUS,
    QrTable,
    build_qr_table,
    is_prime,
    smallest_qr_generator,
)
from .search import (
    DEFAULT_CEILING,
    CeilingExceededError,
    SearchConfig,
    SearchMode,
    SearchResult,
    active_backend,
    search_skolem_starters,
)
from .starters import (
    PairSet,
    VerificationReport,
    full_report,
    iter_pair_sets_text,
    pair_set_from_obj,
    pair_set_to_obj,
    pair_set_to_text,
    parse_pair_set_text,
    skolem_admissible,
)

__all__ = [
    "__version__",
    "MAX_MODULUS",
    "QrTable",
    "build_qr_table",
    "is_prime",
    "smallest_qr_generator",
    "PairSet",
    "VerificationReport",
    "full_report",
    "iter_pair_sets_text",
    "pair_set_from_obj",
    "pair_set_to_obj",
    "pair_set_to_text",
    "parse_pair_set_text",
    "skolem_admissible",
    "BetaChoice",
    "ConstructionError",
    "HalfSetCertificate",
    "build_strong_skolem",
    "build_strong_starter",
    "construction_primes",
    "enumerate_strong_skolem",
    "half_set_certificate",
    "DEFAULT_CEILING",
    "CeilingExceededError",
    "SearchConfig",
    "SearchMode",
    "SearchResult",
    "active_backend",
    "search_skolem_starters",
]
