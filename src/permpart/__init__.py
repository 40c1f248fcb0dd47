"""Pattern containment in permutations, set partitions, and restricted
growth words, built around a size-doubling reduction from permutation
containment to partition containment.

The library exposes:

- core: the structure types and primitive operations (restriction, word
  encodings);
- matchers: backtracking containment and counting engines for all three
  notions, with deterministic lexicographically least witnesses;
- reduction: the matchstick map permutation -> partition and the two-way
  transport between occurrences and restriction witnesses;
- fastpaths: dispatch_contains, which answers all-singleton and
  single-block patterns in linear time and sends the rest to matchers;
- oracle: naive brute-force references, exhaustive enumerators, census,
  and the verification gates that check the engines and the reduction
  against the references at desk scale.  Its names load on first use, so
  importing the package (or the CLI) for a single query does not pay for
  the oracle;
- cli: the ``permpart`` command.

The hot search loops live in a compiled extension when built, with a pure
Python fallback selected at import (see permpart._backend).
"""

from ._backend import kernel_backend
from .core import (
    Permutation,
    RGFWord,
    SetPartition,
    partition_of_rgf,
    restrict,
    rgf_of,
)
from .errors import BoundExceeded, SearchCancelled
from .fastpaths import dispatch_contains
from .matchers import (
    MatchResult,
    OccurrenceIndices,
    SubsetWitness,
    partition_contains,
    partition_count,
    perm_contains,
    perm_count,
    rgf_contains,
    rgf_count,
)
from .reduction import (
    is_matchstick,
    perm_of_matchstick,
    recover_occurrence,
    reduce_perm,
    transport_occurrence,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "CensusRow",
    "MatchResult",
    "Mismatch",
    "OccurrenceIndices",
    "Permutation",
    "RGFWord",
    "SearchCancelled",
    "SetPartition",
    "SubsetWitness",
    "VerificationReport",
    "bell_number",
    "brute_partition_contains",
    "brute_partition_count",
    "census",
    "dispatch_contains",
    "enumerate_partitions",
    "enumerate_permutations",
    "is_matchstick",
    "kernel_backend",
    "partition_contains",
    "partition_count",
    "partition_of_rgf",
    "perm_contains",
    "perm_count",
    "perm_of_matchstick",
    "recover_occurrence",
    "reduce_perm",
    "restrict",
    "rgf_contains",
    "rgf_count",
    "rgf_of",
    "transport_occurrence",
    "verify_reduction",
    "verify_rgf_coincidence",
]

# The oracle's public names, imported from permpart.oracle on first access.
_ORACLE_NAMES = frozenset(
    "CensusRow Mismatch VerificationReport bell_number brute_partition_contains "
    "brute_partition_count census enumerate_partitions enumerate_permutations "
    "verify_reduction verify_rgf_coincidence".split()
)


def __getattr__(name: str):
    # Looked up afresh on every access, never cached here, so a name rebound
    # on permpart.oracle is what permpart.<name> returns.
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
