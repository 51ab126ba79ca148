"""Type B set partitions without zero-block: statistics, bijections, counting.

The package stores symmetric signed partitions canonically (one representative
per block pair), computes their singleton-pair and adjacency-pair statistics,
implements the peel-and-patch bijection that swaps the two statistics together
with its inverse and its involution form, enumerates all partitions of a given
size, and counts them exactly along three independent pipelines.
"""

from .core import (
    DuplicateElementError,
    GroundMismatchError,
    InternalInvariantError,
    NotFullGroundError,
    PartitionError,
    SignedPartition,
    Statistics,
    ZeroBlockError,
    adjacency_pairs,
    complement,
    left_points,
    make_partition,
    require_full_ground,
    right_points,
    statistics,
    validate,
)
from .counting import (
    BivariateDistribution,
    TooLargeError,
    distribution,
    singleton_free_egf,
    singleton_free_ie,
    stirling2,
    total_count,
)
from .enumeration import for_each
from .peelpatch import (
    AlreadyCoreError,
    AnchorMissingError,
    MalformedLayerError,
    PeelLayer,
    PeelTrace,
    Side,
    involution,
    patch,
    patch_stages,
    patch_step,
    peel,
    peel_step,
    psi,
    psi_inverse,
    trace_stages,
)
from .textio import ParseError, format_partition, format_trace, parse_partition

__version__ = "0.1.0"

__all__ = [
    "BivariateDistribution",
    "DuplicateElementError",
    "GroundMismatchError",
    "InternalInvariantError",
    "NotFullGroundError",
    "ParseError",
    "PartitionError",
    "PeelLayer",
    "PeelTrace",
    "Side",
    "SignedPartition",
    "Statistics",
    "TooLargeError",
    "ZeroBlockError",
    "AlreadyCoreError",
    "AnchorMissingError",
    "MalformedLayerError",
    "adjacency_pairs",
    "complement",
    "distribution",
    "for_each",
    "format_partition",
    "format_trace",
    "involution",
    "left_points",
    "make_partition",
    "parse_partition",
    "patch",
    "patch_stages",
    "patch_step",
    "peel",
    "peel_step",
    "psi",
    "psi_inverse",
    "require_full_ground",
    "right_points",
    "singleton_free_egf",
    "singleton_free_ie",
    "statistics",
    "stirling2",
    "total_count",
    "trace_stages",
    "validate",
]
