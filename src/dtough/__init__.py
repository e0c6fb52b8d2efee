"""Exact-arithmetic Delaunay triangulations with mechanical verification of
toughness, independent-set bounds, perfect matchings, in-disk paths, and
blocking-set lower bounds."""

from .blocking import (
    BlockingInstance,
    DisjointDiskInstance,
    LowerBoundReport,
    disjoint_disk_instance,
    fan_instance,
    lower_bound_report,
    verify_blocking,
)
from .delaunay import (
    CounterExample,
    Triangulation,
    build,
    edge_angle_check,
    from_triangles,
    verify_delaunay,
    witness_disk,
)
from .diskpath import DiskPath, check_disk_path, find_path, path_oracle
from .errors import (
    CollinearInput,
    ConstructionFailed,
    DegenerateInput,
    DToughError,
    InvariantBroken,
    NoPerfectMatching,
    NotIndependent,
    NotInteriorEdge,
    PointFileError,
    PreconditionViolated,
    TooFewPoints,
    TooLarge,
    WitnessSearchFailed,
)
from .exactgeom import (
    Disk,
    Orientation,
    Point,
    Position,
    Violation,
    ViolationKind,
    coord,
    disk,
    dist_sq,
    general_position,
    in_circle,
    midpoint,
    orient,
    point,
)
from .generate import convex_points, random_points
from .structure import (
    AuditReport,
    Matching,
    ToughnessWitness,
    VertexSet,
    angle_audit,
    components_after_removal,
    max_independent_set,
    perfect_matching,
    toughness_exhaustive,
)

__version__ = "0.1.0"
