"""Exception types shared across the package.

Geometric degeneracies that are *data* (a point set failing general
position) are returned as values, not raised; the exceptions here mark
contract violations, refused inputs, and failed constructions.
"""

from __future__ import annotations


class DToughError(Exception):
    """Base class for all package errors."""


class CollinearInput(DToughError):
    """Three collinear points were passed where a proper triangle is required."""


class PreconditionViolated(DToughError):
    """An operation's documented precondition does not hold for the inputs."""


class TooFewPoints(DToughError):
    """Fewer points than the operation can triangulate."""


class DegenerateInput(DToughError):
    """Input point set fails general position. Carries the violation witness,
    an ``exactgeom.Violation``, and words it as ``degenerate input:
    cocircular points 0, 1, 2, 3``."""

    def __init__(self, violation):
        indices = ", ".join(map(str, violation.indices))
        super().__init__(f"degenerate input: {violation.kind.value} points {indices}")
        self.violation = violation


class NotInteriorEdge(DToughError):
    """The edge has a single incident face; the check needs two."""


class TooLarge(DToughError):
    """Instance exceeds the documented size gate for an exhaustive scan, or
    the matching search exhausted its budget of dead states."""


class NotIndependent(DToughError):
    """The supplied vertex set contains an edge of the triangulation."""


class InvariantBroken(DToughError):
    """A verified-theorem invariant failed. This is a falsification alarm."""


class NoPerfectMatching(InvariantBroken):
    """An even-order Delaunay triangulation has no perfect matching.

    Every one has one, so this is a falsification alarm like its base
    class; unlike a found matching that fails its verification, it says
    that no matching exists.
    """


class WitnessSearchFailed(InvariantBroken):
    """No empty disk through the edge's endpoints verified exactly.

    Every edge of a Delaunay triangulation has one, so on a built
    triangulation this is a falsification alarm like its base class.
    """


class ConstructionFailed(DToughError):
    """A construction or search loop hit its attempt cap: every attempt
    failed its accept test. ``gen`` is the only command that gives up this
    way, and the CLI maps it to bad input (exit 2); in the library the
    sentinel search does too."""


class PointFileError(DToughError):
    """Point file could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
