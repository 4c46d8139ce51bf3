"""Exception hierarchy for dualflow.

Every domain failure raises a subclass of :class:`DualflowError`; the CLI maps
these to exit code 1 and anything else to a crash.
"""


class DualflowError(Exception):
    """Base class for all domain errors."""

    #: short machine-readable code used in CLI reports
    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.__doc__)


class FormatError(DualflowError):
    """Malformed line in a graph file."""

    code = "format"


class ValidationError(DualflowError):
    """Graph, cost, point, tree or circuit data violates an invariant."""

    code = "validation"


class DimensionMismatch(ValidationError):
    """A vector's length disagrees with the graph's node count."""

    code = "dimension-mismatch"


class InfeasibleInstance(DualflowError):
    """The polyhedron is empty (the graph has a negative-cost directed cycle)."""

    code = "infeasible-instance"


class InfeasiblePoint(DualflowError):
    """The given point violates an edge inequality."""

    code = "infeasible-point"


class InfeasibleTree(DualflowError):
    """The point determined by the spanning tree violates a non-tree inequality."""

    code = "infeasible-tree"


class InstanceTooLarge(DualflowError):
    """Enumeration would exceed the configured cap."""

    code = "instance-too-large"


class NotApplicable(DualflowError):
    """The circuit step would have length zero."""

    code = "not-applicable"


class UnboundedDirection(DualflowError):
    """No edge bounds the circuit step; the direction is a feasible ray."""

    code = "unbounded-direction"


class StaleStep(DualflowError):
    """The step was not produced by a maximal move from this point."""

    code = "stale-step"


class NotAVertex(DualflowError):
    """The point is feasible but its tight graph does not span all nodes."""

    code = "not-a-vertex"


class IdenticalPoints(DualflowError):
    """Two distinct vertices were expected."""

    code = "identical-points"


class DepthCapExceeded(DualflowError):
    """Breadth-first search hit the depth cap before reaching the target."""

    code = "depth-cap-exceeded"


class FrontierTooLarge(DualflowError):
    """Breadth-first search hit the state cap."""

    code = "frontier-too-large"


class EdgeMissing(DualflowError):
    """The named edge is not in the graph."""

    code = "edge-missing"


class FaceEmpty(DualflowError):
    """No feasible point makes the given edge tight."""

    code = "face-empty"


class NegativeSelfLoop(FaceEmpty):
    """Contraction produced a negative-cost loop, so the face is empty."""

    code = "negative-self-loop"


class InfeasibleLift(DualflowError):
    """A feasible contracted point lifted to an infeasible one (internal bug)."""

    code = "infeasible-lift"


class NoBackwardEdge(DualflowError):
    """Every edge on the tree path already points toward the target node."""

    code = "no-backward-edge"


class DegenerateInstance(DualflowError):
    """A pivot tightened several inequalities at once; perturb the costs
    (see :func:`dualflow.walks.perturb_costs`) to break ties."""

    code = "degenerate-instance"


class InternalInvariant(DualflowError):
    """A guarantee the builders or oracles rely on failed to hold (a bug)."""

    code = "internal-invariant"


class InvalidPartition(DualflowError):
    """The constructed node split is not a valid circuit of this graph."""

    code = "invalid-partition"


class PathConflict(DualflowError):
    """A tight directed path already connects the endpoints of the edge to
    insert, which contradicts the edge being loose."""

    code = "path-conflict"
