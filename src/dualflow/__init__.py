"""Exact-arithmetic toolkit for dual network flow polyhedra.

Models the polyhedron ``{u : u_head - u_tail <= cost on every edge, u[0] = 0}``
of a directed graph with rational costs, enumerates its vertices by
pivoting between them, walks its skeleton and its circuit directions, and
measures combinatorial and circuit distances and diameters exactly.
"""

from .circuits import (
    CircuitNeighbor,
    PartitionCircuit,
    SignedStep,
    apply_circuit_step,
    circuit_vector,
    enumerate_partitions,
    first_circuit_neighbors,
    is_valid_circuit,
    max_step,
    step_between,
)
from .errors import (
    DegenerateInstance,
    DepthCapExceeded,
    DimensionMismatch,
    DualflowError,
    EdgeMissing,
    FaceEmpty,
    FormatError,
    FrontierTooLarge,
    IdenticalPoints,
    InfeasibleInstance,
    InfeasibleLift,
    InfeasiblePoint,
    InfeasibleTree,
    InstanceTooLarge,
    InternalInvariant,
    InvalidPartition,
    NegativeSelfLoop,
    NoBackwardEdge,
    NotApplicable,
    NotAVertex,
    PathConflict,
    StaleStep,
    UnboundedDirection,
    ValidationError,
)
from .instances import (
    add_leaf,
    complete_bipartite,
    example_graph,
    family_gk,
    glue,
    random_bipartite_costs,
)
from .model import (
    ANCHOR,
    CostVector,
    DegeneracyReport,
    Digraph,
    FeasibilityResult,
    Point,
    Rational,
    SpanningTree,
    TightEdgeSet,
    VertexSet,
    cost_vector,
    count_spanning_trees,
    degeneracy_report,
    enumerate_spanning_trees,
    enumerate_vertices,
    feasibility_status,
    is_feasible,
    is_vertex,
    load_graph,
    parse_graph,
    rational,
    rational_str,
    save_graph,
    serialize_graph,
    slack,
    tight_graph,
    vertex_from_tree,
)
from .oracle import (
    DistanceResult,
    DiameterResult,
    are_adjacent,
    circuit_distance,
    combinatorial_distance,
    diameter,
)
from .walks import (
    ContractionRecord,
    Walk,
    WalkValidation,
    build_insertion_partition,
    circuit_walk,
    contract_edge,
    edge_walk,
    find_edge,
    last_backward_edge,
    lift_point,
    perturb_costs,
    project_point,
    validate_walk,
    walk_from_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
