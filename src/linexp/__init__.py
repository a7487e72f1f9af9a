"""Hypergraph line expansion: construction, projections, GCN training,
structure-only reconstruction, and expansion-unification checks."""

from .hypergraph import (
    DegreeVector,
    Hypergraph,
    HypergraphError,
    ParseError,
    hyperedge_degrees,
    incidence_matrix,
    parse_hypergraph,
    random_hypergraph,
    render_hypergraph,
    vertex_degrees,
)
from .expansions import (
    HYPEREDGE_SIMILAR,
    VERTEX_SIMILAR,
    FactoredOperator,
    LineExpansion,
    NormalizedOperator,
    ProjectionSet,
    adjacency_from_projections,
    block_gram,
    clique_adjacency,
    line_expand,
    projections,
    renormalized_operator,
    size_formulas,
    star_adjacency,
)
from .reconstruction import (
    CliqueCover,
    NotALineExpansionError,
    ReconstructionResult,
    UnlabeledGraph,
    back_project_labeled,
    dual_hypergraph,
    hypergraph_isomorphic,
    krausz_reconstruct,
    strip_labels,
)
from .learn import (
    Dataset,
    Model,
    SampledNeighborhood,
    SamplingConfig,
    TrainConfig,
    TrainReport,
    cross_entropy,
    feature_project,
    representation_project,
    load_zoo,
    sample_neighbors,
    sampled_operator,
    separable_toy,
    train,
    value_hypergraph,
)
from .unify import (
    CheckResult,
    check_simple_graph_factor,
    check_star_equivalence,
    degraded_line_adjacency,
    simple_graph_adjacency,
)

__version__ = "0.1.0"
