"""Popular maximum matchings in bipartite preference instances.

Library and CLI for computing popular max-matchings, verifying popularity
with explicit witnesses, extracting and checking LP-dual certificates,
exact min-cost optimization over popular max-matchings, an extended LP
formulation emitter, Pareto-optimality checking, and the Pareto-hardness
gadget generator and checker.
"""

from .certificates import (
    CertificateReport,
    DualCertificate,
    certify_popular_max,
    extract_certificate,
    lift,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .core import (
    Edge,
    Instance,
    Matching,
    VoteTally,
    compare,
    is_maximum,
    make_matching,
    matching_cost,
    matching_to_json,
    parse_instance,
    parse_matching,
    random_instance,
    serialize_instance,
    serialize_matching,
    wt_edge,
)
from .errors import (
    BoundExceededError,
    CertificateError,
    InputError,
    InternalError,
    NotMaximumError,
    NotPopularError,
    NotStableError,
    ParseError,
    PopmaxError,
    UnsupportedClauseError,
    ValidationError,
)
from .gstar import (
    GStarInstance,
    build_gstar,
    level_proposals,
    levels,
    place,
    popular_max_matching,
    project,
)
from .hardness import (
    CnfFormula,
    GadgetInstance,
    ReductionReport,
    assignment_to_matching,
    brute_sat,
    build_gadget_instance,
    check_reduction,
    matching_to_assignment,
    pad_unit_clauses,
    parse_dimacs,
    to_dimacs,
    transform_formula,
)
from .mincost import (
    FlowNetwork,
    MaxFlowResult,
    MinCostResult,
    RotationPoset,
    emit_lp,
    find_rotations,
    max_flow,
    min_cost_popular_max,
    min_cost_stable,
)
from .oracle import closed_subsets, eliminate, enumerate_stable, matching_of_closed_subset
from .popularity import (
    AlternatingDigraph,
    ParetoVerdict,
    PopularityVerdict,
    Witness,
    apply_witness,
    build_alternating_digraph,
    format_witness,
    is_pareto_optimal,
    verify_popular_max,
)
from .stable import blocking_edges, gale_shapley, is_stable

__version__ = "0.1.0"
