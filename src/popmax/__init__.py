"""Popular maximum matchings in bipartite preference instances.

Library and CLI for computing popular max-matchings, verifying popularity
with explicit witnesses, extracting and checking LP-dual certificates,
exact min-cost optimization over popular max-matchings, an extended LP
formulation emitter, Pareto-optimality checking, and the Pareto-hardness
gadget generator and checker.

The exported names and the submodules load on first access (PEP 562), so
`import popmax` and each command load only the layers they use.
"""

from importlib import import_module

_EXPORTS = {  # module: the names it exports
    "certificates": "CertificateReport DualCertificate certify_popular_max extract_certificate "
                    "lift parse_certificate serialize_certificate verify_certificate",
    "core": "Edge Instance Matching VoteTally compare is_maximum make_matching matching_cost "
            "matching_to_json parse_instance parse_matching random_instance serialize_instance "
            "serialize_matching wt_edge",
    "errors": "BoundExceededError CertificateError InputError InternalError NotMaximumError "
              "NotPopularError NotStableError ParseError PopmaxError UnsupportedClauseError "
              "ValidationError",
    "gstar": "GStarInstance build_gstar level_proposals levels place popular_max_matching "
             "project",
    "hardness": "CnfFormula GadgetInstance ReductionReport assignment_to_matching brute_sat "
                "build_gadget_instance check_reduction matching_to_assignment pad_unit_clauses "
                "parse_dimacs to_dimacs transform_formula",
    "mincost": "FlowNetwork MaxFlowResult MinCostResult RotationPoset emit_lp find_rotations "
               "max_flow min_cost_popular_max min_cost_stable",
    "oracle": "closed_subsets eliminate enumerate_stable matching_of_closed_subset",
    "popularity": "AlternatingDigraph ParetoVerdict PopularityVerdict Witness apply_witness "
                  "build_alternating_digraph format_witness is_pareto_optimal verify_popular_max",
    "stable": "blocking_edges gale_shapley is_stable",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule, or an exported name from its module, on first
    access; the name is then bound here, so later lookups skip this."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
