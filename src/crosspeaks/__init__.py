"""Cross-polytopes with peaks, code-indexed product families, and the query
games that make them hard to learn.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a caller of the
counting in bounds alone never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# master seed of verify's statistical checks; kept here so that the CLI's
# parser can default to it without importing verify
DEFAULT_SEED = 20260816

_EXPORTS = {
    "bounds": ("ParameterChoice", "QueryBound", "answer_space_size",
               "choose_parameters", "gv_floor", "query_lower_bound",
               "separation_floor", "separation_holds", "success_upper_bound"),
    "codes": ("Code", "complement_extend", "format_code", "gv_greedy",
              "min_distance_exhaustive", "parse_code"),
    "errors": ("BudgetExceededError", "CrosspeaksError", "ParameterError",
               "VerificationError"),
    "family": ("InnerFamily", "ProductBody", "ProductFamily", "build_inner_family",
               "build_product_family", "certify_cardinality", "certify_equal_volumes",
               "certify_separation", "exact_distance", "format_manifest",
               "intersection_volume", "parse_manifest", "read_manifest",
               "write_manifest"),
    "geometry": ("GeometryParams", "InnerBody", "bare_body", "classify_point",
                 "full_body", "inner_volume", "label_text", "make_geometry",
                 "membership_inner", "membership_q_oracle", "sample_inner_batch"),
    "halfspace": ("CorollaryReport", "DiscrepancyEstimate", "corollary_explore",
                  "direction_set", "halfspace_discrepancy", "ks_statistic",
                  "noise_floor"),
    "harness": ("GameConfig", "GameStats", "MLConsistencyLearner", "OracleSession",
                "RandomGuessLearner", "run_game", "write_results_csv"),
    "oracles": ("Transcript", "continuous_membership", "continuous_random_batch",
                "discrete_membership", "discrete_random", "parse_transcript_log"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "exactmath")

__all__ = sorted([*_MODULES, *_HOME])


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value   # bound as an eager import would, so later lookups skip this
    return value


def __dir__():
    return sorted({*globals(), *__all__})
