"""Cross-polytopes with peaks, code-indexed product families, and the query
games that make them hard to learn."""

from .codes import (Code, complement_extend, format_code,
                    gv_floor, gv_greedy, min_distance_exhaustive, parse_code)
from .errors import (BudgetExceededError, CrosspeaksError, ParameterError,
                     VerificationError)
from .family import (InnerFamily, ProductBody, ProductFamily,
                     build_inner_family, build_product_family,
                     certify_cardinality, certify_equal_volumes,
                     certify_separation, exact_distance,
                     format_manifest, intersection_volume, parse_manifest,
                     read_manifest, separation_floor, separation_holds,
                     write_manifest)
from .geometry import (GeometryParams, InnerBody, OrthantSign, bare_body,
                       body_from_mask, classify_point, full_body,
                       inner_volume, label_text, make_geometry,
                       membership_inner, membership_q_oracle,
                       sample_inner_batch)
from .halfspace import (CorollaryReport, DiscrepancyEstimate,
                        corollary_explore, direction_set,
                        halfspace_discrepancy, ks_statistic, noise_floor)
from .harness import (GameConfig, GameStats, MLConsistencyLearner,
                      OracleSession, ParameterChoice, QueryBound,
                      RandomGuessLearner, choose_parameters,
                      query_lower_bound, run_game,
                      success_upper_bound, write_results_csv)
from .oracles import (Transcript, answer_space_size, continuous_membership,
                      continuous_random_batch, discrete_membership,
                      discrete_random, parse_transcript_log)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
