"""Finite-scale p-local analysis of permutation groups.

Exact group arithmetic, the poset of Sylow intersections with its closure
operator and p-centricity classification, transporter / linking / orbit
categories with exhaustively checked laws, mod-p homology of category
nerves, higher limits of coefficient functors over orbit categories, and an
end-to-end pipeline comparing the linking-system nerve with the classifying
space in mod-p homology.
"""

from .catalog import build_group, parse_cycles
from .categories import (
    FiniteCategory,
    Functor,
    build_linking,
    build_orbit,
    build_transporter,
    coset_category,
    full_subcategory,
    quotient_projection,
    skeleton,
    verify_category,
    verify_closure_adjunction,
    verify_quotient_functor,
)
from .cohomology import (
    CohomologyBasis,
    CohomologyCache,
    classifying_cohomology_functor,
    supported_cohomology_functor,
)
from .errors import (
    BudgetExceeded,
    InvalidPermutation,
    NotAFunctor,
    NotCentric,
    NotPSubgroup,
    OrderBoundExceeded,
    OutOfRangePoint,
    ParseError,
    PLocalError,
    UpwardClosureViolated,
)
from .groups import (
    PermutationGroup,
    Subgroup,
    all_subgroups,
    center,
    centralizer,
    direct_product,
    normalizer,
    p_part,
    p_residual,
    quotient_realization,
    sylow_conjugates,
    sylow_subgroup,
    transporter_set,
)
from .homology import (
    FpComplex,
    bar_complex,
    homology_iso_verdict,
    induced_chain_map,
    mapping_cone,
    nerve_complex,
)
from .limit_checks import (
    OrbitSkeletons,
    atomic_functor_limits,
    build_orbit_skeletons,
    class_filtration_check,
    normalizer_reduction_check,
    punctured_class_vanishing,
    support_restriction_check,
)
from .limits import (
    LinearFunctor,
    ModuleData,
    functor_cochain_complex,
    inverse_limit_dim,
    limits_profile,
)
from .omega import (
    IntersectionPoset,
    build_intersection_poset,
    classify_centric,
    closure_in_poset,
    is_centric,
    longest_chain_length,
    verify_closure_properties,
)
from .perm import Permutation
from .pipeline import ALL_CHECKS, PipelineConfig, PipelineRun, run_pipeline
from .report import AnalysisReport, emit_report

__version__ = "0.1.0"
