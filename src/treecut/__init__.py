"""treecut: cost of cutting down random simply generated trees.

Exact dynamic programming, limiting-distribution moments, and Monte
Carlo simulation for the edge-cutting destruction process on the tree
families that stay random under cutting (exponential/Cayley, d-ary,
generalized ordered), with toll n^alpha per cut.
"""

from .analysis import (
    ConvergenceReport,
    DeltaFit,
    MuFit,
    estimate_delta,
    estimate_mu,
    family_independence_check,
    normalize_moments,
)
from .counts import SplitDistribution, WeightedCounts, compute_counts, lagrange_counts, split_distribution
from .errors import (
    ConfigError,
    ConstraintViolation,
    DomainError,
    IllConditioned,
    MissingShift,
    NonIntegrable,
    OutOfRange,
    OverflowPolicyError,
    TreecutError,
)
from .family import (
    FamilyConstants,
    FamilySpec,
    binary,
    cayley,
    format_config,
    make_family,
    ordered,
    parse_config,
    phi_coefficient,
    solve_constants,
)
from .limits import (
    LeadingTerm,
    LimitMoments,
    j_integral,
    j_integral_adaptive,
    limit_moments_one_sided,
    limit_moments_two_sided,
    limit_moments_two_sided_half,
    predicted_mean,
)
from .moments import (
    ONE_SIDED,
    TWO_SIDED,
    MomentTable,
    TollSpec,
    one_sided_moments,
    shifted_moments,
    two_sided_moments,
)
from .simulate import ExperimentConfig, SampleStats, run_experiment

__version__ = "0.1.0"
