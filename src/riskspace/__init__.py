"""Computable pseudometric geometry on finite supervised learning problems.

The package represents finite problems (inputs, labels, joint law, loss,
explicit predictor list), evaluates their risk functionals, computes exact
and bounded distances between them, applies corruption models with distance
certificates, extracts risk-landscape Reeb graphs, and runs empirical
convergence and Rademacher-complexity experiments.
"""

from .errors import CapacityError, SolverError, ValidationError
from .problems import (
    FiniteProblem,
    LossProfile,
    Partition,
    WeightedProblem,
    all_risks,
    coarsen,
    coarsen_weighted,
    coarsening_bound,
    constrained_bayes_risk,
    cross_predictor_pseudometric,
    encode_mm_space,
    encode_mm_space_weighted,
    loss_profile,
    loss_profile_distribution,
    loss_profile_set,
    one_point_problem,
    predictor_pseudometric,
    risk,
    singleton_partition,
    verify_simulation,
)
from .transport import (
    coupling_vertices,
    hausdorff,
    hausdorff_loss_profiles,
    solve_ot_exact,
    total_variation,
    w1_real_line,
    wasserstein_profile_distributions,
)
from .distance import (
    DistanceResult,
    bilinear_gw,
    geodesic_problem,
    hausdorff_reduction,
    lp_risk_distance,
    lp_risk_distortion,
    pair_cost_matrix,
    risk_distance_exact,
    risk_distance_lower,
    risk_distortion,
    weak_isomorphism_witness,
)
from .corruption import (
    apply_bias_density,
    apply_general_noise,
    apply_label_noise,
    no_noise_kernel,
    noise_bound_metric,
    predictor_set_bound,
    restrict,
    risk_distance_upper_shared,
    run_pipeline,
    s_metric,
    s_metric_weighted,
    tv_bound,
    w1_eta_bound,
)
from .landscape import (
    PredictorGraph,
    ReebGraph,
    connected_risk_distance_exact,
    is_inverse_connected,
    reeb_graph,
    reeb_sandwich,
    risk_landscape,
)
from .empirical import (
    ExperimentReport,
    ExperimentRow,
    convergence_experiment,
    rademacher_exact_small,
    rademacher_gap_bound,
    rademacher_mc,
    sample_empirical,
)

__version__ = "0.1.0"
