"""RSSI-based localization under malicious anchor attacks.

A numpy library plus a small CLI (``secloc``) for simulating wireless
networks whose anchors may lie about their transmit power, estimating the
target position robustly, and benchmarking against the unbiased-estimator
error bound.
"""

from .exceptions import (
    ConfigError,
    DegenerateGeometryError,
    DegenerateInformationError,
    DomainError,
    InsufficientAnchorsError,
    InsufficientSurvivorsError,
    SecLocError,
)
from .channel import (
    PathLossParams,
    distance_from_rssi,
    distance_pdf,
    distance_perturbation,
    distance_sq_variance,
    distance_variance,
    estimate_noise_sigma,
    mean_rssi,
    perturbation_g,
)
from .attacks import (
    AttackSpec,
    Placement,
    Topology,
    load_topology,
    parse_topology,
    random_topologies,
    random_topology,
    select_malicious,
    simulate_measurements,
    simulate_rssi_stack,
)
from .estimators import (
    Estimate,
    GradDescParams,
    LinearSystem,
    LmdsParams,
    build_linear_system,
    build_linear_systems,
    grad_desc_estimate,
    grad_desc_fits,
    lmds_estimate,
    ls_estimate,
    ls_fits,
    ml_estimate,
    ml_fits,
    swls_estimate,
    swls_fits,
    wls_estimate,
    wls_fits,
)
from .planefit import (
    admm_l1_plane,
    admm_l1_planes,
    kmeans_1d,
    ln1_estimate,
    ln1e_estimate,
    point_plane_residual,
)
from .crlb import crlb_bound, fim_coordinated, fim_uncoordinated
from .config import (
    ExperimentConfig,
    apply_axis,
    load_config,
    parse_config,
)
from .harness import (
    ESTIMATORS,
    EstimatorOutcome,
    EstimatorSummary,
    MonteCarloSummary,
    TrialResult,
    base_topology,
    emit_csv,
    prepare_trials,
    run_monte_carlo,
    run_trial,
    summarize,
    summary_rows,
    sweep,
)

__version__ = "0.1.0"
