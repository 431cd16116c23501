"""Simulation laboratory for the superlinear stochastic heat equation."""

from .spectral import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    DomainSpec,
    SpectralBasis,
    build_basis,
    heat_kernel_decay_fit,
)
from .noise import (
    DecayReport,
    RieszKernel,
    SpectralKernel,
    WhiteNoise,
    critical_exponent,
    make_sampler,
    verify_decay,
)
from .stepping import (
    SigmaSpec,
    Stepper,
    TrajectoryError,
    TrajectoryRecord,
    build_context,
    initial_field,
    run_batch,
    run_trajectory,
    sigma_eval,
)
from .diagnostics import (
    DoobReport,
    DoublingEvent,
    MartingaleMeanReport,
    MomentProbeReport,
    ProbeArgumentError,
    QVReport,
    convolution_moment_probe,
    convolution_variance_series,
    detect_doubling,
    doob_check,
    doubling_threshold_level,
    doubling_window,
    martingale_mean_check,
    moment_admissible,
    qv_bound_check,
    up_event_count,
)
from .config import ConfigError, SimConfig, config_hash, parse_config
from .ensemble import (
    AssumptionReport,
    EnsembleResult,
    SweepResult,
    load_ensemble,
    run_ensemble,
    sweep_gamma,
    verify_assumptions,
    write_trajectory_csv,
)

__version__ = "0.1.0"
