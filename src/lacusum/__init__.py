"""Robust online change-point detection for high-dimensional data streams.

Per-stream robust CUSUM-type statistics with soft-threshold fusion, plus the
tuning, breakdown, calibration and simulation machinery around them.
"""

from .breakdown import (
    BreakdownReport,
    alpha_opt,
    breakdown_grid,
    breakdown_report,
    density_power_divergence,
    increment_sup,
    m_alpha,
)
from .calibration import (
    CalibrationResult,
    RunEstimate,
    calibrate_threshold,
    estimate_arl,
)
from .detectors import (
    FusionRule,
    GlrParams,
    GlrScheme,
    LAlphaScheme,
    LocalParams,
    StepDecision,
    StreamMonitor,
    lalpha_increment,
    run_to_alarm,
    simulate_run_lengths,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateCoefficientError,
    MgfDivergenceError,
    NoDensityError,
    NoPositiveRootError,
    NumericError,
)
from .experiments import (
    CurvePoint,
    DelayRow,
    ExperimentSpec,
    arl_vs_epsilon_curve,
    run_delay_table,
    simulate_delay,
)
from .models import (
    ChangeScenario,
    GrossErrorModel,
    MixtureStreamSampler,
    NominalFamily,
    OutlierSpec,
    mixture_pdf,
    sample_matrix,
)
from .profiles import (
    CaseStudyRow,
    ProfileGeneratorConfig,
    ProfilePool,
    case_study_run,
    haar_transform,
    load_pool,
    save_pool,
    synth_pool,
)
from .tuning import (
    GridRow,
    QuadratureConfig,
    alpha_oracle,
    arl_lower_bound,
    b_gamma,
    d_opt,
    info_number,
    solve_mgf_root,
    tuning_grid,
)

__version__ = "0.1.0"
