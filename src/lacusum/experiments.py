"""Simulation studies: delay tables, contamination robustness curves, tuning curves.

Detection delay is estimated with the change at time 1 (the worst case for
CUSUM-type statistics, whose local state is then at its reflecting floor).
Every cell derives its seed from (master seed, scheme index, scenario index),
so tables are reproducible and cells can run in any order.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .breakdown import breakdown_grid
from .calibration import RunEstimate, estimate_arl
from .detectors import LAlphaScheme, Scheme
from .errors import ConfigError, NumericError
from .models import ChangeScenario, GrossErrorModel, MixtureStreamSampler
from .tuning import info_number, tuning_grid

DEFAULT_M_GRID = (1, 3, 5, 8, 10, 15, 20, 30, 50, 100)


@dataclass(frozen=True)
class ExperimentSpec:
    """A delay study: calibrated schemes crossed with change scenarios.

    model_pre and gamma are accepted for callers that still pass them;
    nothing reads them.
    """

    schemes: tuple
    model_post: GrossErrorModel
    scenarios: tuple
    model_pre: GrossErrorModel | None = None
    gamma: float | None = None
    reps: int = 200
    seed: int = 0
    cap: int = 100_000
    threads: int = 1


@dataclass(frozen=True)
class DelayRow:
    scheme: str
    parameter: float
    delay: RunEstimate | None
    delay_bound_ratio: float | None = None
    error: str | None = None


def simulate_delay(scheme: Scheme, model_post: GrossErrorModel, scenario: ChangeScenario,
                   reps: int, seed: int, cap: int = 100_000,
                   threads: int = 1) -> RunEstimate:
    """Mean detection delay with the change at time 1.

    The first scenario.m streams draw from the contaminated post-change
    distribution from the first observation on; the rest stay pre-change.
    """
    if scenario.nu != 1:
        raise ConfigError("delay simulation requires a scenario with nu = 1")
    scenario.validate_against(model_post.nominal)
    sampler = MixtureStreamSampler(model_post, scenario)
    return estimate_arl(scheme, sampler, reps, cap, seed, threads=threads)


def _delay_bound_ratio(scheme: Scheme, model: GrossErrorModel, scenario: ChangeScenario,
                   observed: float) -> float | None:
    """Observed delay over the first-order bound (b/m + d) / I_theta; report only."""
    if not isinstance(scheme, LAlphaScheme) or scheme.rule.kind != "soft_threshold":
        return None
    info = info_number(scenario.theta_post, scheme.params.alpha, model)
    if info <= 0:
        return None
    bound = (scheme.rule.b / scenario.m + scheme.rule.d) / info
    return observed / bound


def run_delay_table(spec: ExperimentSpec) -> list[DelayRow]:
    """Delay of every scheme under every scenario; errors recorded per cell.

    The row parameter is the affected-stream count when scenarios share a
    post-change location, otherwise the post-change location.
    """
    # wrong for every cell, so not recorded as a cell error
    if spec.reps < 2:
        raise ConfigError("need at least 2 replicates")
    if spec.cap < 1:
        raise ConfigError(f"cap must be >= 1, got {spec.cap}")
    if spec.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {spec.threads}")
    thetas = {s.theta_post for s in spec.scenarios}
    by_theta = len(thetas) > 1
    rows = []
    for i, scheme in enumerate(spec.schemes):
        for j, scenario in enumerate(spec.scenarios):
            param = scenario.theta_post if by_theta else scenario.m
            seed = _cell_seed(spec.seed, i, j)
            try:
                est = simulate_delay(scheme, spec.model_post, scenario,
                                     spec.reps, seed, spec.cap, spec.threads)
                ratio = _delay_bound_ratio(scheme, spec.model_post, scenario, est.mean)
                rows.append(DelayRow(scheme.label, float(param), est, ratio))
            except (ConfigError, NumericError) as exc:  # record and keep going
                rows.append(DelayRow(scheme.label, float(param), None, None, str(exc)))
    return rows


def _cell_seed(seed: int, i: int, j: int) -> int:
    return int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])


@dataclass(frozen=True)
class CurvePoint:
    scheme: str
    epsilon: float
    log_arl: float
    se_log: float
    estimate: RunEstimate


def arl_vs_epsilon_curve(schemes, model: GrossErrorModel, eps_grid, reps: int,
                         seed: int, K: int, cap: int, threads: int = 1) -> list[CurvePoint]:
    """log ARL as contamination grows, at thresholds fixed once (not re-calibrated).

    The delta-method standard error of the log is se / mean.
    """
    points = []
    for i, scheme in enumerate(schemes):
        for j, eps in enumerate(eps_grid):
            est = estimate_arl(scheme, model.with_epsilon(float(eps)), reps, cap,
                               _cell_seed(seed, i, j), K, threads)
            points.append(CurvePoint(scheme.label, float(eps), math.log(est.mean),
                                     est.std_error / est.mean, est))
    return points


# grids behind the four diagnostic curve families
THETA_GRID = tuple(np.round(np.arange(0.6, 4.001, 0.05), 10))
INFO_ALPHAS = (0.21, 0.51)
EFF_ALPHA_MAX, EFF_ALPHA_STEP = 1.0, 0.01
EFF_EPSILONS = (0.0, 0.05, 0.1)
EPS_GRID = tuple(np.round(np.arange(0.0, 0.1501, 0.01), 10))
EPS_CURVE_ALPHA = 0.21
BREAKDOWN_ALPHA_MAX, BREAKDOWN_STEP = 2.0, 0.01


def tuning_curves(model: GrossErrorModel) -> dict[str, list[tuple]]:
    """CSV-ready series for the four tuning diagnostics; efficiencies by quadrature.

    info_vs_theta:      (alpha, theta, info)
    efficiency_vs_alpha:(epsilon, alpha, efficiency)
    efficiency_vs_eps:  (epsilon, efficiency)  at the curve alpha
    breakdown_vs_alpha: (alpha, d_alpha, m_alpha, eps_star)
    """
    with warnings.catch_warnings():
        # the diagnostic scan deliberately covers shifts below theta1
        warnings.simplefilter("ignore", UserWarning)
        info_series = [(a, th, info_number(float(th), a, model.with_epsilon(0.0)))
                       for a in INFO_ALPHAS for th in THETA_GRID]

    eff_alpha_series = []
    for eps in EFF_EPSILONS:
        for row in tuning_grid(float(eps), model, EFF_ALPHA_MAX, EFF_ALPHA_STEP):
            if row.efficiency is not None:
                eff_alpha_series.append((float(eps), row.alpha, row.efficiency))

    eff_eps_series = []
    a = EPS_CURVE_ALPHA
    for eps in EPS_GRID:
        rows = tuning_grid(float(eps), model, a, a)  # just alpha in {0, a}
        e = next((r.efficiency for r in rows if r.alpha == a), None)
        if e is not None:
            eff_eps_series.append((float(eps), e))

    bd_series = [(r.alpha, r.d_alpha, r.m_alpha, r.eps_star)
                 for r in breakdown_grid(model.nominal, BREAKDOWN_ALPHA_MAX, BREAKDOWN_STEP)]

    return {
        "info_vs_theta": info_series,
        "efficiency_vs_alpha": eff_alpha_series,
        "efficiency_vs_eps": eff_eps_series,
        "breakdown_vs_alpha": bd_series,
    }
