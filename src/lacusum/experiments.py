"""Simulation studies: delay tables and contamination robustness curves.

Detection delay is estimated with the change at time 1 (the worst case for
CUSUM-type statistics, whose local state is then at its reflecting floor).
Every cell derives its seed from (master seed, scheme index, scenario index),
so tables are reproducible and cells can run in any order.  Every cell's
sampler is built before the first cell runs, so a bad scenario raises
ConfigError before any simulation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .calibration import RunEstimate, estimate_arl
from .detectors import LAlphaScheme, Scheme
from .errors import ConfigError
from .models import ChangeScenario, GrossErrorModel, MixtureStreamSampler
from .tuning import info_number


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
    """One cell of a delay table; error is always None, kept for callers that
    still read it."""

    scheme: str
    parameter: float
    delay: RunEstimate
    delay_bound_ratio: float | None = None
    error: str | None = None


def _delay_sampler(model_post: GrossErrorModel, scenario: ChangeScenario):
    """The sampler of a change at time 1; ConfigError for any other change
    time or a theta_post below theta1."""
    if scenario.nu != 1:
        raise ConfigError("delay simulation requires a scenario with nu = 1")
    scenario.validate_against(model_post.nominal)
    return MixtureStreamSampler(model_post, scenario)


def simulate_delay(scheme: Scheme, model_post: GrossErrorModel, scenario: ChangeScenario,
                   reps: int, seed: int, cap: int = 100_000,
                   threads: int = 1) -> RunEstimate:
    """Mean detection delay with the change at time 1.

    The first scenario.m streams draw from the contaminated post-change
    distribution from the first observation on; the rest stay pre-change.
    """
    return estimate_arl(scheme, _delay_sampler(model_post, scenario), reps, cap, seed,
                        threads=threads)


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
    """Delay of every scheme under every scenario, scheme by scheme.

    The row parameter is the affected-stream count when scenarios share a
    post-change location, otherwise the post-change location.
    """
    samplers = [_delay_sampler(spec.model_post, s) for s in spec.scenarios]
    by_theta = len({s.theta_post for s in spec.scenarios}) > 1
    rows = []
    for i, scheme in enumerate(spec.schemes):
        for j, (scenario, sampler) in enumerate(zip(spec.scenarios, samplers)):
            est = estimate_arl(scheme, sampler, spec.reps, spec.cap,
                               _cell_seed(spec.seed, i, j), threads=spec.threads)
            param = scenario.theta_post if by_theta else scenario.m
            ratio = _delay_bound_ratio(scheme, spec.model_post, scenario, est.mean)
            rows.append(DelayRow(scheme.label, float(param), est, ratio))
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
    samplers = [MixtureStreamSampler(model.with_epsilon(float(eps)), ChangeScenario.no_change(K))
                for eps in eps_grid]
    points = []
    for i, scheme in enumerate(schemes):
        for j, (eps, sampler) in enumerate(zip(eps_grid, samplers)):
            est = estimate_arl(scheme, sampler, reps, cap, _cell_seed(seed, i, j),
                               threads=threads)
            points.append(CurvePoint(scheme.label, float(eps), math.log(est.mean),
                                     est.std_error / est.mean, est))
    return points
