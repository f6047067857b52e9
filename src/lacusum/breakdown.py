"""False-alarm breakdown analysis.

The breakdown point of a calibrated scheme is the smallest contamination
fraction at which a worst-case outlier distribution drags the expected
pre-change increment positive, collapsing the log run length.  For the
robust statistic it has the closed form

    eps* = d_alpha / (d_alpha + (1 + alpha) * M(alpha))

where d_alpha is the density power divergence between the two design
densities and M(alpha) the essential supremum of the increment.  The
worst-case outlier is a point mass at the increment's argmax.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detectors import LocalParams, lalpha_increment
from .errors import ConfigError
from .models import NominalFamily, SQRT_2PI

# increment_sup's grid reaches this many sigmas beyond both modes; the
# golden-section refinement stops at this tolerance
SUP_MARGIN_SIGMAS = 10.0
SUP_GRID_POINTS = 20001
SUP_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class BreakdownReport:
    alpha: float
    d_alpha: float
    m_alpha: float
    eps_star: float


@dataclass(frozen=True)
class SupResult:
    x: float
    value: float


def density_power_divergence(fam: NominalFamily, alpha: float) -> float:
    """Divergence between f_theta0 and f_theta1; Kullback-Leibler at alpha = 0.

    Gaussian closed form:
        alpha > 0:  sqrt(1+a) / (a (sqrt(2 pi) sigma)^a) * (1 - exp(-a D^2 / (2(1+a) sigma^2)))
        alpha = 0:  D^2 / (2 sigma^2)
    with D = theta1 - theta0.
    """
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    delta = fam.theta1 - fam.theta0
    if alpha == 0.0:
        return delta**2 / (2.0 * fam.sigma**2)
    decay = math.exp(-alpha * delta**2 / (2.0 * (1.0 + alpha) * fam.sigma**2))
    return math.sqrt(1.0 + alpha) / (alpha * (SQRT_2PI * fam.sigma) ** alpha) * (1.0 - decay)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def increment_sup(fam: NominalFamily, alpha: float) -> SupResult:
    """Supremum of the local increment over the real line, with its argmax.

    Coarse grid over theta0 - margin*sigma .. theta1 + margin*sigma (the
    increment decays doubly exponentially beyond both modes), then
    golden-section refinement around the best cell.
    """
    if alpha <= 0:
        raise ConfigError("increment_sup needs alpha > 0 (sup is infinite at 0)")
    p = LocalParams(alpha=alpha, fam=fam)
    lo = fam.theta0 - SUP_MARGIN_SIGMAS * fam.sigma
    hi = fam.theta1 + SUP_MARGIN_SIGMAS * fam.sigma
    xs = np.linspace(lo, hi, SUP_GRID_POINTS)
    vals = lalpha_increment(xs, p)
    i = int(np.argmax(vals))
    step = xs[1] - xs[0]
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]
    f = lambda x: float(lalpha_increment(np.array([x]), p)[0])
    x_star, v_star = _golden_max(f, a, b, max(SUP_REFINE_TOL, step * 1e-9))
    if vals[i] > v_star:
        x_star, v_star = float(xs[i]), float(vals[i])
    return SupResult(x=x_star, value=v_star)


def m_alpha(fam: NominalFamily, alpha: float) -> float:
    """Essential supremum of the increment; infinite at alpha = 0 (unbounded log-LR)."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    if alpha == 0.0:
        return math.inf
    return increment_sup(fam, alpha).value


def breakdown_report(fam: NominalFamily, alpha: float) -> BreakdownReport:
    """Breakdown point of the scheme at this alpha, with its two ingredients.

    eps_star is zero when M(alpha) is infinite while the divergence is
    finite, which is exactly the alpha = 0 (classical CUSUM) case for
    Gaussian families.  The divergence is always finite for a Gaussian
    location family, so the other infinite cases of the general theory
    cannot occur here.
    """
    d = density_power_divergence(fam, alpha)
    M = m_alpha(fam, alpha)
    eps = 0.0 if math.isinf(M) else d / (d + (1.0 + alpha) * M)
    return BreakdownReport(alpha=alpha, d_alpha=d, m_alpha=M, eps_star=eps)


def breakdown_grid(fam: NominalFamily, alpha_max: float = 2.0,
                   step: float = 0.01) -> list[BreakdownReport]:
    """Breakdown curve over the alpha grid (alpha = 0 included for reference)."""
    if step <= 0:
        raise ConfigError("grid step must be positive")
    n_pts = int(round(alpha_max / step)) + 1
    return [breakdown_report(fam, float(a))
            for a in np.round(np.arange(n_pts) * step, 10)]


def alpha_opt(reports: list[BreakdownReport]) -> BreakdownReport:
    """The breakdown grid's report with the largest eps_star; ties go to the smaller alpha."""
    return max(reports, key=lambda r: (r.eps_star, -r.alpha))
