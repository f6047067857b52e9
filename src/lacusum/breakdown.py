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

from .detectors import LocalParams, lalpha_increment
from .errors import ConfigError
from .models import NominalFamily
from .tuning import _increment_mean, alpha_points


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

    f_theta0 and f_theta1 have the same integral of f^(1 + alpha), so the
    divergence is -(1 + alpha) times the increment's mean under f_theta0.
    """
    return -(1.0 + alpha) * _increment_mean([(1.0, fam.theta0, fam.sigma)],
                                            LocalParams(alpha, fam))


def increment_sup(fam: NominalFamily, alpha: float) -> SupResult:
    """Supremum of the local increment over the real line, with its argmax.

    The increment is odd about the midpoint of theta0 and theta1, and its
    maximum is the one zero above theta1 of its slope, which is proportional
    to (x - theta0) exp(-a (x - theta0)^2) - (x - theta1) exp(-a (x - theta1)^2)
    with a = alpha / (2 sigma^2), and positive at theta1.  The zero is
    bracketed by [theta1, theta1 + w], w doubling from one bump width
    sigma / sqrt(alpha) while the slope at the right end is still positive.
    """
    p = LocalParams(alpha, fam)
    if alpha == 0:
        raise ConfigError("increment_sup needs alpha > 0 (sup is infinite at 0)")
    # imported here: scipy.optimize adds about 0.2 s and 23 MB to importing
    # lacusum, on top of scipy.special (2-core VM), and only this search needs it
    from scipy.optimize import brentq

    a = alpha / (2.0 * fam.sigma**2)

    def slope(x: float) -> float:
        u0, u1 = x - fam.theta0, x - fam.theta1
        return u0 * math.exp(-a * u0 * u0) - u1 * math.exp(-a * u1 * u1)

    w = fam.sigma / math.sqrt(alpha)
    while slope(fam.theta1 + w) > 0.0:
        w *= 2.0
    x = brentq(slope, fam.theta1, fam.theta1 + w, xtol=1e-12)
    return SupResult(x=x, value=float(lalpha_increment(x, p)))


def m_alpha(fam: NominalFamily, alpha: float) -> float:
    """Essential supremum of the increment; infinite at alpha = 0 (unbounded log-LR)."""
    return math.inf if alpha == 0.0 else increment_sup(fam, alpha).value


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
    return [breakdown_report(fam, a) for a in alpha_points(alpha_max, step)]


def alpha_opt(reports: list[BreakdownReport]) -> BreakdownReport:
    """The breakdown grid's report with the largest eps_star; ties go to the smaller alpha."""
    return max(reports, key=lambda r: (r.eps_star, -r.alpha))
