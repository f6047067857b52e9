"""Reference forms that the library no longer exports, kept as test oracles.

solve_lambda finds the MGF root at one alpha on its own sample, without the
tuning grid's warm start; solve_mgf_root_whole is the MGF root solver that
evaluates phi over the whole sample at once, which the chunked solver must
match to summation order; inverse_haar_transform inverts haar_transform;
lalpha_increment_whole, glr_tail_scan_whole and glr_recursive_stat_whole are
the whole-array forms of the detector kernels, which the chunked and
buffered kernels must match bit for bit; glr_scan_stat_whole is the scan
on the raw window of observations that the running tail sums replaced,
which they must match to rounding; info_number_closed_form and
info_number_quadrature are the contamination-free closed form and the
401-node Gauss-Hermite integral that the exact info number replaced;
gaussian_pdf, mixture_pdf_two_term, mixture_nodes_two_term and
divergence_closed_form are the Gaussian density and the forms of the
mixture density, its quadrature nodes and d_alpha that each wrote the
mixture out by hand before the model's component list replaced them.
"""

import math

import numpy as np
from scipy.special import roots_hermite

from lacusum import (LocalParams, MgfDivergenceError, NoPositiveRootError, QuadratureConfig,
                     lalpha_increment, solve_mgf_root)
from lacusum.detectors import CHAN1_COEF
from lacusum.models import SQRT_2PI
from lacusum.profiles import SQRT2, _check_dyadic
from lacusum.tuning import QUAD_NODES, QUAD_TOLERANCE, _support


def increment_values(model, theta, alpha, qc):
    """(Y values, weights) for the increment under h_theta, per the chosen method."""
    x, w = _support(model, theta, qc)
    return lalpha_increment(x, LocalParams(alpha=alpha, fam=model.nominal)), w


def solve_lambda(epsilon, alpha, model, qc=None):
    """Positive root lambda(eps, alpha) of the pre-change increment MGF.

    At (eps, alpha) = (0, 0) the increment is the log-likelihood ratio and
    E_{f0}[f1/f0] = 1 identically, so the root is exactly 1.
    """
    qc = qc or QuadratureConfig()
    model = model.with_epsilon(epsilon)
    if epsilon == 0.0 and alpha == 0.0:
        return 1.0
    y, w = increment_values(model, model.nominal.theta0, alpha, qc)
    return solve_mgf_root(y, w)


def solve_mgf_root_whole(values, weights=None, tolerance=QUAD_TOLERANCE, hint=None):
    """solve_mgf_root with each evaluation of phi and phi' over one sample-sized buffer."""
    y = np.asarray(values, dtype=float)
    w = None if weights is None else np.asarray(weights, dtype=float) / np.sum(weights)
    mean = float(np.mean(y) if w is None else np.dot(w, y))
    if mean >= 0.0:
        raise NoPositiveRootError(f"E[Y] = {mean:.6g} >= 0: no positive MGF root exists")
    buf, wy, n = np.empty_like(y), (y if w is None else w * y), (y.size if w is None else 1.0)

    def phi(lam):
        np.multiply(y, lam, out=buf)
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(buf, out=buf)
            total = buf.sum() if w is None else np.dot(w, buf)
            return float(total) / n, float(np.einsum("i,i->", wy, buf)) / n

    lo, hi, hi_finite, step, older = 0.0, math.inf, False, math.inf, math.inf
    lam = hint if hint and hint > 0 else 1.0
    for _ in range(200):
        val, slope = phi(lam)
        if val < 1.0:
            lo = lam
        else:
            hi, hi_finite = lam, math.isfinite(val)
        if abs(val - 1.0) < tolerance and hi_finite:
            return lam
        if hi - lo < 1e-15 * max(1.0, hi) or hi < 1e-12:
            break
        newton = lam - math.log(val) * val / slope if 0 < val < math.inf and slope > 0 else lo
        if lo < newton < hi and abs(newton - lam) <= 0.5 * older:
            step, older, lam = abs(newton - lam), step, newton
        elif hi < math.inf:
            step, older, lam = 0.5 * (hi - lo), step, 0.5 * (lo + hi)
        elif 2.0 * lam > 1e9:
            raise NoPositiveRootError("no upper bracket found below lambda = 1e9")
        else:
            step, older, lam = lam, step, 2.0 * lam
    if not hi_finite:
        raise MgfDivergenceError(f"MGF not finite at lambda = {hi:g} before a root was "
                                 "bracketed", last_finite_lambda=lo)
    if lo == 0.0:
        raise NoPositiveRootError("MGF never dips below 1 near the origin")
    return 0.5 * (lo + hi)


def inverse_haar_transform(coefficients) -> np.ndarray:
    """Inverse of haar_transform; provided for round-trip verification."""
    c = np.asarray(coefficients, dtype=float)
    _check_dyadic(c.size)
    a = c[:1].copy()
    pos = 1
    while pos < c.size:
        detail = c[pos:2 * pos]
        nxt = np.empty(2 * pos)
        nxt[0::2] = (a + detail) / SQRT2
        nxt[1::2] = (a - detail) / SQRT2
        a = nxt
        pos *= 2
    return a


def lalpha_increment_whole(x, p: LocalParams):
    """lalpha_increment for alpha > 0, one operation at a time over the whole array."""
    x = np.asarray(x, dtype=float)
    fam = p.fam
    c = (SQRT_2PI * fam.sigma) ** (-p.alpha)
    a2 = p.alpha / (2.0 * fam.sigma**2)
    e1 = np.subtract(x, fam.theta1, out=np.empty_like(x))
    e0 = np.subtract(x, fam.theta0, out=np.empty_like(x))
    for e in (e1, e0):
        np.square(e, out=e)
        np.multiply(e, -a2, out=e)
        np.exp(e, out=e)
    np.subtract(e1, e0, out=e1)
    np.multiply(e1, c, out=e1)
    np.divide(e1, p.alpha, out=e1)
    return e1[()]


def glr_tail_scan_whole(tail, p0, coef):
    """glr_scan_stat on the tail sums, with a fresh array for every operation."""
    pos = np.maximum(tail, 0.0)
    v = pos * pos * (0.5 / np.arange(1.0, tail.shape[-1] + 1.0))
    return mix_log_term(v, p0, coef).sum(axis=-2).max(axis=-1)


def glr_scan_stat_whole(history, p0, coef):
    """The scan on the most recent observations, shape (K, L) oldest first, with
    a fresh array for every operation: the window's tail sums by a cumsum
    newest first, each divided by sqrt(j)."""
    rev = history[..., ::-1]
    tail_sums = np.cumsum(rev, axis=-1)
    j = np.arange(1, history.shape[-1] + 1, dtype=float)
    u = np.maximum(tail_sums / np.sqrt(j), 0.0)
    terms = mix_log_term(0.5 * u * u, p0, coef)
    return terms.sum(axis=-2).max(axis=-1)


def glr_recursive_stat_whole(w_star, p0):
    """glr_recursive_stat with a fresh array for every operation."""
    return mix_log_term(0.5 * np.asarray(w_star, dtype=float), p0, CHAN1_COEF).sum(axis=-1)


def mix_log_term(u, p0, coef):
    """log(1 - p0 + coef * p0 * exp(u)) into a fresh array, split by a mask at u = 30."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u <= 30.0
    out[small] = np.log1p(p0 * (coef * np.exp(u[small]) - 1.0))
    big = ~small
    out[big] = u[big] + np.log(coef * p0 + (1.0 - p0) * np.exp(-u[big]))
    return out


def info_number_closed_form(theta, alpha):
    """Contamination-free info number for the (0, 1, 1)-normalized family."""
    if alpha == 0.0:
        return theta - 0.5
    c = (2.0 * math.pi) ** (-alpha / 2.0)
    s = 2.0 * (1.0 + alpha)
    return (c / (alpha * math.sqrt(1.0 + alpha))) * (
        math.exp(-alpha * (theta - 1.0) ** 2 / s) - math.exp(-alpha * theta**2 / s))


def info_number_quadrature(theta, epsilon, alpha, model):
    """E[increment] under h_theta by Gauss-Hermite quadrature, 401 nodes per
    Gaussian component; a point-mass outlier is a single node."""
    model = model.with_epsilon(epsilon)
    fam, out = model.nominal, model.outlier
    t, w = roots_hermite(401)
    t, w = t * math.sqrt(2.0), w / math.sqrt(math.pi)
    xs, ws = [theta + fam.sigma * t], [(1.0 - epsilon) * w]
    if epsilon > 0.0:
        if out.kind == "gaussian":
            xs.append(out.mean + out.sd * t)
            ws.append(epsilon * w)
        else:
            xs.append(np.array([out.location]))
            ws.append(np.array([epsilon]))
    y = lalpha_increment(np.concatenate(xs), LocalParams(alpha, fam))
    return float(np.dot(np.concatenate(ws), y))


def gaussian_pdf(x, mean, sd):
    """Gaussian density with the given mean and sd; vectorized in x."""
    z = (np.asarray(x, dtype=float) - mean) / sd
    return np.exp(-0.5 * z * z) / (SQRT_2PI * sd)


def mixture_pdf_two_term(x, theta, model):
    """(1 - eps) f_theta(x), plus eps g(x) for eps > 0, for a gaussian outlier."""
    base = (1.0 - model.epsilon) * gaussian_pdf(x, theta, model.nominal.sigma)
    if model.epsilon == 0.0:
        return base
    return base + model.epsilon * gaussian_pdf(x, model.outlier.mean, model.outlier.sd)


def mixture_nodes_two_term(model, theta):
    """Gauss-Hermite nodes and weights for h_theta, its two components written out."""
    t, w = roots_hermite(QUAD_NODES)
    t, w = t * math.sqrt(2.0), w / math.sqrt(math.pi)
    fam = model.nominal
    xs = [theta + fam.sigma * t]
    ws = [(1.0 - model.epsilon) * w]
    if model.epsilon > 0.0:
        out = model.outlier
        if out.kind == "gaussian":
            xs.append(out.mean + out.sd * t)
            ws.append(model.epsilon * w)
        else:
            xs.append(np.array([out.location]))
            ws.append(np.array([model.epsilon]))
    return np.concatenate(xs), np.concatenate(ws)


def divergence_closed_form(fam, alpha):
    """Density power divergence between f_theta0 and f_theta1, Gaussian closed form:
    sqrt(1+a) / (a (sqrt(2 pi) sigma)^a) * (1 - exp(-a D^2 / (2(1+a) sigma^2))) for
    alpha > 0 and D^2 / (2 sigma^2) at alpha = 0, with D = theta1 - theta0."""
    delta = fam.theta1 - fam.theta0
    if alpha == 0.0:
        return delta**2 / (2.0 * fam.sigma**2)
    decay = math.exp(-alpha * delta**2 / (2.0 * (1.0 + alpha) * fam.sigma**2))
    return math.sqrt(1.0 + alpha) / (alpha * (SQRT_2PI * fam.sigma) ** alpha) * (1.0 - decay)
