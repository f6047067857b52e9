"""Tuning quantities: information numbers, MGF roots, efficiency, design formulas.

Everything here is an expected value of the local increment Y under the
contaminated model, or a function of two such expectations:

  * info number      I(theta, eps, alpha) = E_{h_theta}[Y], in closed form
  * MGF root         lambda(eps, alpha):  E_{h_theta0}[exp(lambda * Y)] = 1, on
                     quadrature nodes or a Monte Carlo sample (QuadratureConfig)
  * efficiency       e(eps, alpha) = lambda*I at alpha over lambda*I at 0, minus 1

plus the closed-form design rules for the soft threshold d and the global
threshold b, and the non-asymptotic ARL lower bound they derive from.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detectors import INCREMENT_CHUNK, LocalParams, lalpha_increment
from .errors import ConfigError, MgfDivergenceError, NoPositiveRootError, NumericError
from .models import GrossErrorModel, SQRT_2PI

MC_MIN_SAMPLES = 100_000

# the MGF root stops at |phi - 1| below this
QUAD_TOLERANCE = 1e-6

# Gauss-Hermite nodes per Gaussian component
QUAD_NODES = 201


@dataclass(frozen=True)
class QuadratureConfig:
    """How the MGF root's expectation is evaluated: deterministic quadrature or
    Monte Carlo.  The info number is exact under either method, so Monte Carlo
    estimates lambda only."""

    method: str = "gauss_hermite_mixture"
    n_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("gauss_hermite_mixture", "monte_carlo"):
            raise ConfigError(f"unknown quadrature method {self.method!r}")
        if self.method == "monte_carlo" and self.n_samples < MC_MIN_SAMPLES:
            raise ConfigError(f"monte_carlo needs >= {MC_MIN_SAMPLES} samples")

    @classmethod
    def monte_carlo(cls, n_samples: int = 1_000_000, seed: int = 0) -> "QuadratureConfig":
        return cls(method="monte_carlo", n_samples=n_samples, seed=seed)

    @classmethod
    def quadrature(cls) -> "QuadratureConfig":
        return cls(method="gauss_hermite_mixture")


def mixture_nodes(model: GrossErrorModel, theta: float):
    """Quadrature nodes and probability weights for E_{h_theta}[phi(X)].

    Gaussian components use QUAD_NODES Gauss-Hermite nodes; a point mass is a
    single node.
    """
    # imported here: scipy.special adds about 0.25 s and 17 MB to importing
    # lacusum (2-core VM), and only the quadrature method needs it
    from scipy.special import roots_hermite

    t, w = roots_hermite(QUAD_NODES)
    t, w = t * math.sqrt(2.0), w / math.sqrt(math.pi)
    xs, ws = [], []
    for wt, m, s in model.components(theta):
        xs.append(m + s * t if s > 0.0 else np.array([m]))
        ws.append(wt * w if s > 0.0 else np.array([wt]))
    return np.concatenate(xs), np.concatenate(ws)


def _support(model: GrossErrorModel, theta: float, qc: QuadratureConfig) -> tuple:
    """(x, weights) under h_theta per the chosen method.

    Monte Carlo returns the first qc.n_samples draws from default_rng(qc.seed),
    weights None; quadrature returns mixture_nodes.
    """
    if qc.method == "monte_carlo":
        return model.sample(np.random.default_rng(qc.seed), theta, qc.n_samples), None
    return mixture_nodes(model, theta)


def _increment_mean(parts: list[tuple[float, float, float]], p: LocalParams) -> float:
    """E[Y] for the increment Y of p when X is a mixture of (weight, mean, sd) parts.

    For X ~ N(m, s^2), E[exp(-a (X - t)^2)] = exp(-a (m - t)^2 / (1 + 2 a s^2))
    / sqrt(1 + 2 a s^2), a point mass being s = 0; with a = alpha / (2 sigma^2)
    the increment's mean is c / alpha times that at t = theta1 less that at
    t = theta0, each weighted over the parts.  At alpha = 0 the increment is
    linear in x, so its mean is the increment at E[X].
    """
    fam, alpha = p.fam, p.alpha
    if alpha == 0.0:
        return float(lalpha_increment(sum(w * m for w, m, _ in parts), p))
    a = alpha / (2.0 * fam.sigma**2)

    def bump_mean(t: float) -> float:
        return sum(w * math.exp(-a * (m - t) ** 2 / (1.0 + 2.0 * a * s * s))
                   / math.sqrt(1.0 + 2.0 * a * s * s) for w, m, s in parts)

    c = (SQRT_2PI * fam.sigma) ** (-alpha)
    return c * (bump_mean(fam.theta1) - bump_mean(fam.theta0)) / alpha


def info_number(theta: float, alpha: float, model: GrossErrorModel) -> float:
    """Expected local increment under the model's mixture h_theta, exactly."""
    fam = model.nominal
    if theta < fam.theta1:
        warnings.warn(f"info number evaluated below theta1 ({theta} < {fam.theta1}); "
                      "detectors are designed for shifts of at least theta1",
                      stacklevel=2)
    return _increment_mean(model.components(theta), LocalParams(alpha, fam))


def solve_mgf_root(values: np.ndarray, weights: np.ndarray | None = None,
                   tolerance: float = QUAD_TOLERANCE, hint: float | None = None) -> float:
    """Unique positive root of E[exp(lambda * Y)] = 1 for a weighted sample of Y.

    Requires E[Y] < 0 (otherwise no positive root exists).  The MGF phi is
    convex with phi(0) = 1, so phi < 1 below the root and phi >= 1 above it;
    a non-finite phi also marks lambda as above the root.  Each evaluation
    runs over the sample INCREMENT_CHUNK values at a time: it fills one chunk
    of scratch with exp(lambda Y), reads phi's and phi' = E[Y exp(lambda Y)]'s
    partial sums off it, and adds them up in chunk order.  From the hint (or 1)
    the solver takes Newton steps on log phi, which is also convex, so steps
    from above the root converge monotonically.  A step that leaves the
    bracket (lo, hi), or fails to halve the step before last, is replaced by
    bisection, or by doubling lambda while hi is unknown.  Stops at a
    bracketed lambda with |phi - 1| < tolerance.
    """
    y = np.asarray(values, dtype=float)
    w = None if weights is None else np.asarray(weights, dtype=float) / np.sum(weights)
    mean = float(np.mean(y) if w is None else np.dot(w, y))
    if mean >= 0.0:
        raise NoPositiveRootError(f"E[Y] = {mean:.6g} >= 0: no positive MGF root exists")
    wy, n = (y, y.size) if w is None else (w * y, 1.0)
    # the chunk stays in cache through the multiply, exp and both sums
    scratch = np.empty(min(y.size, INCREMENT_CHUNK))

    def phi(lam: float) -> tuple[float, float]:
        total = deriv = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, y.size, INCREMENT_CHUNK):
                part = slice(start, start + INCREMENT_CHUNK)
                ys = y[part]
                buf = scratch[:ys.size]
                np.multiply(ys, lam, out=buf)
                np.exp(buf, out=buf)
                total += buf.sum() if w is None else np.dot(w[part], buf)
                # einsum sums in one fixed order; BLAS dot splits the sum by thread count
                deriv += np.einsum("i,i->", wy[part], buf)
        return float(total) / n, float(deriv) / n

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


def alpha_points(alpha_max: float, step: float) -> list[float]:
    """The alpha grid 0, step, 2 step, ... up to alpha_max, rounded to 10 decimals."""
    if not (0.0 <= alpha_max < math.inf and 0.0 < step < math.inf):
        raise ConfigError(f"alpha grid needs a finite alpha_max >= 0 and a finite step > 0, "
                          f"got alpha_max = {alpha_max}, step = {step}")
    n_pts = int(round(alpha_max / step)) + 1
    return np.round(np.arange(n_pts) * step, 10).tolist()


@dataclass(frozen=True)
class GridRow:
    """One alpha grid point: root, info number, objective, efficiency."""

    alpha: float
    lambda_: float | None
    info: float | None
    objective: float | None
    efficiency: float | None


def tuning_grid(epsilon: float, model: GrossErrorModel, alpha_max: float = 2.0,
                step: float = 0.01, qc: QuadratureConfig | None = None) -> list[GridRow]:
    """Evaluate lambda, I, lambda*I and e over the alpha grid.

    I is info_number at theta1, exact under either method; lambda is solved
    on one pre-change support, the same quadrature nodes or Monte Carlo draws
    at every grid point (common random numbers), which keeps the argmax
    stable.  Grid points with no positive root are recorded with None
    entries and skipped.  Each root search starts from the line through the
    two previous roots when both exist, else from the last root found.
    """
    alphas = alpha_points(alpha_max, step)
    qc = qc or QuadratureConfig()
    model = model.with_epsilon(epsilon)
    fam = model.nominal

    x0, w0 = _support(model, fam.theta0, qc)

    # one increment buffer for every alpha: a fresh sample-sized array per
    # call left the heap to glibc's trimming, which refaulted it at every alpha
    y = np.empty_like(x0)
    rows = []
    prev_lam = None
    for a in alphas:
        if a == 0.0 and epsilon == 0.0:
            lam = 1.0
        else:
            last = [r.lambda_ for r in rows[-2:]]
            hint = 2.0 * last[1] - last[0] if len(last) == 2 and None not in last else prev_lam
            try:
                lam = solve_mgf_root(lalpha_increment(x0, LocalParams(a, fam), y), w0,
                                     hint=hint)
            except (NoPositiveRootError, MgfDivergenceError):
                rows.append(GridRow(a, None, None, None, None))
                continue
        prev_lam = lam
        info = info_number(fam.theta1, a, model)
        rows.append(GridRow(a, lam, info, lam * info, None))

    base = next((r.objective for r in rows if r.alpha == 0.0 and r.objective is not None), None)
    if base is not None:
        rows = [GridRow(r.alpha, r.lambda_, r.info, r.objective,
                        None if r.objective is None else r.objective / base - 1.0)
                for r in rows]
    return rows


def alpha_oracle(rows: list[GridRow]) -> GridRow:
    """The tuning grid's row that maximizes lambda * I; ties go to the smaller alpha."""
    usable = [r for r in rows if r.objective is not None]
    if not usable:
        raise NumericError("no grid point admits a positive MGF root "
                           "(contamination beyond every breakdown point?)")
    return max(usable, key=lambda r: r.objective)


# ---------------------------------------------------------------------------
# Design formulas
# ---------------------------------------------------------------------------

def d_opt(lambda_: float, K: int, m: int, gamma: float) -> float:
    """First-order optimal soft-threshold level, clamped at zero.

    When log(gamma) <= K, the simplified log(K/m) / lambda; otherwise the
    exact unique minimizer of the delay bound b_gamma(d)/m + d.
    """
    if not 1 <= m <= K:
        raise ConfigError(f"need 1 <= m <= K, got m={m}, K={K}")
    if gamma <= 1 or lambda_ <= 0:
        raise ConfigError("need gamma > 1 and lambda > 0")
    if math.log(gamma) <= K:
        return max(math.log(K / m) / lambda_, 0.0)
    lg = math.log(4.0 * gamma)
    root = math.sqrt(m + lg / 4.0) - 0.5 * math.sqrt(lg)
    return max(math.log(K / root**2) / lambda_, 0.0)


def b_gamma(lambda_: float, K: int, d: float, gamma: float) -> float:
    """Conservative global threshold meeting the ARL constraint gamma."""
    if gamma <= 1 or lambda_ <= 0:
        raise ConfigError("need gamma > 1 and lambda > 0")
    return (math.sqrt(math.log(4.0 * gamma)) +
            math.sqrt(K * math.exp(-lambda_ * d))) ** 2 / lambda_


def arl_lower_bound(lambda_: float, b: float, d: float, K: int) -> float | None:
    """Non-asymptotic ARL lower bound; None when its hypothesis fails.

    Requires lambda * b > K * exp(-lambda * d).
    """
    if lambda_ <= 0:
        raise ConfigError("lambda must be positive")
    tail = K * math.exp(-lambda_ * d)
    if lambda_ * b <= tail:
        return None
    return 0.25 * math.exp((math.sqrt(lambda_ * b) - math.sqrt(tail)) ** 2)

