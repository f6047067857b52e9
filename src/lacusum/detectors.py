"""Local detection statistics, global stopping rules, and the run-length engine.

Each stream k carries a recursive nonnegative statistic

    W[k] <- max(W[k] + increment(x[k]), 0)

where the increment is the Box-Cox transformed density difference
([f1(x)]^alpha - [f0(x)]^alpha) / alpha for alpha > 0 and the plain
log-likelihood ratio at alpha = 0.  A fusion rule turns the K local
statistics into one global statistic; the run stops when it reaches b.

Three likelihood-ratio comparison schemes (two window-limited scan
statistics and one recursive mixture statistic) are included for benchmarks.
One kernel per scheme family computes the global-statistic path; the batch
engine and the live monitor both run it, and thresholds are applied outside.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .models import NominalFamily, SQRT_2PI

GLR_XS = "xie_siegmund"
GLR_CHAN1 = "chan1"
GLR_CHAN2 = "chan2"
CHAN1_COEF = 0.64
CHAN2_COEF = 2.0 * (math.sqrt(2.0) - 1.0)

# Observations are consumed in fixed-size blocks per replicate; keeping the
# block size constant makes sample paths independent of thresholds and of
# when other replicates stop.
BLOCK = 64


@dataclass(frozen=True)
class LocalParams:
    """Per-stream statistic parameters: robustness exponent alpha and the family."""

    alpha: float
    fam: NominalFamily

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


def lalpha_increment(x, p: LocalParams):
    """Increment of the robust local statistic; log-likelihood ratio at alpha = 0.

    For alpha > 0 the increment is bounded below by -(2*pi*sigma^2)^(-alpha/2)/alpha,
    which is what blunts the influence of outliers.
    """
    x = np.asarray(x, dtype=float)
    fam = p.fam
    if p.alpha == 0.0:
        mid = 0.5 * (fam.theta0 + fam.theta1)
        return (fam.theta1 - fam.theta0) * (x - mid) / fam.sigma**2
    c = (SQRT_2PI * fam.sigma) ** (-p.alpha)
    a2 = p.alpha / (2.0 * fam.sigma**2)
    e1 = np.exp(-a2 * (x - fam.theta1) ** 2)
    e0 = np.exp(-a2 * (x - fam.theta0) ** 2)
    return c * (e1 - e0) / p.alpha


@dataclass(frozen=True)
class FusionRule:
    """Global statistic and threshold.

    soft_threshold sums max(0, W[k] - d) over streams, discarding streams whose
    local evidence is below d; max and sum are the classical extremes.
    """

    kind: str
    b: float
    d: float = 0.0

    def __post_init__(self):
        if self.kind not in ("soft_threshold", "max", "sum"):
            raise ConfigError(f"unknown fusion kind {self.kind!r}")
        if self.b < 0:
            raise ConfigError(f"threshold b must be >= 0, got {self.b}")
        if self.d < 0:
            raise ConfigError(f"soft threshold d must be >= 0, got {self.d}")

    @classmethod
    def soft(cls, b: float, d: float) -> "FusionRule":
        return cls(kind="soft_threshold", b=b, d=d)

    @classmethod
    def max_rule(cls, b: float) -> "FusionRule":
        return cls(kind="max", b=b)

    @classmethod
    def sum_rule(cls, b: float) -> "FusionRule":
        return cls(kind="sum", b=b)


@dataclass(frozen=True)
class StepDecision:
    global_stat: float
    alarmed: bool


# ---------------------------------------------------------------------------
# Likelihood-ratio comparison schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlrParams:
    """Parameters of the generalized-likelihood-ratio comparison schemes.

    window limits the scan over candidate change times for the two
    window-limited variants; the recursive variant ignores it.
    """

    p0: float
    window: int = 200
    variant: str = GLR_XS

    def __post_init__(self):
        if not 0.0 < self.p0 < 1.0:
            raise ConfigError(f"p0 must lie in (0, 1), got {self.p0}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.variant not in (GLR_XS, GLR_CHAN1, GLR_CHAN2):
            raise ConfigError(f"unknown GLR variant {self.variant!r}")


def _mix_log_term(u, p0: float, coef: float):
    """log(1 - p0 + coef * p0 * exp(u)), overflow-safe for large u."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u <= 30.0
    out[small] = np.log1p(p0 * (coef * np.exp(u[small]) - 1.0))
    big = ~small
    out[big] = u[big] + np.log(coef * p0 + (1.0 - p0) * np.exp(-u[big]))
    return out


def glr_scan_stat(history: np.ndarray, p0: float, coef: float):
    """Scan statistic max over candidate change times for one time step.

    history holds the most recent observations, shape (K, L), oldest first;
    candidate change times are the L window offsets.
    """
    rev = history[..., ::-1]
    tail_sums = np.cumsum(rev, axis=-1)
    j = np.arange(1, history.shape[-1] + 1, dtype=float)
    u = np.maximum(tail_sums / np.sqrt(j), 0.0)
    terms = _mix_log_term(0.5 * u * u, p0, coef)
    return terms.sum(axis=-2).max(axis=-1)


def glr_recursive_stat(w_star: np.ndarray, p0: float):
    """Recursive mixture statistic built on the alpha = 0 bank."""
    return _mix_log_term(0.5 * np.asarray(w_star, dtype=float), p0, CHAN1_COEF).sum(axis=-1)


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LAlphaScheme:
    """A fully parameterized robust detector: local params plus fusion rule."""

    params: LocalParams
    rule: FusionRule
    name: str = ""

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        r = self.rule
        if r.kind == "soft_threshold":
            return f"soft(alpha={self.params.alpha},b={r.b:g},d={r.d:g})"
        return f"{r.kind}(alpha={self.params.alpha},b={r.b:g})"

    @property
    def threshold(self) -> float:
        return self.rule.b

    def with_threshold(self, b: float) -> "LAlphaScheme":
        return replace(self, rule=replace(self.rule, b=b))

    def kernel(self, rows: int, K: int) -> "CusumBank":
        """Fresh detector state for `rows` independent copies of K streams."""
        return CusumBank(self.params, self.rule.kind, rows, K, d=self.rule.d)


@dataclass(frozen=True)
class GlrScheme:
    """A parameterized comparison scheme."""

    params: GlrParams
    b: float
    fam: NominalFamily | None = None  # chan1 needs the family for its bank
    name: str = ""

    @property
    def label(self) -> str:
        return self.name or f"{self.params.variant}(b={self.b:g},p0={self.params.p0:g})"

    @property
    def threshold(self) -> float:
        return self.b

    def with_threshold(self, b: float) -> "GlrScheme":
        return replace(self, b=b)

    def kernel(self, rows: int, K: int) -> "CusumBank | WindowGlr":
        """Fresh detector state for `rows` independent copies of K streams."""
        if self.params.variant != GLR_CHAN1:
            return WindowGlr(self.params, rows, K)
        if self.fam is None:
            raise ConfigError("chan1 scheme needs a nominal family")
        return CusumBank(LocalParams(0.0, self.fam), GLR_CHAN1, rows, K, p0=self.params.p0)


Scheme = LAlphaScheme | GlrScheme




# ---------------------------------------------------------------------------
# Detector kernels: the threshold-free global-statistic path of `rows`
# independent copies of a scheme, advanced one (rows, K, B) block at a time.
# The batch engine runs one row per replicate, the live monitor one row.
# ---------------------------------------------------------------------------

class CusumBank:
    """K recursive local statistics per row, fused into one global statistic.

    The fusion is a FusionRule kind for the L_alpha schemes, or chan1's
    recursive mixture statistic over the alpha = 0 bank.
    """

    def __init__(self, local: LocalParams, fusion: str, rows: int, K: int,
                 d: float = 0.0, p0: float = 0.0):
        self.local, self.fusion, self.d, self.p0 = local, fusion, d, p0
        self.w = np.zeros((rows, K))

    def _fuse(self, w: np.ndarray):
        if self.fusion == "soft_threshold":
            return np.maximum(w - self.d, 0.0).sum(axis=-1)
        if self.fusion == "max":
            return w.max(axis=-1)
        if self.fusion == "sum":
            return w.sum(axis=-1)
        return glr_recursive_stat(w, self.p0)

    def path(self, X: np.ndarray) -> np.ndarray:
        """Global statistic after each step of a (rows, K, B) block, shape (rows, B)."""
        inc = lalpha_increment(X, self.local)
        out = np.empty((X.shape[0], X.shape[2]))
        for s in range(X.shape[2]):
            self.w = np.maximum(self.w + inc[:, :, s], 0.0)
            out[:, s] = self._fuse(self.w)
        return out

    def filter(self, keep: np.ndarray):
        self.w = self.w[keep]


class WindowGlr:
    """Window-limited GLR scan (Xie-Siegmund or chan2) over the trailing observations."""

    def __init__(self, params: GlrParams, rows: int, K: int):
        self.p0 = params.p0
        self.coef = 1.0 if params.variant == GLR_XS else CHAN2_COEF
        self.buf = np.zeros((rows, K, params.window))
        self.filled = 0

    def path(self, X: np.ndarray) -> np.ndarray:
        """Global statistic after each step of a (rows, K, B) block, shape (rows, B)."""
        out = np.empty((X.shape[0], X.shape[2]))
        for s in range(X.shape[2]):
            self.buf[:, :, :-1] = self.buf[:, :, 1:]
            self.buf[:, :, -1] = X[:, :, s]
            self.filled = min(self.filled + 1, self.buf.shape[2])
            out[:, s] = glr_scan_stat(self.buf[:, :, -self.filled:], self.p0, self.coef)
        return out

    def filter(self, keep: np.ndarray):
        self.buf = self.buf[keep]


def first_hits(path: np.ndarray, b: float) -> np.ndarray:
    """Offset of the first step at which each row's path reaches b; -1 if none."""
    hit = path >= b
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def _require_finite(X: np.ndarray, first_step: int):
    """Reject a (K, T) block holding NaN or +-inf: it would blind the statistic for good."""
    finite = np.isfinite(X)
    if not finite.all():
        t = int(finite.all(axis=0).argmin())
        k = int(finite[:, t].argmin())
        raise ConfigError(f"non-finite value {X[k, t]} at step {first_step + t}, "
                          f"column {k + 1}")


# ---------------------------------------------------------------------------
# Batch engine: many replicates advance in lock step, each with its own RNG
# ---------------------------------------------------------------------------

def _replicate_rngs(seed: int, start: int, count: int):
    return [np.random.default_rng(np.random.SeedSequence((seed, start + i)))
            for i in range(count)]


def simulate_run_lengths(scheme: Scheme, sampler, reps: int, cap: int, seed: int,
                         rep_offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stopping times of `reps` independent replicates, censored at cap.

    Returns (lengths, censored): censored replicates report length == cap.
    Replicate i draws from a private generator keyed by (seed, rep_offset + i),
    in fixed blocks, so its path never depends on thresholds or on the other
    replicates.
    """
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    K = sampler.K
    lengths = np.full(reps, cap, dtype=np.int64)
    alarmed = np.zeros(reps, dtype=bool)
    rngs = _replicate_rngs(seed, rep_offset, reps)
    active = np.arange(reps)
    kernel = scheme.kernel(reps, K)
    t = 0
    while active.size and t < cap:
        B = min(BLOCK, cap - t)
        X = np.empty((active.size, K, B))
        for row, i in enumerate(active):
            X[row] = sampler.draw(rngs[i], t, B)
        hits = first_hits(kernel.path(X), scheme.threshold)
        done = hits >= 0
        if done.any():
            stopped = active[done]
            lengths[stopped] = t + hits[done] + 1
            alarmed[stopped] = True
            keep = ~done
            active = active[keep]
            kernel.filter(keep)
        t += B
    return lengths, ~alarmed


def run_to_alarm(scheme: Scheme, data: np.ndarray) -> int | None:
    """Smallest n at which the scheme alarms on a (K, T) observation matrix;
    None when it does not alarm within T steps.

    The data go through the kernel in BLOCK-sized slices, so the work stops
    with the block holding the first alarm.  Non-finite data anywhere in the
    matrix raise ConfigError before any step is taken.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ConfigError("data must be a (K, T) matrix")
    K, T = data.shape
    _require_finite(data, 1)
    kernel = scheme.kernel(1, K)
    for t in range(0, T, BLOCK):
        hit = first_hits(kernel.path(data[None, :, t:t + BLOCK]), scheme.threshold)[0]
        if hit >= 0:
            return t + int(hit) + 1
    return None


class StreamMonitor:
    """Incremental per-step monitoring for live data feeds.

    The scheme's batch kernel with a single row, fed one K-vector at a time;
    each step reports the global statistic and whether it reached the
    threshold.  A non-finite value raises ConfigError naming its step and
    column, since it would blind the statistic for every later step.
    """

    def __init__(self, scheme: Scheme, K: int):
        self.scheme = scheme
        self.K = K
        self._kernel = scheme.kernel(1, K)
        self.n = 0

    def step(self, obs) -> StepDecision:
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.K,):
            raise ConfigError(f"expected {self.K} values, got shape {obs.shape}")
        _require_finite(obs[:, None], self.n + 1)
        stat = float(self._kernel.path(obs[None, :, None])[0, 0])
        self.n += 1
        return StepDecision(global_stat=stat, alarmed=stat >= self.scheme.threshold)
