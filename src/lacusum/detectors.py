"""Local detection statistics, global stopping rules, and the run-length engine.

Each stream k carries a recursive nonnegative statistic

    W[k] <- max(W[k] + increment(x[k]), 0)

where the increment is the Box-Cox transformed density difference
([f1(x)]^alpha - [f0(x)]^alpha) / alpha for alpha > 0 and the plain
log-likelihood ratio at alpha = 0.  A fusion rule turns the K local
statistics into one global statistic; the run stops when it reaches b.

Three likelihood-ratio comparison schemes (two window-limited scan
statistics and one recursive mixture statistic) are included for benchmarks.
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


def increment_lower_bound(p: LocalParams) -> float:
    """Analytic lower bound of the increment (reached as f1 -> 0)."""
    if p.alpha == 0.0:
        return -math.inf
    return -((SQRT_2PI * p.fam.sigma) ** (-p.alpha)) / p.alpha


@dataclass(frozen=True)
class DetectorBank:
    """State of K recursive local statistics at time n."""

    params: LocalParams
    w: np.ndarray
    n: int = 0

    @classmethod
    def fresh(cls, params: LocalParams, K: int) -> "DetectorBank":
        return cls(params=params, w=np.zeros(K), n=0)

    @property
    def K(self) -> int:
        return len(self.w)


def bank_update(bank: DetectorBank, obs) -> DetectorBank:
    """Advance every stream one step: w[k] <- max(w[k] + increment(obs[k]), 0)."""
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (bank.K,):
        raise ConfigError(f"expected {bank.K} observations, got shape {obs.shape}")
    w = np.maximum(bank.w + lalpha_increment(obs, bank.params), 0.0)
    return DetectorBank(params=bank.params, w=w, n=bank.n + 1)


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


def _fuse_stat(w: np.ndarray, rule: FusionRule):
    """Global statistic over the last axis of w."""
    if rule.kind == "soft_threshold":
        return np.maximum(w - rule.d, 0.0).sum(axis=-1)
    if rule.kind == "max":
        return w.max(axis=-1)
    return w.sum(axis=-1)


def fuse(bank: DetectorBank, rule: FusionRule) -> StepDecision:
    """Apply the fusion rule to the current bank."""
    stat = float(_fuse_stat(bank.w, rule))
    return StepDecision(global_stat=stat, alarmed=stat >= rule.b)


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


def u_plus(prefix_sums: np.ndarray, k: int, n: int, i: int) -> float:
    """Positive part of the normalized partial sum over observations i+1..n.

    prefix_sums has shape (K, T+1) with prefix_sums[:, 0] = 0, so the value
    is computed in O(1).
    """
    if not 0 <= i < n:
        raise ConfigError(f"need 0 <= i < n, got i={i}, n={n}")
    s = (prefix_sums[k, n] - prefix_sums[k, i]) / math.sqrt(n - i)
    return max(0.0, float(s))


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


def glr_step(gp: GlrParams, b: float, history: np.ndarray | None = None,
             w_star: np.ndarray | None = None) -> StepDecision:
    """One-step decision for a GLR scheme.

    xie_siegmund / chan2 need the trailing window of raw observations
    (shape (K, min(n, window))); chan1 needs the current alpha = 0 bank values.
    """
    if gp.variant == GLR_CHAN1:
        if w_star is None:
            raise ConfigError("chan1 needs the alpha=0 bank values")
        stat = float(glr_recursive_stat(w_star, gp.p0))
    else:
        if history is None:
            raise ConfigError(f"{gp.variant} needs the observation window")
        history = np.asarray(history, dtype=float)
        if history.ndim != 2:
            raise ConfigError("history must be (K, L)")
        coef = 1.0 if gp.variant == GLR_XS else CHAN2_COEF
        stat = float(glr_scan_stat(history, gp.p0, coef))
    return StepDecision(global_stat=stat, alarmed=stat >= b)


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


Scheme = LAlphaScheme | GlrScheme


# ---------------------------------------------------------------------------
# Batch engine: many replicates advance in lock step, each with its own RNG
# ---------------------------------------------------------------------------

class _LAlphaState:
    def __init__(self, scheme: LAlphaScheme, n_rows: int, K: int):
        self.scheme = scheme
        self.w = np.zeros((n_rows, K))

    def run_block(self, X: np.ndarray) -> np.ndarray:
        """Process a (rows, K, B) block; return first alarm offset per row (-1 if none)."""
        inc = lalpha_increment(X, self.scheme.params)
        rule = self.scheme.rule
        hit = np.full(X.shape[0], -1, dtype=np.int64)
        for s in range(X.shape[2]):
            self.w = np.maximum(self.w + inc[:, :, s], 0.0)
            stat = _fuse_stat(self.w, rule)
            new = (stat >= rule.b) & (hit < 0)
            hit[new] = s
        return hit

    def filter(self, keep: np.ndarray):
        self.w = self.w[keep]


class _Chan1State:
    def __init__(self, scheme: GlrScheme, n_rows: int, K: int):
        if scheme.fam is None:
            raise ConfigError("chan1 scheme needs a nominal family")
        self.scheme = scheme
        self.local = LocalParams(alpha=0.0, fam=scheme.fam)
        self.w = np.zeros((n_rows, K))

    def run_block(self, X: np.ndarray) -> np.ndarray:
        inc = lalpha_increment(X, self.local)
        p0, b = self.scheme.params.p0, self.scheme.b
        hit = np.full(X.shape[0], -1, dtype=np.int64)
        for s in range(X.shape[2]):
            self.w = np.maximum(self.w + inc[:, :, s], 0.0)
            stat = glr_recursive_stat(self.w, p0)
            new = (stat >= b) & (hit < 0)
            hit[new] = s
        return hit

    def filter(self, keep: np.ndarray):
        self.w = self.w[keep]


class _WindowGlrState:
    def __init__(self, scheme: GlrScheme, n_rows: int, K: int):
        self.scheme = scheme
        self.coef = 1.0 if scheme.params.variant == GLR_XS else CHAN2_COEF
        self.buf = np.zeros((n_rows, K, scheme.params.window))
        self.filled = 0

    def run_block(self, X: np.ndarray) -> np.ndarray:
        p0, b = self.scheme.params.p0, self.scheme.b
        hit = np.full(X.shape[0], -1, dtype=np.int64)
        for s in range(X.shape[2]):
            self.buf[:, :, :-1] = self.buf[:, :, 1:]
            self.buf[:, :, -1] = X[:, :, s]
            self.filled = min(self.filled + 1, self.buf.shape[2])
            window = self.buf[:, :, -self.filled:]
            stat = glr_scan_stat(window, p0, self.coef)
            new = (stat >= b) & (hit < 0)
            hit[new] = s
        return hit

    def filter(self, keep: np.ndarray):
        self.buf = self.buf[keep]


def _make_state(scheme: Scheme, n_rows: int, K: int):
    if isinstance(scheme, LAlphaScheme):
        return _LAlphaState(scheme, n_rows, K)
    if scheme.params.variant == GLR_CHAN1:
        return _Chan1State(scheme, n_rows, K)
    return _WindowGlrState(scheme, n_rows, K)


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
    state = _make_state(scheme, reps, K)
    t = 0
    while active.size and t < cap:
        B = min(BLOCK, cap - t)
        X = np.empty((active.size, K, B))
        for row, i in enumerate(active):
            X[row] = sampler.draw(rngs[i], t, B)
        hits = state.run_block(X)
        done = hits >= 0
        if done.any():
            stopped = active[done]
            lengths[stopped] = t + hits[done] + 1
            alarmed[stopped] = True
            keep = ~done
            active = active[keep]
            state.filter(keep)
        t += B
    return lengths, ~alarmed


def run_to_alarm(scheme: Scheme, data: np.ndarray | None = None, *,
                 sampler=None, cap: int | None = None, seed: int = 0) -> int | None:
    """Smallest n at which the scheme alarms; None when censored.

    Supply either a (K, T) observation matrix or a stream sampler.  The same
    function serves false-alarm runs (no-change sampler) and delay runs
    (change at time 1).
    """
    if (data is None) == (sampler is None):
        raise ConfigError("provide exactly one of data or sampler")
    if data is not None:
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ConfigError("data must be a (K, T) matrix")
        K, T = data.shape
        horizon = T if cap is None else min(cap, T)
        state = _make_state(scheme, 1, K)
        hits = state.run_block(data[None, :, :horizon])
        return int(hits[0]) + 1 if hits[0] >= 0 else None
    if cap is None:
        raise ConfigError("cap is required with a sampler")
    lengths, censored = simulate_run_lengths(scheme, sampler, reps=1, cap=cap, seed=seed)
    return None if censored[0] else int(lengths[0])


class StreamMonitor:
    """Incremental per-step monitoring for live data feeds.

    Feeds one K-vector at a time and reports the global statistic and alarm
    flag after each step.
    """

    def __init__(self, scheme: Scheme, K: int):
        self.scheme = scheme
        self.K = K
        self._state = _make_state(scheme, 1, K)
        self.n = 0

    def step(self, obs) -> StepDecision:
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.K,):
            raise ConfigError(f"expected {self.K} values, got shape {obs.shape}")
        hit = self._state.run_block(obs[None, :, None])
        self.n += 1
        state = self._state
        if isinstance(state, _WindowGlrState):
            window = state.buf[0, :, -state.filled:]
            stat = float(glr_scan_stat(window, self.scheme.params.p0, state.coef))
        elif isinstance(state, _Chan1State):
            stat = float(glr_recursive_stat(state.w[0], self.scheme.params.p0))
        else:
            stat = float(_fuse_stat(state.w[0], self.scheme.rule))
        return StepDecision(global_stat=stat, alarmed=bool(hit[0] >= 0))
