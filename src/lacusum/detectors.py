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

# Observations are consumed in blocks whose size depends only on the step t a
# block starts after: t itself, clipped to FIRST_BLOCK .. BLOCK, which gives
# 8, 8, 16, 32, 64, 64, ....  A short path draws few steps past its alarm, and
# since the size depends on t alone, sample paths are independent of
# thresholds and of when other replicates stop.
FIRST_BLOCK = 8
BLOCK = 64

# values per pass of the L_alpha increment chain: 128 KB, which stays in cache
INCREMENT_CHUNK = 16_384


def block_size(t):
    """Steps in the block that starts after step t, for t on the schedule
    0, 8, 16, 32, 64, 128, ...: 8, 8, 16, 32, 64, 64, ...; elementwise on arrays."""
    return np.clip(t, FIRST_BLOCK, BLOCK)


@dataclass(frozen=True)
class LocalParams:
    """Per-stream statistic parameters: robustness exponent alpha and the family."""

    alpha: float
    fam: NominalFamily

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:  # NaN too
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")


def lalpha_increment(x, p: LocalParams, out=None):
    """Increment of the robust local statistic; log-likelihood ratio at alpha = 0.

    For alpha > 0 the increment is bounded below by -(2*pi*sigma^2)^(-alpha/2)/alpha,
    which is what blunts the influence of outliers.  With `out`, a C-contiguous
    float array of x's shape, the result is written there and `out` returned.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape {x.shape}, got {out.shape}")
    fam = p.fam
    if p.alpha == 0.0:
        # (theta1 - theta0) * (x - mid) / sigma^2, operation for operation
        np.subtract(x, 0.5 * (fam.theta0 + fam.theta1), out=out)
        np.multiply(out, fam.theta1 - fam.theta0, out=out)
        np.divide(out, fam.sigma**2, out=out)
        return out if out.ndim else out[()]
    c = (SQRT_2PI * fam.sigma) ** (-p.alpha)
    a2 = p.alpha / (2.0 * fam.sigma**2)
    # c * (exp(-a2 * (x - theta1)**2) - exp(-a2 * (x - theta0)**2)) / alpha, operation
    # for operation but in place and INCREMENT_CHUNK values at a time, so that the
    # chain runs in cache and takes out plus one chunk
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(flat_x.size, INCREMENT_CHUNK))
    for lo in range(0, flat_x.size, INCREMENT_CHUNK):
        xs = flat_x[lo:lo + INCREMENT_CHUNK]
        e1, e0 = flat_out[lo:lo + INCREMENT_CHUNK], scratch[:xs.size]
        np.subtract(xs, fam.theta1, out=e1)
        np.subtract(xs, fam.theta0, out=e0)
        for e in (e1, e0):
            np.square(e, out=e)
            np.multiply(e, -a2, out=e)
            np.exp(e, out=e)
        np.subtract(e1, e0, out=e1)
        np.multiply(e1, c, out=e1)
        np.divide(e1, p.alpha, out=e1)
    return out if out.ndim else out[()]


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
        if not 0 <= self.b < math.inf:  # NaN too
            raise ConfigError(f"threshold b must be finite and >= 0, got {self.b}")
        if not 0 <= self.d < math.inf:
            raise ConfigError(f"soft threshold d must be finite and >= 0, got {self.d}")

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


def _mix_log_term(v: np.ndarray, p0: float, coef: float):
    """log(1 - p0 + coef * p0 * exp(v)), written into the float array v and returned.

    The whole array takes log1p(p0 * (coef * exp(v) - 1)) in place when no
    value exceeds 30 (the multiply by coef skipped when it is 1); otherwise
    values above 30 take the overflow-safe form
    v + log(coef * p0 + (1 - p0) * exp(-v)) and the rest the first.
    """
    if v.max() > 30.0:
        small = v <= 30.0
        big = ~small
        v[big] = v[big] + np.log(coef * p0 + (1.0 - p0) * np.exp(-v[big]))
        v[small] = np.log1p(p0 * (coef * np.exp(v[small]) - 1.0))
        return v
    np.exp(v, out=v)
    if coef != 1.0:
        np.multiply(v, coef, out=v)
    np.subtract(v, 1.0, out=v)
    np.multiply(v, p0, out=v)
    return np.log1p(v, out=v)


def glr_scan_stat(tail: np.ndarray, p0: float, coef: float, work=None):
    """Scan statistic max over candidate change times for one time step.

    tail[..., k, j] is the sum of stream k's last j + 1 observations, newest
    first, shape (..., K, L); candidate change times are the L offsets j, each
    with the term of U+ = max(tail, 0) / sqrt(j + 1).  work is a flat float
    buffer of at least tail.size values, which the scan writes into; a fresh
    one when None.
    """
    if work is None:
        work = np.empty(tail.size)
    v = work[:tail.size].reshape(tail.shape)
    np.maximum(tail, 0.0, out=v)
    np.multiply(v, v, out=v)
    np.multiply(v, 0.5 / np.arange(1.0, tail.shape[-1] + 1.0), out=v)  # (U+)^2 / 2
    return _mix_log_term(v, p0, coef).sum(axis=-2).max(axis=-1)


def glr_recursive_stat(w_star: np.ndarray, p0: float):
    """Recursive mixture statistic built on the alpha = 0 bank."""
    return _mix_log_term(np.multiply(w_star, 0.5), p0, CHAN1_COEF).sum(axis=-1)


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

    def __post_init__(self):
        # chan1 and chan2 weigh each stream's term by coef < 1, so their
        # statistics go below 0; xie_siegmund's never does
        if not math.isfinite(self.b) or (self.params.variant == GLR_XS and self.b < 0):
            raise ConfigError(f"threshold b must be finite, and >= 0 for {GLR_XS}, got {self.b}")

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

    def path(self, X: np.ndarray, rows=None) -> np.ndarray:
        """Global statistic after each step of a (n, K, B) block, shape (n, B).

        The block feeds the given rows (every row when None), in that order.
        """
        inc = lalpha_increment(X, self.local)
        w = self.w if rows is None else self.w[rows]
        out = np.empty((X.shape[0], X.shape[2]))
        for s in range(X.shape[2]):
            w = np.maximum(w + inc[:, :, s], 0.0)
            out[:, s] = self._fuse(w)
        # written back in place: state that outlives a block keeps the address
        # it was given before the block's large temporaries, so freeing those
        # leaves the heap unfragmented
        self.w[slice(None) if rows is None else rows] = w
        return out


class WindowGlr:
    """Window-limited GLR scan (Xie-Siegmund or chan2) over the trailing observations.

    The window is kept as running tail sums: for j below the number of
    observations row r has seen, buf[r, k, j] is the sum of the last j + 1
    of stream k, newest first.  The offsets past that are not kept up to
    date; a block gives those its scan reads their row's total, as a
    zero-padded window would hold.
    """

    def __init__(self, params: GlrParams, rows: int, K: int):
        self.p0 = params.p0
        self.coef = 1.0 if params.variant == GLR_XS else CHAN2_COEF
        self.buf = np.zeros((rows, K, params.window))
        self.filled = np.zeros(rows, dtype=np.int64)  # observations seen, up to the window

    def path(self, X: np.ndarray, rows=None) -> np.ndarray:
        """Global statistic after each step of a (n, K, B) block, shape (n, B).

        The block feeds the given rows (every row when None), in that order.
        Each step scans the offsets of the longest-filled row for all rows: a
        shorter row's extra offsets hold its full total, which a larger
        sqrt(j) only divides further, so their terms never exceed its own maximum.
        """
        buf = self.buf if rows is None else self.buf[rows]
        filled = self.filled if rows is None else self.filled[rows]
        window = buf.shape[2]
        out = np.empty((X.shape[0], X.shape[2]))
        work = np.empty(buf.size)  # the scan's buffer, shared by the block's steps
        longest = int(filled.max())
        # a row that has seen fewer observations than the longest (never one of
        # a live monitor, nor of rows advanced together) takes its total up to it
        for r in np.flatnonzero((filled > 0) & (filled < longest)).tolist():
            buf[r, :, filled[r]:longest] = buf[r, :, filled[r] - 1, None]
        # buf is C-contiguous, so one overlapping 1-d copy shifts every window a
        # slot right with no temporary; slot 0 of each window, which takes the
        # oldest sum of the one before, is then zeroed.  The new observation is
        # added only to the offsets the step scans, so an early step costs its
        # filled offsets, not the window: the last of them holds each row's
        # total, and the shift carries it into the offset the next step adds
        flat = buf.reshape(-1)
        for s in range(X.shape[2]):
            flat[1:] = flat[:-1]
            buf[:, :, 0] = 0.0
            scanned = buf[:, :, :min(longest + s + 1, window)]
            np.add(scanned, X[:, :, s, None], out=scanned)
            out[:, s] = glr_scan_stat(scanned, self.p0, self.coef, work)
        if rows is not None:  # with every row, buf is the state itself
            self.buf[rows] = buf
        self.filled[slice(None) if rows is None else rows] = np.minimum(filled + X.shape[2],
                                                                        window)
        return out


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
# Batch engine: many replicates advance block by block, each with its own RNG
# ---------------------------------------------------------------------------

def _replicate_rngs(seed: int, start: int, count: int):
    return [np.random.default_rng(np.random.SeedSequence((seed, start + i)))
            for i in range(count)]


class Replicates:
    """Resumable sample paths of replicates rep_offset .. rep_offset + reps - 1.

    Row i draws from its own generator, keyed by (seed, rep_offset + i), in
    blocks of block_size(t) steps (the last one cut short at cap), so its
    path never depends on a threshold, on the other rows or on how often the
    rows were resumed.  Per row the set keeps the generator, the kernel
    state, the time t reached and the records of the running maximum of the
    global statistic: each step at which the statistic exceeds every earlier
    value, with that value.  The run length at threshold b is the step of the
    first record >= b, so one advance to a bar answers every b up to the bar.
    """

    def __init__(self, scheme: Scheme, sampler, reps: int, cap: int, seed: int,
                 rep_offset: int = 0):
        if cap < 1:
            raise ConfigError(f"cap must be >= 1, got {cap}")
        self.sampler, self.cap = sampler, cap
        self.rngs = _replicate_rngs(seed, rep_offset, reps)
        self.kernel = scheme.kernel(reps, sampler.K)
        self.t = np.zeros(reps, dtype=np.int64)
        self.top = np.full(reps, -np.inf)
        # (row, step, value) arrays, one triple per block; time-ordered per row
        self.records = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]

    def advance(self, bar: float):
        """Draw blocks for every row below bar until it reaches bar or the cap.

        Rows resumed at different t have different block sizes; each size
        goes through the kernel as one group.
        """
        rows = np.flatnonzero((self.top < bar) & (self.t < self.cap))
        while rows.size:
            sizes = block_size(self.t[rows])
            for B in np.unique(sizes).tolist():
                self._block(rows[sizes == B], B)
            rows = rows[(self.top[rows] < bar) & (self.t[rows] < self.cap)]

    def _block(self, rows: np.ndarray, B: int):
        """Advance the given rows, all due a block of B steps, by one block."""
        t = self.t[rows]
        width = np.minimum(self.cap - t, B)
        # a row in its last block, cut short at cap, may run beside rows in a
        # full block: its block is padded, and the padded steps ignored
        X = np.zeros((rows.size, self.sampler.K, B))
        for j, (i, t0, n) in enumerate(zip(rows.tolist(), t.tolist(), width.tolist())):
            X[j, :, :n] = self.sampler.draw(self.rngs[i], t0, n)
        path = self.kernel.path(X, None if rows.size == self.t.size else rows)
        path[np.arange(B) >= width[:, None]] = -np.inf
        prev = np.maximum.accumulate(
            np.concatenate([self.top[rows, None], path[:, :-1]], axis=1), axis=1)
        r, s = np.nonzero(path > prev)
        self.records.append((rows[r], t[r] + s + 1, path[r, s]))
        self.top[rows] = np.maximum(prev[:, -1], path[:, -1])
        self.t[rows] = t + width

    def _flat(self):
        """The records as one (rows, steps, values) triple."""
        if len(self.records) > 1:
            self.records = [tuple(np.concatenate(col) for col in zip(*self.records))]
        return self.records[0]

    def run_lengths(self, b: float) -> tuple[np.ndarray, np.ndarray]:
        """(lengths, censored) at threshold b, for b no higher than the bar reached.

        Censored rows report length == cap.
        """
        rows, steps, values = self._flat()
        hit = values >= b
        lengths = np.full(self.t.size, self.cap, dtype=np.int64)
        np.minimum.at(lengths, rows[hit], steps[hit])
        censored = np.ones(self.t.size, dtype=bool)
        censored[rows[hit]] = False
        if np.any(censored & (self.t < self.cap)):
            raise ValueError(f"rows were not advanced to b = {b}")
        return lengths, censored


def simulate_run_lengths(scheme: Scheme, sampler, reps: int, cap: int, seed: int,
                         rep_offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stopping times of `reps` independent replicates, censored at cap.

    Returns (lengths, censored): censored replicates report length == cap.
    The replicates are advanced to the scheme's threshold and their lengths
    read off the first hits, so a replicate's length never depends on
    thresholds or on the other replicates.
    """
    paths = Replicates(scheme, sampler, reps, cap, seed, rep_offset)
    paths.advance(scheme.threshold)
    return paths.run_lengths(scheme.threshold)


def run_to_alarm(scheme: Scheme, data: np.ndarray) -> int | None:
    """Smallest n at which the scheme alarms on a (K, T) observation matrix;
    None when it does not alarm within T steps.

    The data go through the kernel in slices of the engine's block schedule,
    block_size(t), so the work stops with the block holding the first alarm.
    Non-finite data anywhere in the matrix raise ConfigError before any step
    is taken.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ConfigError("data must be a (K, T) matrix")
    K, T = data.shape
    _require_finite(data, 1)
    kernel = scheme.kernel(1, K)
    t = 0
    while t < T:
        n = int(block_size(t))
        hit = first_hits(kernel.path(data[None, :, t:t + n]), scheme.threshold)[0]
        if hit >= 0:
            return t + int(hit) + 1
        t += n
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
