"""Profile monitoring pipeline: Haar features, standardization, synthetic pools.

A profile of dyadic length is decomposed by the orthonormal Haar transform
(scaling coefficient first, then detail coefficients coarse to fine); the
first p coefficients are z-scored against a baseline fitted on in-control
profiles and fed to the stream detectors as a K = p dimensional observation.

The bundled generator fabricates a forming-force-like dataset: a smooth
baseline curve with i.i.d. noise, a small localized fault (a gentle shape
change plus a sharp glitch) and a large wide fault, for studies where no
real profile data is available.
"""

import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .calibration import CalibrationResult, RunEstimate, calibrate_threshold, estimate_arl
from .errors import ConfigError, DegenerateCoefficientError

SQRT2 = math.sqrt(2.0)


def _check_dyadic(n: int):
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"signal length must be a power of two >= 2, got {n}")


def haar_transform(signal) -> np.ndarray:
    """Full-depth orthonormal Haar coefficients of a dyadic-length signal.

    Output order: overall scaling coefficient, then detail levels from
    coarsest to finest.  The transform is orthonormal, so Parseval holds
    exactly up to rounding.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ConfigError("signal must be one-dimensional")
    _check_dyadic(x.size)
    out = np.empty(x.size)
    a = x
    pos = x.size
    while a.size > 1:
        detail = (a[0::2] - a[1::2]) / SQRT2
        out[pos - detail.size:pos] = detail
        pos -= detail.size
        a = (a[0::2] + a[1::2]) / SQRT2
    out[0] = a[0]
    return out


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

# Shapes of the synthetic profiles.  Centers and widths are fractions of the
# profile length, the glitch width and ripple period are in samples, and the
# ripple and glitch heights are relative to fault1's magnitude.
BASELINE_AMPLITUDE = 80.0
FAULT1_CENTER, FAULT1_WIDTH = 0.67, 0.30
FAULT1_RIPPLE, FAULT1_RIPPLE_PERIOD = 1.0, 64
FAULT1_GLITCH, FAULT1_GLITCH_WIDTH = 12.0, 14
FAULT2_CENTER, FAULT2_WIDTH = 0.35, 0.34
# per-sample fault amplitudes are uniform on 1 +- AMPLITUDE_JITTER
AMPLITUDE_JITTER = 0.2


@dataclass(frozen=True)
class ProfileGeneratorConfig:
    """Length, noise and fault magnitudes of the synthetic forming-force profiles.

    fault1 is a small localized deviation (smooth shape change, a mid-scale
    ripple and one sharp glitch, all inside a sparse support window); fault2
    is a large wide deviation.  Magnitudes are in noise-sd units, default
    ratio 1:5.
    """

    length: int = 2048
    noise_sd: float = 1.0
    fault1_magnitude: float = 2.8
    fault2_magnitude: float = 14.0

    def __post_init__(self):
        _check_dyadic(self.length)
        for name in ("noise_sd", "fault1_magnitude", "fault2_magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sd <= 0:
            raise ConfigError("noise_sd must be positive")


def _check_signals(signals: np.ndarray, label: str):
    """Reject signals that are not a nonempty 2-d array of finite values."""
    if signals.ndim != 2 or signals.shape[0] < 1:
        raise ConfigError(f"{label} must be a nonempty 2-d array")
    bad = np.argwhere(~np.isfinite(signals))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"{label}: non-finite value {signals[i, j]} at row {i + 1}, "
                          f"column {j + 1}")


@dataclass(frozen=True)
class ProfilePool:
    """Normal and faulty profile samples of one signal length, one signal per row."""

    normal: np.ndarray
    fault1: np.ndarray
    fault2: np.ndarray

    def __post_init__(self):
        lengths = {}
        for name in ("normal", "fault1", "fault2"):
            signals = getattr(self, name)
            _check_signals(signals, f"{name} pool")
            lengths[name] = signals.shape[1]
        if len(set(lengths.values())) > 1:
            raise ConfigError("pools must share one signal length, got "
                              + ", ".join(f"{name} {n}" for name, n in lengths.items()))


def _raised_cosine(length: int, center: int, width: int) -> np.ndarray:
    t = np.arange(length)
    z = (t - center) / (width / 2.0)
    return np.where(np.abs(z) < 1.0, 0.5 * (1.0 + np.cos(np.pi * z)), 0.0)


def baseline_curve(config: ProfileGeneratorConfig) -> np.ndarray:
    """Smooth in-control mean profile."""
    t = np.linspace(0.0, 1.0, config.length)
    return BASELINE_AMPLITUDE * np.exp(-((t - 0.5) / 0.18) ** 2) * (
        1.0 + 0.05 * np.sin(8.0 * np.pi * t))


def fault_deviations(config: ProfileGeneratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mean deviation curves of the two fault modes."""
    L = config.length
    window = _raised_cosine(L, int(FAULT1_CENTER * L), int(FAULT1_WIDTH * L))
    ripple = FAULT1_RIPPLE * np.sin(2.0 * np.pi * np.arange(L) / FAULT1_RIPPLE_PERIOD) * window
    glitch = FAULT1_GLITCH * _raised_cosine(L, int(0.6 * L), FAULT1_GLITCH_WIDTH)
    dev1 = config.fault1_magnitude * config.noise_sd * (window + ripple + glitch)
    dev2 = config.fault2_magnitude * config.noise_sd * _raised_cosine(
        L, int(FAULT2_CENTER * L), int(FAULT2_WIDTH * L))
    return dev1, dev2


def synth_pool(config: ProfileGeneratorConfig | None = None,
               counts: tuple[int, int, int] = (307, 69, 69),
               seed: int = 0) -> ProfilePool:
    """Deterministic synthetic pool: baseline plus per-sample jittered deviations."""
    config = config or ProfileGeneratorConfig()
    if len(counts) != 3 or not all(isinstance(n, Integral) and n >= 1 for n in counts):
        raise ConfigError(f"pool counts must be three positive integers, got {counts!r}")
    rng = np.random.default_rng(seed)
    base = baseline_curve(config)
    dev1, dev2 = fault_deviations(config)

    def pool(n: int, dev: np.ndarray) -> np.ndarray:
        amps = 1.0 + AMPLITUDE_JITTER * (2.0 * rng.random(n) - 1.0)
        noise = rng.normal(0.0, config.noise_sd, (n, config.length))
        return base + np.outer(amps, dev) + noise

    return ProfilePool(normal=pool(counts[0], np.zeros(config.length)),
                       fault1=pool(counts[1], dev1),
                       fault2=pool(counts[2], dev2))


POOL_FILES = {"normal": "normal.csv", "fault1": "fault1.csv", "fault2": "fault2.csv"}


def save_pool(pool: ProfilePool, directory) -> None:
    """Write the three pools as normal.csv / fault1.csv / fault2.csv, one signal per row."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, filename in POOL_FILES.items():
        np.savetxt(directory / filename, getattr(pool, name), delimiter=",")


def load_pool(directory) -> ProfilePool:
    """Read a pool written by save_pool (or assembled by hand)."""
    directory = Path(directory)
    arrays = {}
    for name, filename in POOL_FILES.items():
        path = directory / filename
        if not path.exists():
            raise ConfigError(f"missing pool file: {path}")
        try:
            signals = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:  # a cell that is not a number, or a ragged row
            raise ConfigError(f"{path}: {exc}") from None
        if signals.shape[1] < 2:
            raise ConfigError(f"{path}: expected one signal per row")
        _check_signals(signals, str(path))
        arrays[name] = signals
    return ProfilePool(**arrays)


# ---------------------------------------------------------------------------
# Case study
# ---------------------------------------------------------------------------

# share of outlier rows in both case-study streams
OUTLIER_SHARE = 0.1
# the calibration check's relative tolerance on the short case-study runs
CASE_STUDY_REL_TOL = 0.1


@dataclass(frozen=True)
class _PoolMixtureSampler:
    """Standardized coefficient rows from a gross-error mixture of two pools,
    drawn by GrossErrorModel.sample's composition method: a regular row index
    and a uniform per step, then one draw of just as many outlier row indices
    as uniforms fell below OUTLIER_SHARE, written into those steps in order.
    """

    regular: np.ndarray
    outlier: np.ndarray

    @property
    def K(self) -> int:
        return self.regular.shape[1]

    def draw(self, rng: np.random.Generator, t0: int, n: int) -> np.ndarray:
        """Rows for time steps t0+1 .. t0+n, shape (K, n)."""
        rows = self.regular[rng.integers(0, len(self.regular), n)]
        mask = rng.random(n) < OUTLIER_SHARE
        rows[mask] = self.outlier[rng.integers(0, len(self.outlier), np.count_nonzero(mask))]
        return rows.T


@dataclass(frozen=True)
class CaseStudyRow:
    scheme: str
    b: float
    arl: RunEstimate
    delay: RunEstimate


def standardized_pools(pool: ProfilePool, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z-scored first-p Haar coefficient matrices of the three pools.

    Each coefficient is centred on its mean over the normal pool and scaled
    by its standard deviation there (denominator n - 1).
    """
    length = pool.normal.shape[1]
    if not 1 <= p <= length:
        raise ConfigError(f"p={p} must lie in 1..{length}, the signal length")
    if pool.normal.shape[0] < 2:
        raise ConfigError("need at least 2 training signals")
    coeffs = [np.array([haar_transform(s)[:p] for s in signals])
              for signals in (pool.normal, pool.fault1, pool.fault2)]
    mu = coeffs[0].mean(axis=0)
    sd = coeffs[0].std(axis=0, ddof=1)
    degenerate = np.flatnonzero(sd == 0.0)
    if degenerate.size:
        raise DegenerateCoefficientError(int(degenerate[0]))
    return tuple((c - mu) / sd for c in coeffs)


def case_study_run(pool: ProfilePool, schemes, target_arl: float = 300.0, *,
                   pre_outlier: str = "fault1",
                   p: int | None = None, reps: int = 100, seed: int = 0,
                   cap: int | None = None, threads: int = 1) -> list[CaseStudyRow]:
    """Calibrate each scheme on the contaminated in-control stream, then time
    its detection of the persistent fault.

    The in-control stream mixes normal rows with a share OUTLIER_SHARE of
    pre_outlier rows; the faulty stream, changed from its first step on,
    mixes fault1 rows (the persistent change) with the same share of fault2
    rows (transient outliers).
    """
    if pre_outlier not in ("fault1", "fault2"):
        raise ConfigError("pre_outlier must be 'fault1' or 'fault2'")
    if not 1 < target_arl < math.inf:
        raise ConfigError(f"target_arl must be a finite number above 1, got {target_arl}")
    zn, z1, z2 = standardized_pools(pool, p if p is not None else pool.normal.shape[1] // 4)
    pre_sampler = _PoolMixtureSampler(zn, z1 if pre_outlier == "fault1" else z2)
    post_sampler = _PoolMixtureSampler(z1, z2)
    run_cap = cap if cap is not None else int(20 * target_arl)
    rows = []
    for i, scheme in enumerate(schemes):
        cal: CalibrationResult = calibrate_threshold(
            scheme, pre_sampler, target_arl, rel_tol=CASE_STUDY_REL_TOL,
            reps_schedule=(max(50, reps // 2), reps), seed=seed + i,
            cap=run_cap, threads=threads)
        calibrated = scheme.with_threshold(cal.b)
        delay = estimate_arl(calibrated, post_sampler, reps, run_cap, seed + 1000 + i,
                             threads=threads)
        rows.append(CaseStudyRow(scheme=scheme.label, b=cal.b, arl=cal.arl, delay=delay))
    return rows
