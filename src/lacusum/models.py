"""Probability models for contaminated stream monitoring.

The observation model is a two-component gross error mixture: with
probability 1 - epsilon a draw comes from the nominal Gaussian location
family, with probability epsilon from an arbitrary outlier distribution.
Streams are independent; a change scenario shifts the nominal location of
the first m streams from time nu onward.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoDensityError

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class NominalFamily:
    """Gaussian location family: pre-change location, minimal post-change location, scale.

    theta1 - theta0 is the smallest shift magnitude the detectors are designed
    to catch; sigma is shared by every member of the family.
    """

    theta0: float
    theta1: float
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:  # NaN too
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not (math.isfinite(self.theta0) and math.isfinite(self.theta1)):
            raise ConfigError(f"theta0 ({self.theta0}) and theta1 ({self.theta1}) "
                              "must be finite")
        if not self.theta1 > self.theta0:
            raise ConfigError(f"theta1 ({self.theta1}) must exceed theta0 ({self.theta0})")


@dataclass(frozen=True)
class OutlierSpec:
    """Outlier distribution: a gaussian, or a point mass (the breakdown worst case)."""

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    location: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "point_mass"):
            raise ConfigError(f"unknown outlier kind {self.kind!r}")
        if not all(map(math.isfinite, (self.mean, self.sd, self.location))):
            raise ConfigError(f"outlier mean {self.mean}, sd {self.sd} or location "
                              f"{self.location} is not finite")
        if self.kind == "gaussian" and self.sd <= 0:
            raise ConfigError(f"gaussian outlier sd must be positive, got {self.sd}")

    @classmethod
    def gaussian_outlier(cls, mean: float = 0.0, sd: float = 3.0) -> "OutlierSpec":
        return cls(kind="gaussian", mean=mean, sd=sd)

    @classmethod
    def point_mass_outlier(cls, location: float) -> "OutlierSpec":
        return cls(kind="point_mass", location=location)

    def sample(self, rng: np.random.Generator, size):
        """Draw samples of the given shape."""
        if self.kind == "gaussian":
            return rng.normal(self.mean, self.sd, size)
        return np.full(size, self.location)


@dataclass(frozen=True)
class GrossErrorModel:
    """Contamination mixture h_theta = (1 - epsilon) * f_theta + epsilon * g."""

    epsilon: float
    nominal: NominalFamily
    outlier: OutlierSpec

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    def with_epsilon(self, epsilon: float) -> "GrossErrorModel":
        return GrossErrorModel(epsilon, self.nominal, self.outlier)

    def components(self, theta: float) -> list[tuple[float, float, float]]:
        """(weight, mean, sd) of each Gaussian component of h_theta, nominal first.

        A point-mass outlier is a component of sd 0; at epsilon = 0 there is
        no outlier component.
        """
        parts = [(1.0 - self.epsilon, theta, self.nominal.sigma)]
        if self.epsilon > 0.0:
            out = self.outlier
            parts.append((self.epsilon, out.mean, out.sd) if out.kind == "gaussian"
                         else (self.epsilon, out.location, 0.0))
        return parts

    def sample(self, rng: np.random.Generator, theta, size):
        """Draws from h_theta of the given shape; theta may be an array of that shape.

        The composition method: every cell gets a nominal draw and a uniform
        that picks its component, and the cells whose uniform falls below
        epsilon are then overwritten, in C order, by one outlier draw of just
        that many values.  The nominal draws are theta + sigma * z for
        standard normal z, the values rng.normal(theta, sigma, size) gives
        bit for bit, but scaled and shifted in place rather than broadcast
        element by element.
        """
        values = rng.standard_normal(size)
        values *= self.nominal.sigma
        values += theta
        if self.epsilon > 0.0:
            mask = rng.random(size) < self.epsilon
            values[mask] = self.outlier.sample(rng, np.count_nonzero(mask))
        return values


def mixture_pdf(x, theta: float, model: GrossErrorModel):
    """Mixture density (1 - eps) * f_theta(x) + eps * g(x); vectorized in x.

    Point-mass outliers are rejected: the mixture has no density then.
    """
    parts = model.components(theta)
    if any(s == 0.0 for _, _, s in parts):
        raise NoDensityError("mixture with a point-mass outlier has no density")
    x = np.asarray(x, dtype=float)
    return sum(w * (np.exp(-0.5 * np.square((x - m) / s)) / (SQRT_2PI * s)) for w, m, s in parts)


@dataclass(frozen=True)
class ChangeScenario:
    """K independent streams; the first m shift to theta_post from time nu on.

    nu = math.inf means no change ever occurs (the false-alarm regime).
    Affected streams are streams 1..m; exchangeability makes the choice of
    subset immaterial for i.i.d. streams.
    """

    K: int
    m: int
    nu: float
    theta_post: float

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if not 1 <= self.m <= self.K:
            raise ConfigError(f"m must lie in [1, K], got m={self.m}, K={self.K}")
        if not (self.nu == math.inf or (float(self.nu).is_integer() and self.nu >= 1)):
            raise ConfigError(f"nu must be a positive integer or inf, got {self.nu}")
        if math.isnan(self.theta_post) or (math.isinf(self.theta_post) and self.nu != math.inf):
            raise ConfigError(f"theta_post must be a number, and finite unless nu = inf; "
                              f"got {self.theta_post} at nu = {self.nu}")

    @classmethod
    def no_change(cls, K: int) -> "ChangeScenario":
        return cls(K=K, m=1, nu=math.inf, theta_post=math.inf)

    @classmethod
    def immediate(cls, K: int, m: int, theta_post: float) -> "ChangeScenario":
        return cls(K=K, m=m, nu=1, theta_post=theta_post)

    def validate_against(self, fam: NominalFamily):
        if self.nu != math.inf and self.theta_post < fam.theta1:
            raise ConfigError(
                f"theta_post ({self.theta_post}) must be >= theta1 ({fam.theta1}) "
                "for a finite change time")


@dataclass(frozen=True)
class MixtureStreamSampler:
    """Block sampler for the engine: draws K x n observation blocks.

    Each replicate owns a private generator, so paths are identical across
    runs that differ only in thresholds (common random numbers).
    """

    model: GrossErrorModel
    scenario: ChangeScenario

    @property
    def K(self) -> int:
        return self.scenario.K

    def draw(self, rng: np.random.Generator, t0: int, n: int) -> np.ndarray:
        """Observations for time steps t0+1 .. t0+n, shape (K, n)."""
        sc, model = self.scenario, self.model
        theta = model.nominal.theta0
        if t0 + n >= sc.nu:  # the change falls at or before the block's last step
            theta = np.full((sc.K, n), theta, dtype=float)
            theta[:sc.m, max(int(sc.nu) - 1 - t0, 0):] = sc.theta_post
        return model.sample(rng, theta, (sc.K, n))


def sample_matrix(model: GrossErrorModel, scenario: ChangeScenario,
                  horizon: int, seed: int) -> np.ndarray:
    """Simulate a K x horizon observation matrix under the change scenario.

    Entry (k, t) is drawn from h_{theta0} before the change (or on unaffected
    streams) and from h_{theta_post} on affected streams from time nu on.
    Identical seeds give bit-identical matrices.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if scenario.nu != math.inf:
        scenario.validate_against(model.nominal)
    rng = np.random.default_rng(seed)
    return MixtureStreamSampler(model, scenario).draw(rng, 0, horizon)
