"""Reference forms that the library no longer exports, kept as test oracles.

solve_lambda finds the MGF root at one alpha on its own sample, without the
tuning grid's warm start; inverse_haar_transform inverts haar_transform.
"""

import numpy as np

from lacusum import LocalParams, QuadratureConfig, lalpha_increment, solve_mgf_root
from lacusum.profiles import SQRT2, _check_dyadic
from lacusum.tuning import _support


def increment_values(model, theta, alpha, qc):
    """(Y values, weights) for the increment under h_theta, per the chosen method."""
    (x, w), = _support(model, (theta,), qc)
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
