"""Non-iterative comparison schemes.

Both baselines treat the channel estimate as if it were exact. The
DoF-motivated one keeps the common/private power split, fills the
private budget by water-filling, and points the common column along the
estimate's dominant left singular vector; naive zero-forcing with
water-filled powers and no common symbol is its alpha = 1 case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dominant_left_singular_vector, zf_directions

__all__ = ["WaterfillResult", "water_fill", "zf_wf", "jmb_zf_svd_wf"]


@dataclass(frozen=True)
class WaterfillResult:
    """Allocation maximizing sum log2(1 + gain*power) under a budget.

    Satisfies the exact optimality conditions: active entries sit at
    1/gain + power == water_level, inactive ones have 1/gain >= level.
    """

    powers: np.ndarray
    water_level: float


def water_fill(gains, budget):
    """Exact water-filling by sorted active-set search.

    gains must be strictly positive, budget nonnegative. The active set
    is found by trying the largest candidate set first and shrinking
    until the implied level clears the worst included inverse gain, so
    the result is exact up to round-off (no bisection).
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a nonempty 1-d array")
    if np.any(gains <= 0) or not np.all(np.isfinite(gains)):
        raise ValueError("gains must be positive and finite")
    if not budget >= 0:
        raise ValueError("budget must be nonnegative")

    inv = 1.0 / gains
    order = np.argsort(inv, kind="stable")
    inv_s = inv[order]
    csum = np.cumsum(inv_s)
    k = gains.size

    powers_s = np.zeros(k)
    level = inv_s[0]
    for r in range(k, 0, -1):
        level = (budget + csum[r - 1]) / r
        if level > inv_s[r - 1] or r == 1:
            powers_s[:r] = level - inv_s[:r]
            break

    powers = np.empty(k)
    powers[order] = powers_s
    return WaterfillResult(powers=powers, water_level=float(level))


def _zf_gains(h_est, dirs):
    # per-user effective SNR gain |h_k^H d_k|^2 (unit noise) on the estimate
    proj = np.einsum("nk,nk->k", h_est.conj(), dirs)
    return proj.real**2 + proj.imag**2


def zf_wf(h_est, p_t):
    """Zero-forcing directions with water-filled powers, no common column:
    the alpha = 1 case of jmb_zf_svd_wf, whose common column then gets
    no power. The allocation optimizes the nominal interference-free
    rates on the estimate; estimation error is ignored by design.
    """
    return jmb_zf_svd_wf(h_est, p_t, 1.0)


def jmb_zf_svd_wf(h_est, p_t, alpha):
    """DoF power split with water-filling inside the private budget.

    Private budget p_t**alpha (capped at p_t) is water-filled over the
    zero-forcing gains; the remainder drives the common column along the
    dominant left singular vector of the estimate. At alpha = 1 the
    whole budget is water-filled and the common column stays zero
    (zf_wf).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not p_t > 0:
        raise ValueError("p_t must be positive")
    h_est = np.asarray(h_est)
    n_t, k = h_est.shape
    dirs = zf_directions(h_est)

    private_budget = min(p_t**alpha, p_t)
    wf = water_fill(_zf_gains(h_est, dirs), private_budget)
    pow_c = p_t - private_budget

    p = np.zeros((n_t, k + 1), dtype=complex)
    p[:, 1:] = dirs * np.sqrt(wf.powers)
    if pow_c > 0.0:
        p[:, 0] = math.sqrt(pow_c) * dominant_left_singular_vector(h_est)
    return p
