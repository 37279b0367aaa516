"""Closed-form link quality: per-user MSEs, MMSE equalizers, rates, and
sample-average rates.

Conventions used throughout the package:

* a precoder matrix is an (n_t, k+1) complex array, column 0 the common
  (multicast) precoder, columns 1..k the private precoders;
* users are indexed 0..k-1; user ``k``'s own private column is ``k+1``;
* all logs are base 2, rates in bits per channel use.

Every quantity here descends from the receive powers at user k:

    t_p = sum_i |p_i^H h_k|^2 + sigma_n2        (private-decoding power)
    t_c = |p_c^H h_k|^2 + t_p                   (common-decoding power)

with MMSEs e_c/t_c and e_p/t_p where e_c = t_p and e_p = t_p - |p_k^H h_k|^2.
To avoid cancellation at high SNR, the interference-plus-noise term
(t_p minus the own-signal power) is always accumulated directly rather
than by subtraction, on both paths below.

Two kernels form these powers. The single-channel path (`link_terms`,
`mmse_equalizers`, `mse`, `rates`) takes one matrix-vector product per
user. The batch path (`_batch_powers`, behind `sum_rate`,
`average_rates` and `awsmse.update_blocks`) takes one GEMM over the
stacked channels a Monte-Carlo sample caches, and memoizes the result
per precoder on the sample. The two round the products p_i^H h_k
differently, so they agree to a few ulps of the terms' magnitude, not
bit for bit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MonteCarloSample

_LN2 = math.log(2.0)

__all__ = [
    "LinkTerms",
    "UserRates",
    "AverageRates",
    "precoder_power",
    "link_terms",
    "mmse_equalizers",
    "mse",
    "rates",
    "sum_rate",
    "average_rates",
]


@dataclass(frozen=True)
class LinkTerms:
    """Receive powers for one user, linear units: t_c, t_p as above,
    e_c = t_p and e_p = t_p - |p_k^H h_k|^2 the numerators of the MMSEs."""

    t_c: float
    t_p: float
    e_c: float
    e_p: float


@dataclass(frozen=True)
class UserRates:
    """Achievable common and private rates for one user, bits/channel use."""

    r_c: float
    r_p: float


@dataclass(frozen=True, eq=False)
class AverageRates:
    """Per-user sample-average rates over a Monte-Carlo sample and the
    resulting average sum rate min_k r_c[k] + sum_k r_p[k]."""

    r_c: np.ndarray
    r_p: np.ndarray
    asr: float


def precoder_power(p):
    """Total transmit power ||p||_F^2."""
    p = np.asarray(p)
    return float(np.sum(p.real**2 + p.imag**2))


# memo entries per sample: a plain precoder update and its extrapolation
# (see ao.run_ao), the two precoders the next update_blocks may start from
_MEMO_SIZE = 2


@lru_cache
def _interference_mask(k):
    """0/1 matrix taking a row of |p_i^H h_u|^2, indexed u*(k+1) + i, to
    the k interference powers: column u picks the private columns i >= 1
    other than u + 1. Exact weights add the picked terms exactly as a
    loop would, up to their order, which at k <= 3 (two terms) is moot."""
    others = np.hstack([np.zeros((k, 1)), 1.0 - np.eye(k)])  # [u, i]
    mask = (others[:, :, None] * np.eye(k)[:, None, :]).reshape(k * (k + 1), k)
    mask.flags.writeable = False
    return mask


def _batch_powers(sample, p, sigma_n2):
    """Receive-power bookkeeping over a Monte-Carlo sample.

    Parameters
    ----------
    sample : MonteCarloSample
    p : (n_t, k+1) complex ndarray
    sigma_n2 : float

    Returns
    -------
    y : (m, k, k+1) complex ndarray
        y[mi, u, i] = p_i^H h_u in realization mi, from one GEMM on the
        sample's stacked channels.
    s_c, s_p, i_p, t_p, t_c : (m, k) float ndarrays
        Common-signal power |p_c^H h_k|^2, own private-signal power,
        interference-plus-noise (sum over other private columns plus
        sigma_n2, accumulated directly), t_p = i_p + s_p, t_c = s_c + t_p.

    All six are read-only and memoized on the sample, keyed on the bytes
    of p and on sigma_n2, so the rates of a precoder and the next block
    update at it share one evaluation.
    """
    p = np.asarray(p, dtype=complex)
    key = (p.shape, p.tobytes(), float(sigma_n2))
    memo = sample.workspace.setdefault("powers", {})
    if key in memo:
        return memo[key]
    m, k, n_t = sample.stacked.shape
    y = (sample.stacked.reshape(m * k, n_t) @ p.conj()).reshape(m, k, k + 1)
    a2 = y.real**2 + y.imag**2
    flat = a2.reshape(m, k * (k + 1))
    s_c = flat[:, :: k + 1]
    s_p = flat[:, 1 :: k + 2]  # a2[:, u, u + 1]
    i_p = flat @ _interference_mask(k) + sigma_n2
    t_p = i_p + s_p
    t_c = s_c + t_p
    out = (y, s_c, s_p, i_p, t_p, t_c)
    for a in out:
        a.flags.writeable = False
    if len(memo) == _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = out
    return out


def link_terms(h_k, p, sigma_n2, user):
    """MSE building blocks for one user on one channel vector.

    ``user`` selects which private column counts as the user's own signal.
    """
    _, _, i_p, t_p, t_c = _single_powers(h_k, p, sigma_n2, user)
    return LinkTerms(t_c=t_c, t_p=t_p, e_c=t_p, e_p=i_p)


def _single_powers(h_k, p, sigma_n2, user):
    """Same bookkeeping as _batch_powers for a single (h_k, user) pair."""
    y = p.conj().T @ np.asarray(h_k, dtype=complex)  # (k+1,)
    a2 = y.real**2 + y.imag**2
    s_c = float(a2[0])
    s_p = float(a2[user + 1])
    mask = np.ones(a2.shape[0] - 1, dtype=bool)
    mask[user] = False
    i_p = float(a2[1:][mask].sum() + sigma_n2)
    t_p = i_p + s_p
    t_c = s_c + t_p
    return s_c, s_p, i_p, t_p, t_c


def mmse_equalizers(h_k, p, sigma_n2, user):
    """MMSE receive scalars (g_c, g_p) = (p_c^H h_k / t_c, p_k^H h_k / t_p)."""
    h_k = np.asarray(h_k, dtype=complex)
    _, _, _, t_p, t_c = _single_powers(h_k, p, sigma_n2, user)
    g_c = complex(p[:, 0].conj() @ h_k) / t_c
    g_p = complex(p[:, user + 1].conj() @ h_k) / t_p
    return g_c, g_p


def mse(h_k, p, g_c, g_p, sigma_n2, user):
    """MSEs at arbitrary equalizers:
    eps = |g|^2 * t - 2 Re{g h^H p} + 1 for the common and private layers."""
    h_k = np.asarray(h_k, dtype=complex)
    _, _, _, t_p, t_c = _single_powers(h_k, p, sigma_n2, user)
    zc = complex(h_k.conj() @ p[:, 0])
    zp = complex(h_k.conj() @ p[:, user + 1])
    eps_c = abs(g_c) ** 2 * t_c - 2.0 * (g_c * zc).real + 1.0
    eps_p = abs(g_p) ** 2 * t_p - 2.0 * (g_p * zp).real + 1.0
    return eps_c, eps_p


def rates(h_k, p, sigma_n2, user):
    """Achievable rates r = log2(1 + sinr) = -log2(mmse) for one user."""
    s_c, s_p, i_p, t_p, _ = _single_powers(h_k, p, sigma_n2, user)
    r_c = math.log1p(s_c / t_p) / _LN2
    r_p = math.log1p(s_p / i_p) / _LN2
    return UserRates(r_c=r_c, r_p=r_p)


def sum_rate(h_all, p, sigma_n2):
    """Sum rate min_k r_c[k] + sum_k r_p[k] on one channel matrix.

    With a zero common column the min term is exactly 0 and the system
    reduces to conventional per-user transmission.
    """
    sample = MonteCarloSample(realizations=np.asarray(h_all)[None, :, :])
    _, s_c, s_p, i_p, t_p, _ = _batch_powers(sample, p, sigma_n2)
    r_c = np.log1p(s_c[0] / t_p[0]) / _LN2
    r_p = np.log1p(s_p[0] / i_p[0]) / _LN2
    return float(np.min(r_c) + np.sum(r_p))


def average_rates(sample, p, sigma_n2):
    """Sample-average rates over a Monte-Carlo sample for a fixed precoder.

    Per-user common and private rates are averaged over the realizations
    in their stored order; asr = min_k r_c[k] + sum_k r_p[k].
    """
    _, s_c, s_p, i_p, t_p, _ = _batch_powers(sample, p, sigma_n2)
    r_c = np.log1p(s_c / t_p) / _LN2  # (m, k)
    r_p = np.log1p(s_p / i_p) / _LN2
    r_c_bar = r_c.mean(axis=0)
    r_p_bar = r_p.mean(axis=0)
    return AverageRates(
        r_c=r_c_bar, r_p=r_p_bar, asr=float(np.min(r_c_bar) + np.sum(r_p_bar))
    )
