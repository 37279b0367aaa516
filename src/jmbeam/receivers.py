"""Closed-form link quality: receive powers, sum rates and sample-average
rates.

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
than by subtraction.

One kernel forms these powers: `_batch_powers` takes one GEMM over the
stacked channels a Monte-Carlo sample caches, for one run or for a
stack of runs at once. `sum_rate`, `average_rates` and
`awsmse.update_blocks` all read it; a single channel matrix is a sample
of one realization.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MonteCarloSample

_LN2 = math.log(2.0)

__all__ = [
    "AverageRates",
    "precoder_power",
    "sum_rate",
    "average_rates",
    "rates_of",
]


@dataclass(frozen=True, eq=False)
class AverageRates:
    """Per-user sample-average rates over a Monte-Carlo sample and the
    resulting average sum rate min_k r_c[k] + sum_k r_p[k]."""

    r_c: np.ndarray
    r_p: np.ndarray
    asr: float


def precoder_power(p):
    """Total transmit power ||p||_F^2."""
    return float(np.vdot(p, p).real)


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


def _stack(arrays):
    """Arrays of one shape stacked on a new leading axis: a view when
    there is one, else a copy (np.array, a few times faster than np.stack
    on small arrays)."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def stacked_channels(samples):
    """The `stacked` channels of a sequence of samples as one (R, m, k,
    n_t) array."""
    return _stack([s.stacked for s in samples])


def _runs_of(sample, p):
    """(samples, p with a leading run axis, whether one run was given).

    A MonteCarloSample with an (n_t, k+1) precoder is one run; a sequence
    of R samples of one shape with (R, n_t, k+1) precoders is R runs.
    """
    if isinstance(sample, MonteCarloSample):
        return (sample,), np.asarray(p, dtype=complex)[None], True
    return tuple(sample), np.asarray(p, dtype=complex), False


def _batch_powers(sample, p, sigma_n2, chans=None):
    """Receive-power bookkeeping over a Monte-Carlo sample.

    Parameters
    ----------
    sample : MonteCarloSample, or a sequence of R of them (`_runs_of`)
    p : (n_t, k+1) complex ndarray, or (R, n_t, k+1)
    sigma_n2 : float, or one per run
    chans : optional (R, m, k, n_t) ndarray
        `stacked_channels` of the samples, when the caller has them

    Returns
    -------
    y : (m, k, k+1) complex ndarray
        y[mi, u, i] = p_i^H h_u in realization mi, from one GEMM on the
        sample's stacked channels.
    s_c, s_p, i_p, t_p, t_c : (m, k) float ndarrays
        Common-signal power |p_c^H h_k|^2, own private-signal power,
        interference-plus-noise (sum over other private columns plus
        sigma_n2, accumulated directly), t_p = i_p + s_p, t_c = s_c + t_p.

    With R runs every output has a leading run axis; each run's GEMM is
    its own, so its slice has the bits it has alone. All six are
    read-only.
    """
    samples, p, one = _runs_of(sample, p)
    if chans is None:
        chans = stacked_channels(samples)
    r, m, k, n_t = chans.shape
    y = (chans.reshape(r, m * k, n_t) @ p.conj()).reshape(r, m, k, k + 1)
    a2 = y.real**2 + y.imag**2
    flat = a2.reshape(r, m, k * (k + 1))
    s_c = flat[..., :: k + 1]
    s_p = flat[..., 1 :: k + 2]  # a2[..., u, u + 1]
    i_p = flat @ _interference_mask(k) + np.reshape(sigma_n2, (-1, 1, 1))
    t_p = i_p + s_p
    t_c = s_c + t_p
    out = (y, s_c, s_p, i_p, t_p, t_c)
    if one:
        out = tuple(a[0] for a in out)
    for a in out:
        a.flags.writeable = False
    return out


def sum_rate(h_all, p, sigma_n2):
    """Sum rate min_k r_c[k] + sum_k r_p[k] on one channel matrix.

    With a zero common column the min term is exactly 0 and the system
    reduces to conventional per-user transmission.
    """
    sample = MonteCarloSample(realizations=np.asarray(h_all)[None])
    return average_rates(sample, p, sigma_n2).asr


def average_rates(sample, p, sigma_n2):
    """Sample-average rates over a Monte-Carlo sample for a fixed precoder.

    Per-user common and private rates are averaged over the realizations
    in their stored order; asr = min_k r_c[k] + sum_k r_p[k]. Takes one
    run or R runs as `_batch_powers` does; with R runs every field has a
    leading run axis and asr is an (R,) array.
    """
    return rates_of(_batch_powers(sample, p, sigma_n2))


def rates_of(powers):
    """`average_rates` from the outputs of `_batch_powers`."""
    _, s_c, s_p, i_p, t_p, _ = powers
    r_c = np.log1p(s_c / t_p) / _LN2  # (..., m, k)
    r_p = np.log1p(s_p / i_p) / _LN2
    r_c_bar = r_c.mean(axis=-2)
    r_p_bar = r_p.mean(axis=-2)
    asr = np.min(r_c_bar, axis=-1) + np.sum(r_p_bar, axis=-1)
    return AverageRates(
        r_c=r_c_bar, r_p=r_p_bar, asr=float(asr) if asr.ndim == 0 else asr
    )
