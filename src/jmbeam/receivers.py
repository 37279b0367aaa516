"""Closed-form link quality: receive powers, sum rates and sample-average
rates.

Conventions used throughout the package:

* a precoder matrix is an (n_t, k+1) complex array, column 0 the common
  (multicast) precoder, columns 1..k the private precoders;
* users are indexed 0..k-1; user ``k``'s own private column is ``k+1``;
* all logs are base 2, rates in bits per channel use.

Every quantity here descends from the receive powers at user k:

    t_p = sum_i |p_i^H h_k|^2 + 1        (private-decoding power)
    t_c = |p_c^H h_k|^2 + t_p            (common-decoding power)

with MMSEs e_c/t_c and e_p/t_p where e_c = t_p and e_p = t_p - |p_k^H h_k|^2.
The noise power is one: rates depend on the precoder and the noise only
through P/sigma_n, so the precoder carries the scale (SNR = p_t).
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
from .errors import NumericalBreakdown

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


def fresh(name, shape, dtype=float):
    """The scratch allocator of a kernel's public form: a new array."""
    return np.empty(shape, dtype)


class Arena(dict):
    """A scratch allocator that hands out the same memory on every call:
    one flat buffer per name, grown to the largest request, whose front is
    a C-contiguous array of the requested shape, valid until the name's
    next request. It holds one call's arrays at the largest shape served."""

    def __call__(self, name, shape, dtype=float):
        n, buf = math.prod(shape), self.get(name)
        if buf is None or buf.size < n:
            buf = self[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


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


def _batch_powers(sample, p, scratch=fresh):
    """Receive-power bookkeeping over a Monte-Carlo sample.

    Parameters
    ----------
    sample : MonteCarloSample, or a sequence of R of them (`_runs_of`)
    p : (n_t, k+1) complex ndarray, or (R, n_t, k+1)

    Returns
    -------
    y : (m, k, k+1) complex ndarray
        y[mi, u, i] = p_i^H h_u in realization mi, from one GEMM on the
        sample's stacked channels.
    s_c, s_p, i_p, t_p, t_c : (m, k) float ndarrays
        Common-signal power |p_c^H h_k|^2, own private-signal power,
        interference-plus-noise (sum over other private columns plus
        the unit noise, accumulated directly), t_p = i_p + s_p,
        t_c = s_c + t_p.

    With R runs every output has a leading run axis; each run's GEMM is
    its own, so its slice has the bits it has alone. All six are
    read-only, and they live in `scratch` (`Arena`).

    Raises NumericalBreakdown when some t_c is not finite, as when a
    power overflows: t_c carries every inf and NaN of y, s_c, s_p and
    i_p. The powers are formed with overflow and invalid warnings off,
    since that test decides them by value.
    """
    samples, p, one = _runs_of(sample, p)
    chans = stacked_channels(samples)
    r, m, k, n_t = chans.shape
    with np.errstate(over="ignore", invalid="ignore"):
        y = scratch("y", (r, m, k, k + 1), complex)
        np.matmul(chans.reshape(r, m * k, n_t), p.conj(), out=y.reshape(r, m * k, k + 1))
        a2 = np.square(y.real, out=scratch("a2", y.shape))
        a2 += np.square(y.imag, out=scratch("im2", y.shape))
        flat = a2.reshape(r, m, k * (k + 1))
        s_c = flat[..., :: k + 1]
        s_p = flat[..., 1 :: k + 2]  # a2[..., u, u + 1]
        i_p = np.matmul(flat, _interference_mask(k), out=scratch("i_p", (r, m, k)))
        i_p += 1.0
        t_p = np.add(i_p, s_p, out=scratch("t_p", i_p.shape))
        t_c = np.add(s_c, t_p, out=scratch("t_c", i_p.shape))
    if not np.isfinite(t_c).all():
        raise NumericalBreakdown("a receive power is not finite")
    out = (y, s_c, s_p, i_p, t_p, t_c)
    if one:
        out = tuple(a[0] for a in out)
    for a in out:
        a.flags.writeable = False
    return out


def sum_rate(h_all, p):
    """Sum rate min_k r_c[k] + sum_k r_p[k] on one channel matrix.

    With a zero common column the min term is exactly 0 and the system
    reduces to conventional per-user transmission.
    """
    sample = MonteCarloSample(realizations=np.asarray(h_all)[None])
    return average_rates(sample, p).asr


def average_rates(sample, p, scratch=fresh):
    """Sample-average rates over a Monte-Carlo sample for a fixed precoder.

    Per-user common and private rates are averaged over the realizations
    in their stored order; asr = min_k r_c[k] + sum_k r_p[k]. Takes one
    run or R runs as `_batch_powers` does; with R runs every field has a
    leading run axis and asr is an (R,) array.
    """
    return rates_of(_batch_powers(sample, p, scratch), scratch)


def rates_of(powers, scratch=fresh):
    """`average_rates` from the outputs of `_batch_powers`; both layers'
    means are one sum over an (..., m, 2k) array, in realization order."""
    _, s_c, s_p, i_p, t_p, _ = powers
    rates = scratch("rates", t_p.shape + (2,))
    np.divide(s_c, t_p, out=rates[..., 0])
    np.divide(s_p, i_p, out=rates[..., 1])
    np.divide(np.log1p(rates, out=rates), _LN2, out=rates)
    r_c_bar, r_p_bar = np.moveaxis(rates.sum(axis=-3) / t_p.shape[-2], -1, 0)
    asr = np.min(r_c_bar, axis=-1) + np.sum(r_p_bar, axis=-1)
    return AverageRates(
        r_c=r_c_bar, r_p=r_p_bar, asr=float(asr) if asr.ndim == 0 else asr
    )
