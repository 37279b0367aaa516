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
stacked channels a Monte-Carlo sample holds, for one run or for a stack
of runs at once. `sum_rate`, `average_rates` and `update_blocks` all
read it; a single channel matrix is a sample of one realization.

The augmented weighted MSE of a layer is xi = u*eps - log2(u); minimizing
over the weight u gives u* = 1/eps_mmse and min xi = 1 - rate, which is
what ties the rate objective to an MSE objective. `update_blocks` forms
the MMSE equalizers and weights per realization; `accumulate_components`
averages the per-realization quantities over the sample into, per user,
a small set of components (psi, t, f, u, v) that make the precoder
update a deterministic convex QCQP:

    xi_c[k](P) = p_c^H psi_c[k] p_c + sum_i p_i^H psi_c[k] p_i
                 + t_c[k] - 2 Re{f_c[k]^H p_c} + u_c[k] - v_c[k]
    xi_p[k](P) = sum_i p_i^H psi_p[k] p_i
                 + t_p[k] - 2 Re{f_p[k]^H p_k} + u_p[k] - v_p[k]

(i runs over private columns; the noise power is one, so t enters
alone). Every sample average is a matrix product over the realization
axis (psi, f) or a sum along it (t, u, v), one numpy call for all runs,
layers and users. The v values are the running rate estimates used by
the alternating loop's stopping rule.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import MonteCarloSample
from .errors import DegenerateMmse, NumericalBreakdown

_LN2 = math.log(2.0)

# MMSE values below this are treated as a modeling error (a noise power
# negligible against the receive power), not a valid operating point.
EPS_FLOOR = 1e-300

__all__ = [
    "EPS_FLOOR",
    "AverageRates",
    "EqualizerWeightSet",
    "AwmmseComponents",
    "precoder_power",
    "sum_rate",
    "average_rates",
    "update_blocks",
    "accumulate_components",
    "awmse_values",
    "awsmse_objective",
]


@dataclass(frozen=True, eq=False)
class AverageRates:
    """Per-user sample-average rates over a Monte-Carlo sample and the
    resulting average sum rate min_k r_c[k] + sum_k r_p[k]."""

    r_c: np.ndarray
    r_p: np.ndarray
    asr: float


@dataclass(frozen=True, eq=False)
class EqualizerWeightSet:
    """Per-(realization, user) MMSE equalizers and weights; arrays of
    shape (m, k). Weights are strictly positive."""

    g_c: np.ndarray
    g_p: np.ndarray
    u_c: np.ndarray
    u_p: np.ndarray


@dataclass(frozen=True, eq=False)
class AwmmseComponents:
    """Per-user sample averages parameterizing the precoder update.

    psi_c, psi_p: (k, n_t, n_t) Hermitian PSD; t_c, t_p, u_c, u_p, v_c,
    v_p: (k,); f_c, f_p: (k, n_t). Memory is O(k n_t^2) regardless of the
    sample size.
    """

    psi_c: np.ndarray = field(repr=False)
    psi_p: np.ndarray = field(repr=False)
    t_c: np.ndarray
    t_p: np.ndarray
    f_c: np.ndarray = field(repr=False)
    f_p: np.ndarray = field(repr=False)
    u_c: np.ndarray
    u_p: np.ndarray
    v_c: np.ndarray
    v_p: np.ndarray


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


def _runs_of(sample):
    """(the stacked channels of the runs, (R, m, k, n_t), whether one run
    was given): a MonteCarloSample is one run, a sequence of R samples of
    one shape is R runs."""
    one = isinstance(sample, MonteCarloSample)
    return _stack([s.stacked for s in ((sample,) if one else sample)]), one


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
    chans, one = _runs_of(sample)
    p = np.asarray(p, dtype=complex)
    if one:
        p = p[None]
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
    in their stored order, both layers' means in one sum over an
    (..., m, 2k) array; asr = min_k r_c[k] + sum_k r_p[k]. Takes one run
    or R runs as `_batch_powers` does; with R runs every field has a
    leading run axis and asr is an (R,) array.
    """
    _, s_c, s_p, i_p, t_p, _ = _batch_powers(sample, p, scratch)
    rates = scratch("rates", t_p.shape + (2,))
    np.divide(s_c, t_p, out=rates[..., 0])
    np.divide(s_p, i_p, out=rates[..., 1])
    np.divide(np.log1p(rates, out=rates), _LN2, out=rates)
    means = rates.sum(axis=-3) / t_p.shape[-2]
    r_c_bar, r_p_bar = means[..., 0], means[..., 1]
    asr = np.min(r_c_bar, axis=-1) + np.sum(r_p_bar, axis=-1)
    return AverageRates(
        r_c=r_c_bar, r_p=r_p_bar, asr=float(asr) if asr.ndim == 0 else asr
    )


def update_blocks(sample, p, scratch=fresh):
    """Exact minimization over equalizers and weights at a fixed precoder.

    For every user and realization: the MMSE equalizers and the inverse
    MMSE weights, evaluated on that realization. This is the (G, U) step
    of the alternating loop, formed in `scratch`. Takes one run or R runs
    as `_batch_powers` does; with R runs every field has a leading run
    axis. Raises DegenerateMmse if the MMSE of any run underflows.
    """
    y, _, _, i_p, t_p, t_c = _batch_powers(sample, p, scratch)
    if np.any(t_p <= EPS_FLOOR * t_c) or np.any(i_p <= EPS_FLOOR * t_p):
        raise DegenerateMmse("MMSE underflow; a signal power is 1e300 times the noise")
    *lead, m, k, _ = y.shape
    g_p = y.reshape(*lead, m, k * (k + 1))[..., 1 :: k + 2]  # y[..., u, u + 1]
    # eps_c = t_p/t_c, eps_p = i_p/t_p; weights are the inverses
    return EqualizerWeightSet(**{
        name: np.divide(a, b, out=scratch(name, t_c.shape, a.dtype))
        for name, a, b in (("g_c", y[..., 0], t_c), ("g_p", g_p, t_p),
                           ("u_c", t_c, t_p), ("u_p", t_p, i_p))
    })


def accumulate_components(sample, gw, scratch=fresh):
    """Sample averages of the per-realization component forms.

    Per realization m and user k, with h the user's channel in that
    realization:

        t   = u * |g|^2
        psi = t * h h^H
        f   = u * conj(g) * h
        v   = log2(u)

    for both the common and private layers; each output is the arithmetic
    mean over realizations. With H_k the user's (m, n_t) channels, each
    psi average is one matrix product (H_k^T diag t) conj(H_k) and each
    f average one product (u conj g)^T H_k, both read from the sample's
    `stacked` channels and stacked over layers and users in one matmul
    each. The sum psi + psi^H halved makes psi exactly Hermitian, with a
    real diagonal, as the convexity guard needs. The t, u and v means are
    one sum over an (r, m, 6k) array, in realization order. The
    per-realization arrays live in `scratch`; the means do not.

    Takes one run or R runs as `_batch_powers` does, `gw` with a leading
    run axis for R runs; every output field then gets a leading run axis
    too. Each item of a stacked product or sum has the layout it has
    alone, so each run's components have the bits they have alone.
    """
    h, one = _runs_of(sample)
    r, m, k, n_t = h.shape
    if gw.g_c.shape[-2:] != (m, k):
        raise ValueError("equalizer set does not match the sample")
    h_conj = np.conjugate(h, out=scratch("h_conj", h.shape, complex))
    ug = scratch("ug", (r, m, k, 2), complex)  # conj(g), then u conj(g)
    tuv = scratch("tuv", (r, m, k, 2, 3))
    t, u, v = tuv.transpose(4, 0, 1, 2, 3)  # (r, m, k, 2): the common layer first
    for i, layer in enumerate("cp"):
        np.conjugate(np.reshape(getattr(gw, "g_" + layer), (r, m, k)), out=ug[..., i])
        u[..., i] = u_layer = np.reshape(getattr(gw, "u_" + layer), (r, m, k))
        # log2 reads gw, not u: on overlapping memory numpy drops its SIMD bits
        np.log2(u_layer, out=v[..., i])
    np.square(ug.real, out=t)
    t += np.square(ug.imag, out=scratch("im2", t.shape))
    t *= u
    np.multiply(u, ug, out=ug)
    by_user = h.transpose(0, 2, 3, 1)[:, None]  # (r, 1, k, n_t, m)
    ht = np.multiply(by_user, t.transpose(0, 3, 2, 1)[..., None, :],
                     out=scratch("ht", (r, 2, k, n_t, m), complex))
    h, h_conj = (x.transpose(0, 2, 1, 3)[:, None] for x in (h, h_conj))  # (r, 1, k, m, n_t)
    psi = ht @ h_conj
    psi = (psi + psi.conj().swapaxes(-1, -2)) / (2 * m)
    f = (ug.transpose(0, 3, 2, 1)[..., None, :] @ h)[..., 0, :] / m
    t, u, v = (tuv.sum(axis=1) / m).transpose(3, 0, 2, 1)  # each (r, 2, k)
    return AwmmseComponents(**{
        name + "_" + layer: x[0, i] if one else x[:, i]
        for name, x in (("psi", psi), ("f", f), ("t", t), ("u", u), ("v", v))
        for i, layer in enumerate("cp")
    })


def awmse_values(c, p):
    """Average augmented WMSEs at a precoder, from the components.

    Returns (xi_c, xi_p), each shape (k,). Equals the mean over the
    sample of the per-realization augmented WMSEs (to round-off), which
    is the defining identity of the components.
    """
    p = np.asarray(p, dtype=complex)
    p_c = p[:, 0]
    priv = p[:, 1:]
    # sum over private columns of p_i^H psi[u] p_i, for each user u
    quad_c_priv = np.einsum("ni,unm,mi->u", priv.conj(), c.psi_c, priv).real
    quad_p_priv = np.einsum("ni,unm,mi->u", priv.conj(), c.psi_p, priv).real
    quad_c_common = np.einsum("n,unm,m->u", p_c.conj(), c.psi_c, p_c).real
    lin_c = 2.0 * np.einsum("un,n->u", c.f_c.conj(), p_c).real
    lin_p = 2.0 * np.einsum("un,nu->u", c.f_p.conj(), priv).real
    xi_c = quad_c_common + quad_c_priv + c.t_c - lin_c + c.u_c - c.v_c
    xi_p = quad_p_priv + c.t_p - lin_p + c.u_p - c.v_p
    return xi_c, xi_p


def awsmse_objective(xi_c, xi_p):
    """Average weighted sum-MSE objective max_k xi_c[k] + sum_k xi_p[k]."""
    return float(np.max(xi_c) + np.sum(xi_p))
