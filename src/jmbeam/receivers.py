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
user-major channels a Monte-Carlo sample holds (`user_channels`), for
one run or for a stack of runs at once. `sum_rate`, `average_rates` and
`update_blocks` all read it; a single channel matrix is a sample of one
realization.

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
alone). From the GEMM on every per-realization array is user major,
(run, user, ..., realization[, column]), so the rows `update_blocks`
writes are those `accumulate_components` multiplies, with no copy, and
every sample average is one numpy call for all runs, layers and users:
a product over the realization axis with the sample's per-user layouts
(psi and t, f) or a contiguous sum along it (u, v). The v values are the
running rate estimates of the loop's stop rule.
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
    """MMSE equalizers g and positive weights u, user major: (k, 2, m), or
    (R, k, 2, m) for R runs, row [user, layer] over the realizations, common
    layer first, as `update_blocks` writes and `accumulate_components` reads
    them; g_c, g_p, u_c and u_p are one layer's (..., k, m) views."""

    g: np.ndarray
    u: np.ndarray

    g_c = property(lambda self: self.g[..., 0, :])
    g_p = property(lambda self: self.g[..., 1, :])
    u_c = property(lambda self: self.u[..., 0, :])
    u_p = property(lambda self: self.u[..., 1, :])


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
    """(k, k+1, 1) 0/1 columns summing user u's private columns i >= 1 but
    u + 1 of |p_i^H h_u|^2: exact weights add the picked terms as a loop
    would, up to their order, which at k <= 3 (two terms) is moot."""
    mask = np.hstack([np.zeros((k, 1)), 1.0 - np.eye(k)])[:, :, None]
    mask.flags.writeable = False
    return mask


@lru_cache
def _hermitian(n_t):
    """Exact 0/1/-1 weights taking a row of `MonteCarloSample.user_outer`
    column sums, less the ones, to the n_t x n_t Hermitian matrix they
    hold, as interleaved real and imaginary parts."""
    a, b = np.triu_indices(n_t)
    i, j, up = np.arange(a.size), np.arange(a.size, n_t * n_t), a < b
    c = np.zeros((n_t * n_t, n_t, n_t, 2))
    c[i, a, b, 0] = c[i, b, a, 0] = 1.0
    c[j, a[up], b[up], 1], c[j, b[up], a[up], 1] = 1.0, -1.0
    c.flags.writeable = False
    return c.reshape(n_t * n_t, -1)


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


def _runs_of(sample, layout="user_channels"):
    """(the runs' `layout` arrays, such as their (k, m, n_t) channels, on
    a run axis, whether one run was given): a MonteCarloSample is one
    run, a sequence of R samples of one shape is R runs."""
    one = isinstance(sample, MonteCarloSample)
    return _stack([getattr(s, layout) for s in ((sample,) if one else sample)]), one


def _batch_powers(sample, p, scratch=fresh, mmse=False):
    """Receive-power bookkeeping over a Monte-Carlo sample.

    Parameters
    ----------
    sample : MonteCarloSample, or a sequence of R of them (`_runs_of`)
    p : (n_t, k+1) complex ndarray, or (R, n_t, k+1)
    mmse : also raise DegenerateMmse if an MMSE underflows (`update_blocks`)

    Returns
    -------
    y : (k, m, k+1) complex ndarray
        y[u, mi, i] = p_i^H h_u in realization mi, from one GEMM on the
        sample's (k*m, n_t) `user_channels`.
    s_c, s_p, i_p, t_p, t_c : (k, m) float ndarrays
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
    since that test decides them by value. As t_c >= t_p >= i_p >= 1, no
    MMSE underflows while t_c < 0.1 / EPS_FLOOR: one max of t_c clears
    both tests, and the exact ones run only when it does not.
    """
    h, one = _runs_of(sample)
    p = np.asarray(p, dtype=complex)
    if one:
        p = p[None]
    r, k, m, n_t = h.shape
    with np.errstate(over="ignore", invalid="ignore"):
        y = scratch("y", (r, k, m, k + 1), complex)
        np.matmul(h.reshape(r, k * m, n_t), p.conj(), out=y.reshape(r, k * m, k + 1))
        a2 = np.square(y.real, out=scratch("a2", y.shape))
        a2 += np.square(y.imag, out=scratch("im2", y.shape))
        s_c, s_p = a2[..., 0], a2.diagonal(1, -3, -1).swapaxes(-1, -2)  # a2[.., u, :, u + 1]
        i_p = np.matmul(a2, _interference_mask(k), out=scratch("i_p", (r, k, m, 1)))[..., 0]
        i_p += 1.0
        t_p = np.add(i_p, s_p, out=scratch("t_p", i_p.shape))
        t_c = np.add(s_c, t_p, out=scratch("t_c", i_p.shape))
        if not t_c.max() < 0.1 / EPS_FLOOR:
            if not np.isfinite(t_c).all():
                raise NumericalBreakdown("a receive power is not finite")
            if mmse and (np.any(t_p <= EPS_FLOOR * t_c) or np.any(i_p <= EPS_FLOOR * t_p)):
                raise DegenerateMmse("MMSE underflow; a signal power is 1e300 times the noise")
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
    in their stored order, both layers' means in one sum over the m axis
    of a user-major (..., k, m, 2) array; asr = min_k r_c[k] + sum_k r_p[k]. Takes one run
    or R runs as `_batch_powers` does; with R runs every field has a
    leading run axis and asr is an (R,) array.
    """
    _, s_c, s_p, i_p, t_p, _ = _batch_powers(sample, p, scratch)
    rates = scratch("rates", t_p.shape + (2,))
    np.divide(s_c, t_p, out=rates[..., 0])
    np.divide(s_p, i_p, out=rates[..., 1])
    np.divide(np.log1p(rates, out=rates), _LN2, out=rates)
    means = rates.sum(axis=-2) / t_p.shape[-1]
    r_c, r_p = means[..., 0], means[..., 1]
    asr = np.min(r_c, axis=-1) + np.sum(r_p, axis=-1)
    return AverageRates(r_c=r_c, r_p=r_p, asr=float(asr) if asr.ndim == 0 else asr)


def update_blocks(sample, p, scratch=fresh):
    """Exact minimization over equalizers and weights at a fixed precoder.

    For every user and realization: the MMSE equalizers and the inverse
    MMSE weights, evaluated on that realization. This is the (G, U) step
    of the alternating loop, divided from the user-major powers straight
    into the (k, 2, m) rows `accumulate_components` reads, in `scratch`.
    Takes one run or R runs as `_batch_powers` does; with R runs the rows
    have a leading run axis. Raises DegenerateMmse if the MMSE of any run
    underflows.
    """
    y, _, _, i_p, t_p, t_c = _batch_powers(sample, p, scratch, mmse=True)
    rows = t_c.shape[:-1] + (2, t_c.shape[-1])
    g, u = scratch("g", rows, complex), scratch("u", rows)
    # eps_c = t_p/t_c, eps_p = i_p/t_p; weights are the inverses
    np.divide(y[..., 0], t_c, out=g[..., 0, :])
    np.divide(y.diagonal(1, -3, -1).swapaxes(-1, -2), t_p, out=g[..., 1, :])
    np.divide(t_c, t_p, out=u[..., 0, :])
    np.divide(t_p, i_p, out=u[..., 1, :])
    return EqualizerWeightSet(g=g, u=u)


def accumulate_components(sample, gw, scratch=fresh):
    """Sample averages of the per-realization component forms.

    Per realization m and user k, with h the user's channel in that
    realization:

        t   = u * |g|^2
        psi = t * h h^H
        f   = u * conj(g) * h
        v   = log2(u)

    for both the common and private layers; each output is the arithmetic
    mean over realizations. It reads the (run, user, layer, realization)
    rows of g and u that `update_blocks` wrote, in place, and forms the
    rows of t (then v) and u conj(g) in `scratch`. A real product of the
    t rows with the sample's `user_outer` columns gives the t sum and
    psi's upper triangle, which exact weights make an exactly Hermitian
    psi with a real diagonal, as the convexity guard needs. A complex
    product with `user_channels` gives f; contiguous sums give u and v.

    Takes one run or R runs as `_batch_powers` does, `gw` with a leading
    run axis for R runs; every output field then gets a leading run axis
    too. Each item of a stacked product or sum has the layout it has
    alone, so each run's components have the bits they have alone.
    """
    (x, one), (h, _) = (_runs_of(sample, name) for name in ("user_outer", "user_channels"))
    r, k, m, n_t = h.shape
    if gw.g.shape[-3:] != (k, 2, m):
        raise ValueError("equalizer set does not match the sample")
    g, u = (np.reshape(a, (r, k, 2, m)) for a in (gw.g, gw.u))
    ug = np.conjugate(g, out=scratch("ug", g.shape, complex))  # then u conj(g)
    t = np.square(g.real, out=scratch("t", u.shape))
    t += np.square(g.imag, out=scratch("im2", t.shape))
    t *= u
    np.multiply(u, ug, out=ug)
    wt = (t @ x) / m  # (r, k, 2, n_t**2 + 1)
    psi = (wt[..., :-1] @ _hermitian(n_t)).view(complex).reshape(r, k, 2, n_t, n_t)
    fields = {"psi": psi, "f": (ug @ h) / m, "t": wt[..., -1], "u": u.sum(axis=-1) / m,
              "v": np.log2(u, out=t).sum(axis=-1) / m}  # the t rows are spent
    return AwmmseComponents(**{name + "_" + layer: x[0, :, i] if one else x[:, :, i]
                               for name, x in fields.items() for i, layer in enumerate("cp")})


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
