"""Augmented weighted-MSE machinery.

The augmented weighted MSE of a layer is xi = u*eps - log2(u); minimizing
over the weight u gives u* = 1/eps_mmse and min xi = 1 - rate, which is
what ties the rate objective to an MSE objective. Averaging the
per-realization quantities over a Monte-Carlo sample yields, per user,
a small set of components (psi, t, f, u, v) that make the precoder
update a deterministic convex QCQP:

    xi_c[k](P) = p_c^H psi_c[k] p_c + sum_i p_i^H psi_c[k] p_i
                 + t_c[k] - 2 Re{f_c[k]^H p_c} + u_c[k] - v_c[k]
    xi_p[k](P) = sum_i p_i^H psi_p[k] p_i
                 + t_p[k] - 2 Re{f_p[k]^H p_k} + u_p[k] - v_p[k]

(i runs over private columns; the noise power is one, so t enters
alone). Every sample average is a matrix product over the realization
axis (psi, f) or a sum along it (t, u, v), one numpy call for all runs,
layers and users. The v values are the
running rate estimates used by the alternating loop's stopping rule.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMmse
from .channel import MonteCarloSample
from .receivers import _batch_powers, _stack, fresh, stacked_channels

# MMSE values below this are treated as a modeling error (a noise power
# negligible against the receive power), not a valid operating point.
EPS_FLOOR = 1e-300

__all__ = [
    "EPS_FLOOR",
    "EqualizerWeightSet",
    "AwmmseComponents",
    "update_blocks",
    "equalizers_of",
    "accumulate_components",
    "awmse_values",
    "awsmse_objective",
]


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


def update_blocks(sample, p):
    """Exact minimization over equalizers and weights at a fixed precoder.

    For every user and realization: the MMSE equalizers and the inverse
    MMSE weights, evaluated on that realization. This is the (G, U) step
    of the alternating loop. Takes one run or R runs as
    `receivers._batch_powers` does; with R runs every field has a
    leading run axis.
    """
    return equalizers_of(_batch_powers(sample, p))


def equalizers_of(powers, scratch=fresh):
    """`update_blocks` from the outputs of `_batch_powers`, in `scratch`;
    raises DegenerateMmse if the MMSE of any run underflows."""
    y, _, _, i_p, t_p, t_c = powers
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
    psi average is one matrix product (H_k^T diag t) conj(H_k), its left
    factor formed from `sample.by_user`, and each f average one product
    (u conj g)^T H_k, stacked over layers and users in one matmul each.
    The sum psi + psi^H halved makes psi exactly Hermitian, with a real
    diagonal, as the convexity guard needs. The t, u and v means are one
    sum over an (r, m, 6k) array, in realization order. The
    per-realization arrays live in `scratch`; the means do not.

    R runs (a sequence of samples of one shape, `gw` with a leading run
    axis) are stacked too, and every output field gets a leading run
    axis. Each item of a stacked product or sum has the layout it has
    alone, so each run's components have the bits they have alone.
    """
    samples = (sample,) if isinstance(sample, MonteCarloSample) else tuple(sample)
    m, n_t, k = samples[0].realizations.shape
    if gw.g_c.shape[-2:] != (m, k):
        raise ValueError("equalizer set does not match the sample")
    lead, r = gw.g_c.shape[:-2], len(samples)
    h = stacked_channels(samples)
    h_conj = np.conjugate(h, out=scratch("h_conj", h.shape, complex))
    h, h_conj = (x.transpose(0, 2, 1, 3)[:, None] for x in (h, h_conj))  # (r, 1, k, m, n_t)
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
    by_user = _stack([s.by_user for s in samples])[:, None]  # (r, 1, k, n_t, m)
    ht = np.multiply(by_user, t.transpose(0, 3, 2, 1)[..., None, :],
                     out=scratch("ht", (r, 2, k, n_t, m), complex))
    psi = ht @ h_conj
    psi = (psi + psi.conj().swapaxes(-1, -2)) / (2 * m)
    f = (ug.transpose(0, 3, 2, 1)[..., None, :] @ h)[..., 0, :] / m
    t, u, v = (tuv.sum(axis=1) / m).transpose(3, 0, 2, 1)  # each (r, 2, k)
    return AwmmseComponents(**{
        name + "_" + layer: x[:, i].reshape(lead + x.shape[2:])
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
