"""Augmented weighted-MSE machinery.

The augmented weighted MSE of a layer is xi = u*eps - log2(u); minimizing
over the weight u gives u* = 1/eps_mmse and min xi = 1 - rate, which is
what ties the rate objective to an MSE objective. Averaging the
per-realization quantities over a Monte-Carlo sample yields, per user,
a small set of components (psi, t, f, u, v) that make the precoder
update a deterministic convex QCQP:

    xi_c[k](P) = p_c^H psi_c[k] p_c + sum_i p_i^H psi_c[k] p_i
                 + sigma_n2*t_c[k] - 2 Re{f_c[k]^H p_c} + u_c[k] - v_c[k]
    xi_p[k](P) = sum_i p_i^H psi_p[k] p_i
                 + sigma_n2*t_p[k] - 2 Re{f_p[k]^H p_k} + u_p[k] - v_p[k]

(i runs over private columns). Accumulation over the sample uses
compensated (Kahan) summation because the per-realization terms span a
wide dynamic range at high SNR; the terms of all realizations are formed
at once and reduced in one stacked pass, whose cost is a few ufunc calls
per realization. The v values are the running rate estimates used by the
alternating loop's stopping rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMmse
from .receivers import _batch_powers

# MMSE values below this are treated as a modeling error (sigma_n2 ~ 0),
# not a valid operating point.
EPS_FLOOR = 1e-300

_LN2 = math.log(2.0)

__all__ = [
    "EPS_FLOOR",
    "EqualizerWeightSet",
    "AwmmseComponents",
    "wmse",
    "mmse_weights",
    "update_blocks",
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


def wmse(eps, u):
    """Augmented weighted MSE u*eps - log2(u); u must be positive."""
    if u <= 0:
        raise ValueError("weight u must be positive")
    return u * eps - math.log2(u)


def mmse_weights(eps_c_mmse, eps_p_mmse):
    """Optimal weights (1/eps_c, 1/eps_p) for given MMSE values.

    Raises DegenerateMmse when an MMSE is at or below EPS_FLOOR, which
    signals sigma_n2 ~ 0 rather than a meaningful operating point.
    """
    if eps_c_mmse <= EPS_FLOOR or eps_p_mmse <= EPS_FLOOR:
        raise DegenerateMmse("MMSE underflow; is sigma_n2 zero?")
    return 1.0 / eps_c_mmse, 1.0 / eps_p_mmse


def update_blocks(sample, p, sigma_n2):
    """Exact minimization over equalizers and weights at a fixed precoder.

    For every user and realization: the MMSE equalizers and the inverse
    MMSE weights, evaluated on that realization. This is the (G, U) step
    of the alternating loop.
    """
    h = sample.realizations
    s_c, s_p, i_p, t_p, t_c = _batch_powers(h, p, sigma_n2)
    if np.any(t_p <= EPS_FLOOR * t_c) or np.any(i_p <= EPS_FLOOR * t_p):
        raise DegenerateMmse("MMSE underflow; is sigma_n2 zero?")
    y = np.einsum("ij,mjk->mik", p.conj().T, h)  # (m, k+1, k)
    k = h.shape[2]
    idx = np.arange(k)
    g_c = y[:, 0, :] / t_c
    g_p = y[:, 1:, :][:, idx, idx] / t_p
    # eps_c = t_p/t_c, eps_p = i_p/t_p; weights are the inverses
    u_c = t_c / t_p
    u_p = t_p / i_p
    return EqualizerWeightSet(g_c=g_c, g_p=g_p, u_c=u_c, u_p=u_p)


def accumulate_components(sample, gw):
    """Sample averages of the per-realization component forms.

    Per realization m and user k, with h the user's channel in that
    realization:

        t   = u * |g|^2
        psi = t * h h^H
        f   = u * conj(g) * h
        v   = log2(u)

    for both the common and private layers; each output is the arithmetic
    mean over realizations. The terms of all realizations are formed at
    once and stacked into one real (m, D) array, the complex fields as
    their float64 view; complex addition acts on each part alone, so this
    changes no bit. One compensated pass reduces the rows in index order,
    and each field is divided by m in its own dtype (a complex division
    rounds differently from two real ones). The psi outputs are exactly
    Hermitian by construction.
    """
    h = sample.realizations
    m, n_t, k = h.shape
    if gw.g_c.shape != (m, k):
        raise ValueError("equalizer set does not match the sample")

    t_c = gw.u_c * (gw.g_c.real**2 + gw.g_c.imag**2)  # (m, k)
    t_p = gw.u_p * (gw.g_p.real**2 + gw.g_p.imag**2)
    # outer products first (exactly Hermitian), then real scaling
    outer = np.einsum("mik,mjk->mkij", h, h.conj())
    terms = {
        "psi_c": t_c[:, :, None, None] * outer,
        "psi_p": t_p[:, :, None, None] * outer,
        "f_c": (gw.u_c * gw.g_c.conj())[:, :, None] * h.transpose(0, 2, 1),
        "f_p": (gw.u_p * gw.g_p.conj())[:, :, None] * h.transpose(0, 2, 1),
        "t_c": t_c,
        "t_p": t_p,
        "u_c": gw.u_c,
        "u_p": gw.u_p,
        "v_c": np.log2(gw.u_c),
        "v_p": np.log2(gw.u_p),
    }
    rows = np.concatenate(
        [x.reshape(m, -1).view(float) for x in terms.values()], axis=1
    )

    # four ufunc calls per row into preallocated buffers (third argument)
    s, s_new, c, y = np.zeros((4, rows.shape[1]))
    sub, add = np.subtract, np.add
    for x in rows:
        sub(x, c, y)
        add(s, y, s_new)
        sub(s_new, s, c)
        sub(c, y, c)
        s, s_new = s_new, s

    out = {}
    at = 0
    for name, x in terms.items():
        width = x[0].nbytes // rows.itemsize
        out[name] = s[at:at + width].view(x.dtype).reshape(x.shape[1:]) / m
        at += width
    return AwmmseComponents(**out)


def awmse_values(c, p, sigma_n2):
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
    xi_c = quad_c_common + quad_c_priv + sigma_n2 * c.t_c - lin_c + c.u_c - c.v_c
    xi_p = quad_p_priv + sigma_n2 * c.t_p - lin_p + c.u_p - c.v_p
    return xi_c, xi_p


def awsmse_objective(xi_c, xi_p):
    """Average weighted sum-MSE objective max_k xi_c[k] + sum_k xi_p[k]."""
    return float(np.max(xi_c) + np.sum(xi_p))
