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

(i runs over private columns). The per-realization terms span a wide
dynamic range at high SNR, so the sample sums use a pairwise error-free
reduction: the terms of all realizations are formed at once and summed
in log2(m) vectorized TwoSum levels, correctly rounded in practice. The
v values are the running rate estimates used by the alternating loop's
stopping rule.
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


def _field_views(buf, k, n_t):
    """The ten component fields as views of the last axis of a real buffer.

    Complex fields are views of float pairs, so a buffer of per-realization
    rows (m, D) and one of column sums (D,) share one layout.
    """
    lead = buf.shape[:-1]
    views, at = {}, 0
    for name, shape, dtype in (
        ("psi_c", (k, n_t, n_t), complex), ("psi_p", (k, n_t, n_t), complex),
        ("f_c", (k, n_t), complex), ("f_p", (k, n_t), complex),
        ("t_c", (k,), float), ("t_p", (k,), float),
        ("u_c", (k,), float), ("u_p", (k,), float),
        ("v_c", (k,), float), ("v_p", (k,), float),
    ):
        width = math.prod(shape) * (2 if dtype is complex else 1)
        views[name] = buf[..., at:at + width].view(dtype).reshape(lead + shape)
        at += width
    return views


def _component_rows(sample, gw):
    """Per-realization terms of all ten fields, one real row per realization.

    Each term is written straight into its field's view of the (m, D)
    buffer. Outer products come first (exactly Hermitian), then the real
    scaling.
    """
    h = sample.realizations
    m, n_t, k = h.shape
    rows = np.empty((m, 4 * k * n_t * (n_t + 1) + 6 * k))
    v = _field_views(rows, k, n_t)
    outer = np.einsum("mik,mjk->mkij", h, h.conj())
    h_t = h.transpose(0, 2, 1)
    for layer, g, u in (("c", gw.g_c, gw.u_c), ("p", gw.g_p, gw.u_p)):
        t = np.multiply(u, g.real**2 + g.imag**2, out=v["t_" + layer])
        np.multiply(t[:, :, None, None], outer, out=v["psi_" + layer])
        np.multiply((u * g.conj())[:, :, None], h_t, out=v["f_" + layer])
        v["u_" + layer][...] = u
        np.log2(u, out=v["v_" + layer])
    return rows


def _sum_rows(rows):
    """Column sums of a real (m, D) array by an error-free pairwise cascade.

    Each level adds row pairs, t = a + b, and recovers every rounding
    error exactly by Knuth's TwoSum; the errors are summed into one vector
    that is added once at the end. An odd level gets a zero row. This is
    the Sum2 scheme of Ogita, Rump and Oishi (SIAM J. Sci. Comput. 2005),
    as accurate as a sum in twice the working precision rounded once, in
    log2(m) vectorized levels: correctly rounded unless a column's
    condition number sum|x| / |sum x| nears 1/eps. TwoSum is odd in its
    arguments, so negated columns sum to negated results exactly.
    """
    err = np.zeros(rows.shape[1])
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            rows = np.concatenate([rows, np.zeros((1, rows.shape[1]))])
        half = rows.shape[0] // 2
        a, b = rows[:half], rows[half:]
        t = a + b
        bb = t - a
        err += ((a - (t - bb)) + (b - bb)).sum(axis=0)
        rows = t
    return rows[0] + err


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
    once as the rows of one real (m, D) array, the complex fields as their
    float64 view (complex addition acts on each part alone). An error-free
    pairwise reduction (`_sum_rows`) sums its columns, correctly rounded
    in practice, and each field is divided by m in its own dtype (a
    complex division rounds differently from two real ones). The psi
    outputs are exactly Hermitian.
    """
    h = sample.realizations
    m, n_t, k = h.shape
    if gw.g_c.shape != (m, k):
        raise ValueError("equalizer set does not match the sample")
    sums = _field_views(_sum_rows(_component_rows(sample, gw)), k, n_t)
    return AwmmseComponents(**{name: x / m for name, x in sums.items()})


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
