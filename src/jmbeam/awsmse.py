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
from functools import lru_cache

import numpy as np

from .errors import DegenerateMmse
from .channel import MonteCarloSample
from .receivers import _batch_powers, _stack, stacked_channels

# MMSE values below this are treated as a modeling error (sigma_n2 ~ 0),
# not a valid operating point.
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


def update_blocks(sample, p, sigma_n2):
    """Exact minimization over equalizers and weights at a fixed precoder.

    For every user and realization: the MMSE equalizers and the inverse
    MMSE weights, evaluated on that realization. This is the (G, U) step
    of the alternating loop. Takes one run or R runs as
    `receivers._batch_powers` does; with R runs every field has a
    leading run axis.
    """
    return equalizers_of(_batch_powers(sample, p, sigma_n2))


def equalizers_of(powers):
    """`update_blocks` from the outputs of `_batch_powers`; raises
    DegenerateMmse if the MMSE of any run underflows."""
    y, _, _, i_p, t_p, t_c = powers
    if np.any(t_p <= EPS_FLOOR * t_c) or np.any(i_p <= EPS_FLOOR * t_p):
        raise DegenerateMmse("MMSE underflow; is sigma_n2 zero?")
    *lead, m, k, _ = y.shape
    g_c = y[..., 0] / t_c
    g_p = y.reshape(*lead, m, k * (k + 1))[..., 1 :: k + 2] / t_p  # y[..., u, u + 1]
    # eps_c = t_p/t_c, eps_p = i_p/t_p; weights are the inverses
    u_c = t_c / t_p
    u_p = t_p / i_p
    return EqualizerWeightSet(g_c=g_c, g_p=g_p, u_c=u_c, u_p=u_p)


def _field_views(buf, k, n_t):
    """The component fields as views of the last axis of a real buffer.

    Complex fields are views of float pairs, so a buffer of per-realization
    rows (m, D) and one of column sums (D,) share one layout. Each view
    holds both layers on an axis of length 2, the common layer first:
    "psi" holds psi_c and psi_p, each user's Hermitian matrix packed
    (`_pack_hermitian`), "f" holds f_c and f_p, and so on.
    """
    lead = buf.shape[:-1]
    views, at = {}, 0
    for name, shape, dtype in (
        ("psi", (2, k, n_t * n_t), float),
        ("f", (2, k, n_t), complex),
        ("t", (2, k), float),
        ("u", (2, k), float),
        ("v", (2, k), float),
    ):
        width = math.prod(shape) * (2 if dtype is complex else 1)
        views[name] = buf[..., at:at + width].view(dtype).reshape(lead + shape)
        at += width
    return views


def _packed_outer(sample):
    """The sample's outer products h h^H packed (`_pack_hermitian`),
    made on first use and kept in its workspace."""
    ws = sample.workspace
    if "outer" not in ws:
        ws["outer"] = _pack_hermitian(sample.outer)
    return ws["outer"]


def _pack_hermitian(a):
    """Hermitian (..., n, n) matrices as real (..., n*n) rows: the n real
    diagonal entries, then the strict upper triangle row by row as (re, im)
    pairs. Sums of packed rows are the packed sums, with the lower
    triangle and the diagonal's zero imaginary parts left out."""
    n = a.shape[-1]
    i, j = np.triu_indices(n, 1)
    out = np.empty(a.shape[:-2] + (n * n,))
    out[..., :n] = a.diagonal(0, -2, -1).real
    out[..., n:] = np.ascontiguousarray(a[..., i, j]).view(float)
    return out


def _unpack_hermitian(x):
    """The complex (..., n, n) matrices of packed rows (..., n*n)."""
    n = math.isqrt(x.shape[-1])
    upper = x[..., n:].view(complex)
    entries = np.concatenate((x[..., :n], upper, upper.conj()), axis=-1)
    return entries[..., _hermitian_gather(n)].reshape(x.shape[:-1] + (n, n))


@lru_cache
def _hermitian_gather(n):
    """Index taking (diagonal, upper triangle, its conjugate), as
    `_unpack_hermitian` lays them out, to the n*n entries of the matrix."""
    i, j = np.triu_indices(n, 1)
    idx = np.empty((n, n), dtype=np.intp)
    idx[range(n), range(n)] = range(n)
    idx[i, j] = n + np.arange(i.size)
    idx[j, i] = n + i.size + np.arange(i.size)
    idx = idx.reshape(-1)
    idx.flags.writeable = False
    return idx


def _component_rows(sample, gw):
    """Per-realization terms of all ten fields, one real row per realization.

    Returns an (m, D) array, or (m, R*D) for R runs (a sequence of
    samples with `gw` carrying a leading run axis), run r's terms in
    columns r*D to (r+1)*D: a view of the row buffer of `_work`, which
    the next call overwrites. Outer products come first (exactly
    Hermitian), then the real scaling.
    """
    samples = (sample,) if isinstance(sample, MonteCarloSample) else tuple(sample)
    chans = stacked_channels(samples)
    r = len(samples)
    m, n_t, k = samples[0].realizations.shape
    rows = _work(m, r * (2 * k * n_t * (n_t + 2) + 6 * k))[0]
    v = _field_views(rows.reshape(m, r, -1).transpose(1, 0, 2), k, n_t)
    outer = _stack([_packed_outer(s) for s in samples])
    for i, layer in enumerate(("c", "p")):
        g, u = (np.reshape(getattr(gw, x + layer), (r, m, k)) for x in ("g_", "u_"))
        t = np.multiply(u, g.real**2 + g.imag**2, out=v["t"][..., i, :])
        np.multiply(t[..., None], outer, out=v["psi"][..., i, :, :])
        np.multiply((u * g.conj())[..., None], chans, out=v["f"][..., i, :, :])
        v["u"][..., i, :] = u
        np.log2(u, out=v["v"][..., i, :])
    return rows


# m -> flat storage for the row buffer and the `_sum_rows` scratch, grown
# to the widest rows seen; reused, since fresh arrays of this size are
# paged in anew on every call
_WORK = {}


def _work(m, d):
    """A contiguous (m, d) row buffer and `_sum_rows` scratch for it."""
    half = (m + 1) // 2
    sizes = (m * d,) + (half * d,) * 4 + (d,)
    flat = _WORK.get(m)
    if flat is None or flat[0].size < sizes[0]:
        flat = _WORK[m] = [np.empty(n) for n in sizes]
    shapes = ((m, d),) + ((half, d),) * 4 + ((d,),)
    rows, *scratch = (f[:n].reshape(shape) for f, n, shape in zip(flat, sizes, shapes))
    return rows, tuple(scratch)


def _sum_rows(rows):
    """Column sums of a real (m, D) array by an error-free pairwise cascade.

    Each level adds row pairs, t = a + b, and recovers every rounding
    error exactly by Knuth's TwoSum; the errors are summed into one vector
    that is added once at the end. An odd level pairs its last row with
    zero. This is the Sum2 scheme of Ogita, Rump and Oishi (SIAM J. Sci.
    Comput. 2005), as accurate as a sum in twice the working precision
    rounded once, in log2(m) vectorized levels: correctly rounded unless a
    column's condition number sum|x| / |sum x| nears 1/eps. TwoSum is odd
    in its arguments, so negated columns sum to negated results exactly.

    `rows` is left intact; the intermediates live in the `_work` scratch
    for its shape, which the next call overwrites.
    """
    n, d = rows.shape
    t_next, t_spare, e, y, s = _work(n, d)[1]
    err = np.zeros(d)
    x = rows
    while n > 1:
        half = (n + 1) // 2
        nb = n - half
        a, b = x[:half], x[half:n]
        t, bb, eb = t_next[:half], e[:half], y[:half]
        t_next, t_spare = t_spare, t_next
        np.add(a[:nb], b, out=t[:nb])
        np.add(a[nb:], 0.0, out=t[nb:])
        np.subtract(t, a, out=bb)
        np.subtract(b, bb[:nb], out=eb[:nb])  # b - bb
        np.subtract(0.0, bb[nb:], out=eb[nb:])
        np.subtract(t, bb, out=bb)
        np.subtract(a, bb, out=bb)  # a - (t - bb)
        np.add(bb, eb, out=bb)
        err += np.add.reduce(bb, axis=0, out=s)
        x, n = t, half
    return x[0] + err


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
    float64 view (complex addition acts on each part alone). A psi term is
    Hermitian, so only its real diagonal and strict upper triangle are
    summed. An error-free pairwise reduction (`_sum_rows`) sums the
    columns, correctly rounded in practice. The psi sums are mirrored
    into full matrices, so the psi outputs are exactly Hermitian, and
    each field is divided by m in its own dtype (a complex division
    rounds differently from two real ones).

    Nothing sample-invariant is recomputed: h h^H and h come from the
    sample's cached `outer` (packed once) and `stacked`.

    R runs (a sequence of samples of one shape, `gw` with a leading run
    axis) are summed side by side, as extra columns of one cascade, and
    every output field gets a leading run axis. The cascade acts on each
    column alone, so each run's components have the bits they have
    alone.
    """
    samples = (sample,) if isinstance(sample, MonteCarloSample) else tuple(sample)
    m, n_t, k = samples[0].realizations.shape
    if gw.g_c.shape[-2:] != (m, k):
        raise ValueError("equalizer set does not match the sample")
    rows = _component_rows(samples, gw)
    sums = _sum_rows(rows).reshape(gw.g_c.shape[:-2] + (-1,))
    v = _field_views(sums, k, n_t)
    # t, u and v end the row as one real block: one division serves them
    psi = _unpack_hermitian(v["psi"]) / m
    f = v["f"] / m
    tuv = sums[..., -6 * k:] / m
    means = {"psi_c": psi[..., 0, :, :, :], "psi_p": psi[..., 1, :, :, :],
             "f_c": f[..., 0, :, :], "f_p": f[..., 1, :, :]}
    for i, name in enumerate("tuv"):
        means[name + "_c"] = tuv[..., 2 * i * k:(2 * i + 1) * k]
        means[name + "_p"] = tuv[..., (2 * i + 1) * k:(2 * i + 2) * k]
    return AwmmseComponents(**means)


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
