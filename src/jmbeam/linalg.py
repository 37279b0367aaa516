"""Dense complex linear-algebra kernel for small beamforming problems.

Everything operates on plain numpy arrays. A channel matrix is an
``(n_t, k)`` complex array whose columns are per-user channel vectors.
Direction outputs follow a deterministic phase convention (first nonzero
entry real and nonnegative) so that fixtures are reproducible.
"""

import cmath
import math

import numpy as np

from .errors import NotPsd, RankDeficient, ZeroChannel

# Pivot tolerance for PSD factorization, relative to the largest diagonal
# entry: component matrices are PSD-by-construction sums, so violations
# beyond this only reflect round-off.
EPS_PSD = 1e-10

# Rank tolerance relative to the largest singular value.
EPS_RANK = 1e-9

__all__ = [
    "EPS_PSD",
    "EPS_RANK",
    "phase_normalize",
    "cholesky_psd",
    "dominant_left_singular_vector",
    "zf_directions",
    "mf_directions",
]


def phase_normalize(v):
    """Rotate a complex vector so its first nonzero entry is real >= 0.

    Returns a new array; the input is not modified. The zero vector is
    returned unchanged.
    """
    v = np.asarray(v, dtype=complex)
    idx = np.flatnonzero(np.abs(v) > 0)
    if idx.size == 0:
        return v.copy()
    pivot = v[idx[0]]
    # unit factor via atan2: pivot.conj()/abs(pivot) overflows for
    # subnormal or near-inf pivots
    return v * cmath.exp(-1j * math.atan2(pivot.imag, pivot.real))


def cholesky_psd(a):
    """Lower-triangular Cholesky factors of Hermitian PSD matrices.

    Parameters
    ----------
    a : (..., n, n) complex ndarray
        Hermitian positive-semidefinite matrix, or a stack of them.

    Returns
    -------
    L : (..., n, n) complex ndarray
        Lower triangular. Exactly singular directions give zero columns.

    Raises
    ------
    NotPsd
        If a matrix has a non-finite entry, a pivot falls below
        ``-EPS_PSD`` (relative to the largest diagonal entry of its
        matrix), or a pivot within it has an entry c below it with
        |c|^2 > (pivot + tol)(a_ii + tol), which |a_ij|^2 <= a_ii a_jj bars.

    One pivot loop over the n columns factors every matrix of the stack
    at once; a pivot within ``EPS_PSD`` leaves its column zero.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    s = a.reshape(math.prod(a.shape[:-2]), n, n)
    if not np.isfinite(s).all():
        raise NotPsd("a matrix has a non-finite entry")
    diag = s.diagonal(0, 1, 2).real
    tol = EPS_PSD * np.abs(diag).max(axis=-1, initial=0.0)
    L = np.zeros_like(s)
    for j in range(n):
        row = L[:, j, :j]
        d = s[:, j, j].real - (row.real**2 + row.imag**2).sum(axis=-1)
        if (d < -tol).any():
            i = np.argmax(d < -tol)
            raise NotPsd(f"matrix {i}: pivot {d[i]:.3e} at {j} below -{tol[i]:.3e}")
        # the outs are views of L: a pivot within the tolerance leaves a zero column
        piv = d > tol
        root = np.sqrt(d, out=L[:, j, j].real, where=piv)
        col = s[:, j + 1 :, j] - (L[:, j + 1 :, :j] * row[:, None].conj()).sum(axis=-1)
        if not piv.all():
            bound = (d + tol)[:, None] * (diag[:, j + 1 :] + tol[:, None])
            if (off := (np.abs(col) ** 2 > bound).any(axis=-1) & ~piv).any():
                raise NotPsd(f"matrix {np.argmax(off)}: an entry below the zero pivot at {j}")
        np.divide(col, root[:, None], out=L[:, j + 1 :, j], where=piv[:, None])
    return L.reshape(a.shape)


def dominant_left_singular_vector(a):
    """Unit vector v maximizing ||a^H v||: the eigenvector of a a^H for
    its largest eigenvalue, phase-normalized so repeated calls agree
    bit-for-bit.

    Raises
    ------
    ValueError
        If ``a`` is zero.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.any(np.abs(a) > 0):
        raise ValueError("matrix is zero; dominant direction undefined")
    # eigh sorts the eigenvalues in ascending order
    return phase_normalize(np.linalg.eigh(a @ a.conj().T)[1][:, -1])


def zf_directions(h_est):
    """Unit-norm zero-forcing directions from a channel estimate.

    Column k of the result is orthogonal to every other user's estimated
    channel: ``h_est[:, i].conj() @ out[:, k] == 0`` for ``i != k``.
    Built from the pseudo-inverse of ``h_est^H``, column-normalized.

    Raises
    ------
    RankDeficient
        If ``h_est`` does not have full column rank (smallest singular
        value below ``EPS_RANK`` times the largest, or k > n_t).
    """
    h_est = np.asarray(h_est, dtype=complex)
    n_t, k = h_est.shape
    if k > n_t:
        raise RankDeficient(f"{k} users exceed {n_t} antennas")
    sv = np.linalg.svd(h_est, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < EPS_RANK * sv[0]:
        raise RankDeficient(
            f"smallest singular value {sv[-1]:.3e} below tolerance "
            f"{EPS_RANK:.0e} * {sv[0]:.3e}"
        )
    # pinv(h^H) has columns d_k with h_i^H d_k = delta_ik
    d = np.linalg.pinv(h_est.conj().T)
    out = np.empty_like(d)
    for j in range(k):
        out[:, j] = phase_normalize(d[:, j] / np.linalg.norm(d[:, j]))
    return out


def mf_directions(h_est):
    """Unit-norm matched directions: each user's own estimated channel,
    normalized.

    Raises
    ------
    ZeroChannel
        If any user's estimated channel is exactly zero.
    """
    h_est = np.asarray(h_est, dtype=complex)
    out = np.empty_like(h_est)
    for j in range(h_est.shape[1]):
        nrm = np.linalg.norm(h_est[:, j])
        if nrm == 0.0:
            raise ZeroChannel(f"user {j} has a zero channel estimate")
        out[:, j] = phase_normalize(h_est[:, j] / nrm)
    return out
