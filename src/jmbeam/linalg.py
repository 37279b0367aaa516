"""Dense complex linear-algebra kernel for small beamforming problems.

Everything operates on plain numpy arrays. A channel matrix is an
``(n_t, k)`` complex array whose columns are per-user channel vectors.
Direction outputs follow a deterministic phase convention (first nonzero
entry real and nonnegative) so that fixtures are reproducible.
"""

import cmath
import math

import numpy as np

from .errors import NoConvergence, NotPsd, RankDeficient, ZeroChannel

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
    """Lower-triangular Cholesky factor of a Hermitian PSD matrix.

    Parameters
    ----------
    a : (n, n) complex ndarray
        Hermitian positive-semidefinite matrix.

    Returns
    -------
    L : (n, n) complex ndarray
        Lower triangular. Exactly singular directions give zero columns.

    Raises
    ------
    NotPsd
        If a pivot falls below ``-EPS_PSD`` (relative to the largest
        diagonal entry).
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")

    diag = np.real(np.diagonal(a))
    scale = float(np.max(np.abs(diag))) if n else 0.0
    if scale == 0.0:
        scale = 1.0
    tol = EPS_PSD * scale

    L = np.zeros((n, n), dtype=complex)
    for j in range(n):
        d = float(np.real(a[j, j]) - np.sum(np.abs(L[j, :j]) ** 2))
        if d <= tol:
            if d < -tol:
                raise NotPsd(f"pivot {d:.3e} at index {j} (tolerance {tol:.3e})")
            # numerically zero pivot: singular direction, zero column
            continue
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j].conj()) / L[j, j]
    return L


def dominant_left_singular_vector(a, tol=1e-10, max_iter=10000):
    """Unit vector v maximizing ||a^H v||, by power iteration on a a^H.

    The start vector is deterministic (e_1 plus a small fixed perturbation
    with nonzero weight on every coordinate) so repeated calls agree
    bit-for-bit. Convergence is declared when the eigen-residual
    ``||B v - lam v|| <= tol * lam`` with ``B = a a^H`` and ``lam`` the
    Rayleigh quotient.

    Raises
    ------
    NoConvergence
        After ``max_iter`` iterations; carries the last residual.
    ValueError
        If ``a`` is zero.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.any(np.abs(a) > 0):
        raise ValueError("matrix is zero; dominant direction undefined")

    b = a @ a.conj().T
    n = b.shape[0]
    # e_1 plus a decaying perturbation: nonzero overlap with every coordinate
    v = 1e-3 / np.arange(1, n + 1, dtype=float)
    v[0] += 1.0
    v = v.astype(complex)
    v /= np.linalg.norm(v)

    bnorm = np.linalg.norm(b)
    resid = np.inf
    for _ in range(max_iter):
        w = b @ v
        lam = float(np.real(v.conj() @ w))
        resid = float(np.linalg.norm(w - lam * v))
        if resid <= tol * max(lam, 1e-300):
            return phase_normalize(v)
        nw = np.linalg.norm(w)
        if nw <= 1e-300 * bnorm:
            # v fell into the null space; re-perturb deterministically
            v = v + (1e-3 / np.arange(1, n + 1)) * (1 + 1j)
            v /= np.linalg.norm(v)
            continue
        v = w / nw
    raise NoConvergence(
        f"power iteration did not converge in {max_iter} iterations "
        f"(residual {resid:.3e})",
        residual=resid,
    )


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
