"""Channel generation for the partial-CSIT downlink.

The transmitter never sees the true channel H, only an estimate h_est and
the error statistics. The Monte-Carlo sample used by the sample-average
objective consists of conditional realizations h_est + error drawn around
the estimate.

Randomness is organized as counter-seeded substreams: ``substream(master,
*ids)`` gives an independent generator for every id tuple, so parallel
workers can own disjoint streams and results do not depend on execution
order.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "CsitConfig",
    "ChannelDraw",
    "MonteCarloSample",
    "substream",
    "complex_gaussian",
    "error_variance",
    "draw_channel",
    "make_draw",
    "draw_sample",
    "save_fixture",
    "load_fixture",
]


def substream(master_seed, *stream_id):
    """Independent Generator for the given (master_seed, stream_id) pair.

    Built on Philox (counter-based) via SeedSequence spawn keys: streams
    for different id tuples are statistically independent and do not
    depend on the order in which they are created.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(i) for i in stream_id))
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussian(rng, shape, var=1.0):
    """Circularly-symmetric complex Gaussian array, total variance ``var``
    per entry (var/2 in each of the real and imaginary parts)."""
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def error_variance(p_t, alpha):
    """CSIT error variance p_t**(-alpha), capped at 1.0.

    The power law exceeds the unit channel variance at sub-0 dB budgets;
    the cap keeps the estimate meaningful there.
    """
    if p_t <= 0:
        raise ValueError("p_t must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return min(float(p_t) ** (-float(alpha)), 1.0)


@dataclass(frozen=True)
class CsitConfig:
    """Static system parameters: n_t antennas, k single-antenna users
    (k <= n_t), CSIT quality exponent alpha, power budget p_t and noise
    variance sigma_n2 (both linear)."""

    n_t: int
    k: int
    alpha: float
    p_t: float
    sigma_n2: float = 1.0

    def __post_init__(self):
        if self.k > self.n_t:
            raise ValueError(f"k={self.k} users exceed n_t={self.n_t} antennas")
        if self.k < 1 or self.n_t < 1:
            raise ValueError("n_t and k must be >= 1")
        if self.p_t <= 0:
            raise ValueError("p_t must be positive")
        if self.sigma_n2 <= 0:
            raise ValueError("sigma_n2 must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @property
    def sigma_e2(self):
        return error_variance(self.p_t, self.alpha)


@dataclass(frozen=True, eq=False)
class ChannelDraw:
    """One true channel with its transmitter-side estimate.

    h_true == h_est + h_err holds entrywise exactly: h_true is stored as
    that sum (the estimate is what the optimizer sees; the decomposition
    identity is what downstream bookkeeping relies on).
    """

    h_true: np.ndarray
    h_est: np.ndarray
    h_err: np.ndarray
    sigma_e2: float


@dataclass(frozen=True, eq=False)
class MonteCarloSample:
    """Ordered sample of conditional channel realizations, shape
    (m, n_t, k). The ordering is fixed by draw index; `average_rates`
    averages in this order. `accumulate_components` sums pairwise,
    correctly rounded in practice, so the order does not change it.

    The sample holds its own read-only complex copy of the realizations,
    so what is derived from them cannot go stale:

    * `stacked`, (m, k, n_t): row [mi, u] is user u's channel in
      realization mi; as an (m*k, n_t) matrix it gives P^H h for the
      whole sample in one GEMM;
    * `outer`, (m, k, n_t, n_t): the per-realization outer products h h^H,
      computed on each access (`awsmse` keeps only a packed form);
    * `workspace`: a dict of per-sample values owned by the evaluation
      layers (the packed outer products of `awsmse`).
    """

    realizations: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.array(self.realizations, dtype=complex)
        if r.ndim != 3 or r.shape[0] < 1:
            raise ValueError("realizations must be a nonempty (m, n_t, k) array")
        object.__setattr__(self, "realizations", _read_only(r))

    @property
    def m(self):
        return self.realizations.shape[0]

    @cached_property
    def stacked(self):
        return _read_only(self.realizations.transpose(0, 2, 1).copy())

    @property
    def outer(self):
        h = self.realizations
        return _read_only(np.einsum("mik,mjk->mkij", h, h.conj()))

    @cached_property
    def workspace(self):
        return {}


def _read_only(a):
    a.flags.writeable = False
    return a


def draw_channel(rng, cfg):
    """True channel H: (n_t, k) i.i.d. standard complex Gaussian entries."""
    return complex_gaussian(rng, (cfg.n_t, cfg.k), var=1.0)


def make_draw(rng, cfg):
    """Draw a true channel and its estimate.

    The error is CN(0, sigma_e2) per entry and the estimate is the true
    channel minus the error, so the error is independent of the true
    channel (not of the estimate).
    """
    h = draw_channel(rng, cfg)
    sigma_e2 = cfg.sigma_e2
    h_err = complex_gaussian(rng, (cfg.n_t, cfg.k), var=sigma_e2)
    h_est = h - h_err
    return ChannelDraw(h_true=h_est + h_err, h_est=h_est, h_err=h_err, sigma_e2=sigma_e2)


def draw_sample(rng, h_est, sigma_e2, m):
    """Monte-Carlo sample of m conditional realizations h_est + error.

    Errors are independent CN(0, sigma_e2) draws; sigma_e2 = 0 draws
    signed zeros, so the realizations are m copies of the estimate.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    h_est = np.asarray(h_est, dtype=complex)
    err = complex_gaussian(rng, (m,) + h_est.shape, var=sigma_e2)
    return MonteCarloSample(realizations=h_est + err)


def save_fixture(path, h, seed):
    """Write a channel matrix as a regression fixture.

    Format: header line "nt k seed", then one "re im" pair per line in
    row-major order, using round-trip float repr.
    """
    h = np.asarray(h, dtype=complex)
    n_t, k = h.shape
    with open(path, "w") as f:
        f.write(f"{n_t} {k} {seed}\n")
        for i in range(n_t):
            for j in range(k):
                f.write(f"{float(h[i, j].real)!r} {float(h[i, j].imag)!r}\n")


def load_fixture(path):
    """Read a fixture written by save_fixture; returns (h, seed)."""
    with open(path) as f:
        header = f.readline().split()
        n_t, k, seed = int(header[0]), int(header[1]), int(header[2])
        h = np.empty((n_t, k), dtype=complex)
        for i in range(n_t):
            for j in range(k):
                re, im = f.readline().split()
                h[i, j] = float(re) + 1j * float(im)
    return h, seed
