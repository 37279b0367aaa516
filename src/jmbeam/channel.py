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

import numbers
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
    if not 0 < p_t < np.inf:
        raise ValueError("p_t must be positive and finite")
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    # at p_t <= 1 the law is at least 1, and p_t ** -alpha may overflow
    return 1.0 if p_t <= 1 else float(p_t) ** (-float(alpha))


@dataclass(frozen=True)
class CsitConfig:
    """Static system parameters: n_t antennas, k single-antenna users
    (k <= n_t), CSIT quality exponent alpha and power budget p_t
    (linear). The noise variance is one, so p_t is the SNR."""

    n_t: int
    k: int
    alpha: float
    p_t: float

    def __post_init__(self):
        for name in ("n_t", "k"):  # numpy takes neither a float nor a bool as a size
            v = getattr(self, name)
            if type(v) is bool or not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.k > self.n_t:
            raise ValueError(f"k={self.k} users exceed n_t={self.n_t} antennas")
        error_variance(self.p_t, self.alpha)  # checks p_t and alpha

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
    (m, n_t, k). The ordering is fixed by draw index, and every sample
    average (`average_rates`, `accumulate_components`) is taken over
    it in this order, so the same realizations give the same bits.

    The sample holds one read-only complex copy of its channels, so
    writing the caller's array does not reach it: `user_channels`,
    (k, m, n_t), row [u, mi] user u's channel in realization mi, which
    every kernel reads (as a (k*m, n_t) matrix, P^H h for the whole
    sample is one GEMM); `realizations` is an (m, n_t, k) view of it.
    The block update also reads `user_outer`, built on first use and
    freed with the sample (`sum_rate`'s samples never build it): (k, m,
    n_t**2 + 1) real GEMM columns of each draw's h_a conj(h_b), real
    parts for a <= b and imaginary parts for a < b in np.triu_indices
    order, then ones.
    """

    realizations: np.ndarray = field(repr=False)
    user_channels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = np.asarray(self.realizations)
        if r.ndim != 3 or r.shape[0] < 1:
            raise ValueError("realizations must be a nonempty (m, n_t, k) array")
        users = _read_only(np.array(r.transpose(2, 0, 1), dtype=complex, order="C"))
        object.__setattr__(self, "user_channels", users)
        object.__setattr__(self, "realizations", users.transpose(1, 2, 0))

    @property
    def m(self):
        return self.realizations.shape[0]

    @cached_property
    def user_outer(self):
        # real products, so no complex SIMD path of numpy sets the bits
        hr, hi = self.user_channels.real, self.user_channels.imag
        a, b = np.triu_indices(hr.shape[-1])
        up = a < b
        return _read_only(np.ascontiguousarray(np.concatenate([
            hr[..., a] * hr[..., b] + hi[..., a] * hi[..., b],
            hi[..., a[up]] * hr[..., b[up]] - hr[..., a[up]] * hi[..., b[up]],
            np.ones(hr.shape[:-1] + (1,))], axis=-1)))


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
    if type(m) is bool or not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError("m must be an integer >= 1")
    h_est = np.asarray(h_est, dtype=complex)
    err = complex_gaussian(rng, (m,) + h_est.shape, var=sigma_e2)
    return MonteCarloSample(realizations=h_est + err)
