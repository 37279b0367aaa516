"""Alternating optimization of the precoder under imperfect CSI.

One iteration: exact minimization over equalizers and weights at the
incumbent precoder (closed form, per realization), re-accumulation of
the sample-average components, then one convex precoder update. The
running rate estimate rbar reuses the averaged log-weights, so the
stopping rule |rbar_n - rbar_{n-1}| < epsilon_r costs nothing extra.

The plain loop settles within about 20 iterations in most runs but can
crawl at high SNR (hundreds of iterations gaining a few millibits
each). From iteration EXTRAPOLATE_FROM on, each update is therefore
followed by a safeguarded extrapolation along the last step. The
extrapolated precoder is kept only if its sample-average sum rate beats
the plain update's, which keeps the true averaged WSMSE monotone and
leaves the fixed points unchanged. Starting at once instead ends more
low-SNR runs at poorer stationary points.

Initializations follow the DoF-motivated power split: the common column
gets p_t - p_t**alpha (clamped at zero when p_t < 1) and the private
columns share the rest over zero-forcing or matched-filter directions.
The one-shot designs treat the estimate as exact: `jmb_zf_svd_wf` is
the 'zf-svd' start with its private total water-filled over the
zero-forcing gains, and `zf_wf` is its alpha = 1 case.

The loop of one run is written once, as the generator `ao_steps`, which
yields its array work to the lockstep driver (`lockstep.drive`): the
block update with its rbar (`_updates`), the extrapolation's rates
(`_rates`) and the requests of `qcqp.solve_steps`. `run_block` steps
many runs together, one stacked numpy call per request kind, round and
CHUNK_ROWS realization rows, each run keeping its own warm starts, faces,
line searches, incumbent fallbacks, extrapolation and stop test; `run_ao`
is `run_block` on one run. A run's bits do not depend on its companions.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import qcqp
from .linalg import dominant_left_singular_vector, mf_directions, zf_directions
from .lockstep import drive, run_one
from .receivers import (Arena, accumulate_components, average_rates, precoder_power,
                        update_blocks)

__all__ = [
    "EXTRAPOLATE_FROM",
    "INIT_SCHEMES",
    "AoParams",
    "AoTrace",
    "dof_power_split",
    "initialize",
    "water_fill",
    "zf_wf",
    "jmb_zf_svd_wf",
    "run_ao",
    "run_block",
    "ao_steps",
]

INIT_SCHEMES = ("zf-svd", "zf-e", "mf-svd", "mf-e")

# first iteration whose update is extrapolated (see the module docstring)
EXTRAPOLATE_FROM = 20

# realization rows (runs x m) that one stacked call of a block update or
# of the extrapolation's rates serves at most; the runs of a block are
# served in consecutive chunks (`_chunks`). `_SCRATCH` keeps one chunk's
# arrays, about 1.2 MB of peak memory per 1000 rows. Against 1000 rows,
# a whole block at m = 1000 (10 runs) cost 7.2 MB (+17%) for no speed
# (CPU 1.02x, faster in 6 of 16 in-process pairs), and one at m = 200
# (36 runs) cost 5.1 MB (+12%) for 7% (faster in 9 of 10). 1000 rows is
# 5 runs at m = 200 and one at m = 1000, whatever the block
# (`harness.BLOCK_ROWS`) holds.
CHUNK_ROWS = 1000
_SCRATCH = Arena()  # per-realization arrays of `_updates` and `_rates`


@dataclass(frozen=True)
class AoParams:
    """Loop controls: outer stopping threshold (bits), iteration cap and
    the initialization scheme."""

    epsilon_r: float = 1e-3
    n_max: int = 200
    init_scheme: str = "zf-svd"

    def __post_init__(self):
        # ExperimentConfig checks through here too: an infinite threshold
        # stops every run after one update, and a bool is not a number
        eps, n_max, scheme = self.epsilon_r, self.n_max, self.init_scheme
        if type(eps) is bool or not isinstance(eps, numbers.Real) or not 0 < eps < math.inf:
            raise ValueError(f"epsilon_r must be a positive finite number, got {eps!r}")
        if type(n_max) is bool or not isinstance(n_max, int) or n_max < 1:
            raise ValueError(f"n_max must be an integer of at least 1, got {n_max!r}")
        if not isinstance(scheme, str) or scheme.lower() not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {scheme!r}")


@dataclass
class AoTrace:
    """Per-iteration history of one run, held in memory; entry i is
    iteration i + 1.

    rbar is read off the averaged log-weights, and at the MMSE weights
    that is the sample-average sum rate at the precoder the blocks were
    updated on; awsmse_obj is the true averaged weighted sum-MSE
    (omitted constant re-added) and kkt_residual the recomputed KKT
    residual of each update's solve. The trace files of
    `harness.run_convergence` hold every list but kkt_residual.
    """

    rbar: list = field(default_factory=list)
    awsmse_obj: list = field(default_factory=list)
    power: list = field(default_factory=list)
    solver_status: list = field(default_factory=list)
    solver_iters: list = field(default_factory=list)
    kkt_residual: list = field(default_factory=list)
    stop_reason: str = ""

    def append(self, rbar, obj, power, status, iters, kkt):
        self.rbar.append(float(rbar))
        self.awsmse_obj.append(float(obj))
        self.power.append(float(power))
        self.solver_status.append(str(status))
        self.solver_iters.append(int(iters))
        self.kkt_residual.append(float(kkt))

    def __len__(self):
        return len(self.rbar)


def dof_power_split(p_t, alpha):
    """Power budget split between the common column and the private ones.

    Returns (power_common, private_total) with power_common =
    p_t - p_t**alpha clamped at zero (the clamp only binds for p_t < 1,
    where the private budget is capped at p_t so totals stay exact).
    """
    if not p_t > 0:
        raise ValueError("p_t must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    private_total = min(p_t**alpha, p_t)
    return p_t - private_total, private_total


def initialize(scheme, h_est, p_t, alpha):
    """Construct a starting precoder from the channel estimate.

    scheme is one of 'zf-svd', 'zf-e', 'mf-svd', 'mf-e' (case
    insensitive): private directions from zero forcing or matched
    filtering, common direction from the dominant left singular vector
    of the estimate or the first standard basis vector. The budget is
    split by dof_power_split; at alpha = 1 the common column gets no
    power and the private ones share p_t equally (the broadcast start).
    """
    scheme = scheme.lower()
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}")
    h_est = np.asarray(h_est)
    n_t, k = h_est.shape
    pow_c, pow_p = dof_power_split(p_t, alpha)

    dirs = zf_directions(h_est) if scheme.startswith("zf") else mf_directions(h_est)
    p = np.zeros((n_t, k + 1), dtype=complex)
    p[:, 1:] = math.sqrt(pow_p / k) * dirs
    if pow_c > 0.0:
        if scheme.endswith("svd"):
            d_c = dominant_left_singular_vector(h_est)
        else:
            d_c = np.zeros(n_t, dtype=complex)
            d_c[0] = 1.0
        p[:, 0] = math.sqrt(pow_c) * d_c
    return p


def water_fill(gains, budget):
    """The powers maximizing sum log2(1 + gain*power) under a budget,
    by sorted active-set search.

    gains must be strictly positive, budget nonnegative. The active set
    is found by trying the largest candidate set first and shrinking
    until the implied level clears the worst included inverse gain, so
    the result is exact up to round-off (no bisection): active entries
    share one level 1/gain + power, and inactive ones have 1/gain at
    least that level.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a nonempty 1-d array")
    if np.any(gains <= 0) or not np.all(np.isfinite(gains)):
        raise ValueError("gains must be positive and finite")
    if not budget >= 0:
        raise ValueError("budget must be nonnegative")

    inv = 1.0 / gains
    order = np.argsort(inv, kind="stable")
    inv_s = inv[order]
    csum = np.cumsum(inv_s)
    k = gains.size

    powers_s = np.zeros(k)
    for r in range(k, 0, -1):
        level = (budget + csum[r - 1]) / r
        if level > inv_s[r - 1] or r == 1:
            powers_s[:r] = level - inv_s[:r]
            break

    powers = np.empty(k)
    powers[order] = powers_s
    return powers


def _zf_gains(h_est, dirs):
    # per-user effective SNR gain |h_k^H d_k|^2 (unit noise) on the estimate
    proj = np.einsum("nk,nk->k", h_est.conj(), dirs)
    return proj.real**2 + proj.imag**2


def zf_wf(h_est, p_t):
    """Zero-forcing directions with water-filled powers, no common column:
    jmb_zf_svd_wf at alpha = 1."""
    return jmb_zf_svd_wf(h_est, p_t, 1.0)


def jmb_zf_svd_wf(h_est, p_t, alpha):
    """The 'zf-svd' start with its private total water-filled over the
    zero-forcing gains on the estimate."""
    p = initialize("zf-svd", h_est, p_t, alpha)
    h_est = np.asarray(h_est)
    dirs = zf_directions(h_est)
    _, private_total = dof_power_split(p_t, alpha)
    p[:, 1:] = dirs * np.sqrt(water_fill(_zf_gains(h_est, dirs), private_total))
    return p


def run_ao(h_est, sample, cfg, params):
    """Alternate block updates and precoder solves until rbar settles.

    Parameters
    ----------
    h_est : (n_t, k) complex ndarray
        Channel estimate; only used through the initialization.
    sample : MonteCarloSample
        Conditional realizations the averages run over.
    cfg : CsitConfig
        Provides p_t, which is the SNR since the noise power is one, and
        alpha, which only sets the starting power split. At alpha = 1
        the common column starts with no power, and a zero common column
        stays zero under every update, so that run is the broadcast-only
        one.
    params : AoParams

    Returns
    -------
    (p, trace) : final precoder and the full AoTrace. trace.stop_reason
    is 'converged' or 'n_max'; at n_max p is the better of the last
    update and its extrapolation. Inner-solver failures propagate; an inner
    MaxIter status is tolerated and visible in the trace.

    This is `run_block` on one run.
    """
    return run_one(ao_steps(h_est, sample, cfg, params))


def run_block(runs):
    """Step several AO runs in lockstep (`lockstep.drive`).

    `runs` holds (h_est, sample, cfg, params) tuples, as
    `run_ao` takes them. The runs must share n_t, k and the sample size
    m; runs may share a sample. Each keeps its own warm starts, faces,
    line searches, incumbent fallbacks, extrapolation and stop test, and
    each run's result has the bits `run_ao` gives it alone. Returns, per
    run, (p, trace) or the JmbeamError that ended it.
    """
    return drive([ao_steps(*run) for run in runs])


def ao_steps(h_est, sample, cfg, params):
    """`run_ao` as a generator for the lockstep driver: its requests are
    the block updates with their rbar, the extrapolation's rates and
    those of `qcqp.solve_steps`, and it returns (p, trace)."""
    p = initialize(params.init_scheme, h_est, cfg.p_t, cfg.alpha)
    trace = AoTrace()
    rbar_prev = 0.0
    p_prev = None
    beta = 1.0
    stop = "n_max"
    sol = None
    for n in range(1, params.n_max + 1):
        q, rbar = yield _updates, (sample, p, cfg.p_t)
        sol = yield from qcqp.solve_steps(
            q, warm=p, warm_dual=None if sol is None else (sol.mu, sol.mu_pow)
        )
        p_new = sol.p_star

        trace.append(
            rbar,
            sol.objective + q.omitted_constant,
            precoder_power(p_new),
            sol.status,
            sol.iterations,
            sol.kkt_residual,
        )
        if abs(rbar - rbar_prev) < params.epsilon_r:
            p = p_new
            stop = "converged"
            break
        rbar_prev = rbar

        # The objective after this update is at least k+1 - ASR(p_new), and
        # the next one at most k+1 - ASR(next p), so accepting only a higher
        # ASR keeps the descent. Zero columns stay zero under extrapolation.
        p = p_new
        if n >= EXTRAPOLATE_FROM:
            p_try = p_new + beta * (p_new - p_prev)
            power = precoder_power(p_try)
            if power > cfg.p_t:
                p_try *= math.sqrt(cfg.p_t / power)
            asr, asr_try = yield _rates, ((sample, p_new), (sample, p_try))
            if asr_try > asr:
                p = p_try
                beta *= 1.5
            else:
                beta = 1.0
        p_prev = p_new
    trace.stop_reason = stop
    return p, trace


def _chunks(items):
    """Consecutive slices of request items (sample, p, ...) of at most
    CHUNK_ROWS realization rows (one item at least), with their samples
    and stacked precoders."""
    step = max(1, CHUNK_ROWS // items[0][0].m)
    for lo in range(0, len(items), step):
        part = items[lo:lo + step]
        yield (
            part,
            [it[0] for it in part],
            np.array([it[1] for it in part]),
        )


def _updates(items):
    """Per item (sample, p, p_t), in stacked calls: the precoder-update
    problem after the block update at p, and rbar, read off its averaged
    log-weights. At the MMSE weights log2 u is the rate of its layer, so
    rbar is the sample-average sum rate at p (`average_rates`, to
    round-off). At zero common power v_c is exactly zero, so rbar holds
    for both forms."""
    out = []
    for part, samples, p in _chunks(items):
        comps = accumulate_components(samples, update_blocks(samples, p, _SCRATCH), _SCRATCH)
        rbar = np.min(comps.v_c, axis=-1) + np.sum(comps.v_p, axis=-1)
        out += zip(qcqp.build(comps, [it[2] for it in part]), rbar.tolist())
    return out


def _rates(payloads):
    """Average sum rates at each point (sample, p) of each payload, a
    sequence of points, in stacked calls."""
    points = [pt for pts in payloads for pt in pts]
    asr = iter([
        x for _, samples, p in _chunks(points)
        for x in average_rates(samples, p, _SCRATCH).asr.tolist()
    ])
    return [[next(asr) for _ in pts] for pts in payloads]


# the extrapolation closes an iteration, and the next update starts one:
# every run of a batch waits there for the others (`lockstep.drive`)
_rates.rank = -2
_updates.rank = -3
