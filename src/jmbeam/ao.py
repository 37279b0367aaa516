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

The loop of one run is written once, as the generator `ao_steps`, which
yields its array work to the lockstep driver (`lockstep.drive`): the
block update with its rates (`_updates`), the extrapolation's rates
(`_rates`) and the requests of `qcqp.solve_steps`. `run_block` steps
many runs together, one stacked numpy call per request kind, round and
CHUNK_ROWS realization rows, each run keeping its own warm starts, faces,
line searches, incumbent fallbacks, extrapolation and stop test; `run_ao`
is `run_block` on one run. A run's bits do not depend on its companions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcqp
# update_blocks stays importable here with the other layer calls, which
# perfbench/layers.py wraps in this namespace
from .awsmse import accumulate_components, equalizers_of, update_blocks
from .linalg import dominant_left_singular_vector, mf_directions, zf_directions
from .lockstep import drive, run_one
from .receivers import (
    _batch_powers,
    average_rates,
    precoder_power,
    rates_of,
    stacked_channels,
)

__all__ = [
    "EXTRAPOLATE_FROM",
    "INIT_SCHEMES",
    "AoParams",
    "AoTrace",
    "dof_power_split",
    "initialize",
    "run_ao",
    "run_block",
    "ao_steps",
]

INIT_SCHEMES = ("zf-svd", "zf-e", "mf-svd", "mf-e")

# first iteration whose update is extrapolated (see the module docstring)
EXTRAPOLATE_FROM = 20

# realization rows (runs x m) that one stacked call of a block update or
# of the extrapolation's rates serves at most; the runs of a block are
# served in consecutive chunks (`_chunks`). Such a call's arrays grow
# with its rows. Measured by the benchmark's peak memory against one run
# at a time: on the desk grid (m = 200, 10 runs a block) +1.9% at 600
# rows, +3.6% at 1000 (and faster in 3 of 4 runs), +6.7% for the whole
# block; at m = 1000 the whole block gave +27% and no speed, since the
# work there grows with the rows. 1000 rows is 5 runs at m = 200 and one
# at m = 1000.
CHUNK_ROWS = 1000


@dataclass(frozen=True)
class AoParams:
    """Loop controls: outer stopping threshold (bits), iteration cap and
    the initialization scheme."""

    epsilon_r: float = 1e-3
    n_max: int = 200
    init_scheme: str = "zf-svd"

    def __post_init__(self):
        if not self.epsilon_r > 0:
            raise ValueError("epsilon_r must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.init_scheme.lower() not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")


@dataclass
class AoTrace:
    """Per-iteration history of one run.

    rbar is the surrogate rate from the averaged log-weights;
    awsmse_obj is the true averaged weighted sum-MSE (omitted constant
    re-added); asr_audit is the independently computed average sum rate
    at the precoder the blocks were updated on, and kkt_residual the
    recomputed KKT residual of each update's solve; these two are kept
    in memory only.
    """

    iters: list = field(default_factory=list)
    rbar: list = field(default_factory=list)
    awsmse_obj: list = field(default_factory=list)
    power: list = field(default_factory=list)
    solver_status: list = field(default_factory=list)
    solver_iters: list = field(default_factory=list)
    asr_audit: list = field(default_factory=list)
    kkt_residual: list = field(default_factory=list)
    stop_reason: str = ""

    def append(self, it, rbar, obj, power, status, iters, asr, kkt=math.nan):
        self.iters.append(int(it))
        self.rbar.append(float(rbar))
        self.awsmse_obj.append(float(obj))
        self.power.append(float(power))
        self.solver_status.append(str(status))
        self.solver_iters.append(int(iters))
        self.asr_audit.append(float(asr))
        self.kkt_residual.append(float(kkt))

    def __len__(self):
        return len(self.iters)

    def to_csv(self, path):
        """Serialize the trace; floats use repr for lossless round-trip."""
        with open(path, "w") as f:
            f.write("iter,rbar,awsmse_obj,power,solver_status,solver_iters\n")
            for i in range(len(self.iters)):
                f.write(
                    f"{self.iters[i]},{self.rbar[i]!r},{self.awsmse_obj[i]!r},"
                    f"{self.power[i]!r},{self.solver_status[i]},"
                    f"{self.solver_iters[i]}\n"
                )


def dof_power_split(p_t, alpha, k):
    """Power budget split between the common column and each private one.

    Returns (power_common, power_per_private) with power_common =
    p_t - p_t**alpha clamped at zero (the clamp only binds for p_t < 1,
    where the private budget is capped at p_t so totals stay exact).
    """
    if not p_t > 0:
        raise ValueError("p_t must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if k < 1:
        raise ValueError("k must be at least 1")
    private_total = min(p_t**alpha, p_t)
    return p_t - private_total, private_total / k


def initialize(scheme, h_est, p_t, alpha):
    """Construct a starting precoder from the channel estimate.

    scheme is one of 'zf-svd', 'zf-e', 'mf-svd', 'mf-e' (case
    insensitive): private directions from zero forcing or matched
    filtering, common direction from the dominant left singular vector
    of the estimate or the first standard basis vector. The budget is
    split by dof_power_split; at alpha = 1 the common column gets no
    power and the private ones share p_t (the broadcast start).
    """
    scheme = scheme.lower()
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}")
    h_est = np.asarray(h_est)
    n_t, k = h_est.shape
    pow_c, pow_p = dof_power_split(p_t, alpha, k)

    dirs = zf_directions(h_est) if scheme.startswith("zf") else mf_directions(h_est)
    p = np.zeros((n_t, k + 1), dtype=complex)
    p[:, 1:] = math.sqrt(pow_p) * dirs
    if pow_c > 0.0:
        if scheme.endswith("svd"):
            d_c = dominant_left_singular_vector(h_est)
        else:
            d_c = np.zeros(n_t, dtype=complex)
            d_c[0] = 1.0
        p[:, 0] = math.sqrt(pow_c) * d_c
    return p


def run_ao(h_est, sample, cfg, params, common=True):
    """Alternate block updates and precoder solves until rbar settles.

    Parameters
    ----------
    h_est : (n_t, k) complex ndarray
        Channel estimate; only used through the initialization.
    sample : MonteCarloSample
        Conditional realizations the averages run over.
    cfg : CsitConfig
        Provides p_t, alpha, sigma_n2.
    params : AoParams
    common : bool
        False starts from the alpha = 1 split, whose common column has
        no power. A zero common column stays zero under every update, so
        this is the broadcast-only run.

    Returns
    -------
    (p, trace) : final precoder and the full AoTrace. trace.stop_reason
    is 'converged' or 'n_max'; at n_max p is the better of the last
    update and its extrapolation. Inner-solver failures propagate; an inner
    MaxIter status is tolerated and visible in the trace.

    This is `run_block` on one run.
    """
    return run_one(ao_steps(h_est, sample, cfg, params, common))


def run_block(runs):
    """Step several AO runs in lockstep (`lockstep.drive`).

    `runs` holds (h_est, sample, cfg, params, common) tuples, as
    `run_ao` takes them. The runs must share n_t, k and the sample size
    m; runs may share a sample. Each keeps its own warm starts, faces,
    line searches, incumbent fallbacks, extrapolation and stop test, and
    each run's result has the bits `run_ao` gives it alone. Returns, per
    run, (p, trace) or the JmbeamError that ended it.
    """
    return drive([ao_steps(*run) for run in runs])


def ao_steps(h_est, sample, cfg, params, common=True):
    """`run_ao` as a generator for the lockstep driver: its requests are
    the block updates with their rates, the extrapolation's rates and
    those of `qcqp.solve_steps`, and it returns (p, trace)."""
    p = initialize(params.init_scheme, h_est, cfg.p_t, cfg.alpha if common else 1.0)
    trace = AoTrace()
    rbar_prev = 0.0
    p_prev = None
    beta = 1.0
    stop = "n_max"
    sol = None
    for n in range(1, params.n_max + 1):
        q, rbar, asr = yield _updates, (sample, p, cfg.sigma_n2, cfg.p_t)
        sol = yield from qcqp.solve_steps(
            q, warm=p, warm_dual=None if sol is None else (sol.mu, sol.mu_pow)
        )
        p_new = sol.p_star

        trace.append(
            n,
            rbar,
            sol.objective + q.omitted_constant,
            precoder_power(p_new),
            sol.status,
            sol.iterations,
            asr,
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
            asr, asr_try = yield _rates, (
                (sample, p_new, cfg.sigma_n2), (sample, p_try, cfg.sigma_n2)
            )
            if asr_try > asr:
                p = p_try
                beta *= 1.5
            else:
                beta = 1.0
        p_prev = p_new
    trace.stop_reason = stop
    return p, trace


def _chunks(items):
    """Consecutive slices of request items (sample, p, sigma_n2, ...) of
    at most CHUNK_ROWS realization rows (one item at least), with their
    samples, stacked precoders and noise powers."""
    step = max(1, CHUNK_ROWS // items[0][0].m)
    for lo in range(0, len(items), step):
        part = items[lo:lo + step]
        yield (
            part,
            [it[0] for it in part],
            np.array([it[1] for it in part]),
            np.array([it[2] for it in part]),
        )


def _updates(items):
    """Per item (sample, p, sigma_n2, p_t), in stacked calls: the
    precoder-update problem after the block update at p, the surrogate
    rate rbar from its averaged log-weights, and the average sum rate at
    p. At zero common power v_c is exactly zero, so rbar holds for both
    forms."""
    out = []
    for part, samples, p, sigma_n2 in _chunks(items):
        chans = stacked_channels(samples)
        powers = _batch_powers(samples, p, sigma_n2, chans)
        gw = equalizers_of(powers)
        asr = rates_of(powers).asr.tolist()
        del powers  # freed before the accumulation's buffers peak
        comps = accumulate_components(samples, gw, chans)
        rbar = np.min(comps.v_c, axis=-1) + np.sum(comps.v_p, axis=-1)
        problems = qcqp.build(comps, sigma_n2, [it[3] for it in part])
        out += zip(problems, rbar.tolist(), asr)
    return out


def _rates(payloads):
    """Average sum rates at each point (sample, p, sigma_n2) of each
    payload, a sequence of points, in stacked calls."""
    points = [pt for pts in payloads for pt in pts]
    asr = iter([
        x for _, samples, p, sigma_n2 in _chunks(points)
        for x in average_rates(samples, p, sigma_n2).asr.tolist()
    ])
    return [[next(asr) for _ in pts] for pts in payloads]


# the extrapolation closes an iteration, and the next update starts one:
# every run of a batch waits there for the others (`lockstep.drive`)
_rates.rank = -2
_updates.rank = -3
