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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcqp
from .awsmse import accumulate_components, update_blocks
from .linalg import dominant_left_singular_vector, mf_directions, zf_directions
from .receivers import average_rates, precoder_power

__all__ = [
    "EXTRAPOLATE_FROM",
    "INIT_SCHEMES",
    "AoParams",
    "AoTrace",
    "dof_power_split",
    "initialize",
    "run_ao",
]

INIT_SCHEMES = ("zf-svd", "zf-e", "mf-svd", "mf-e")

# first iteration whose update is extrapolated (see the module docstring)
EXTRAPOLATE_FROM = 20


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
    at the precoder the blocks were updated on, kept in memory only.
    """

    iters: list = field(default_factory=list)
    rbar: list = field(default_factory=list)
    awsmse_obj: list = field(default_factory=list)
    power: list = field(default_factory=list)
    solver_status: list = field(default_factory=list)
    solver_iters: list = field(default_factory=list)
    asr_audit: list = field(default_factory=list)
    stop_reason: str = ""

    def append(self, it, rbar, obj, power, status, iters, asr):
        self.iters.append(int(it))
        self.rbar.append(float(rbar))
        self.awsmse_obj.append(float(obj))
        self.power.append(float(power))
        self.solver_status.append(str(status))
        self.solver_iters.append(int(iters))
        self.asr_audit.append(float(asr))

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


def initialize(scheme, h_est, p_t, alpha, common=True):
    """Construct a starting precoder from the channel estimate.

    scheme is one of 'zf-svd', 'zf-e', 'mf-svd', 'mf-e' (case
    insensitive): private directions from zero forcing or matched
    filtering, common direction from the dominant left singular vector
    of the estimate or the first standard basis vector. common = False
    drops the common column and splits the full budget over the private
    ones (broadcast-only starting point).
    """
    scheme = scheme.lower()
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}")
    h_est = np.asarray(h_est)
    n_t, k = h_est.shape
    if common:
        pow_c, pow_p = dof_power_split(p_t, alpha, k)
    else:
        if not p_t > 0:
            raise ValueError("p_t must be positive")
        pow_c, pow_p = 0.0, p_t / k

    dirs = zf_directions(h_est) if scheme.startswith("zf") else mf_directions(h_est)
    p = np.zeros((n_t, k + 1), dtype=complex)
    p[:, 1:] = math.sqrt(pow_p) * dirs
    if common and pow_c > 0.0:
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
        False pins the common column to zero and drops its constraints
        (broadcast-only variant of the same machinery).

    Returns
    -------
    (p, trace) : final precoder and the full AoTrace. trace.stop_reason
    is 'converged' or 'n_max'; at n_max p is the better of the last
    update and its extrapolation. Inner-solver failures propagate; an inner
    MaxIter status is tolerated and visible in the trace.
    """
    p = initialize(params.init_scheme, h_est, cfg.p_t, cfg.alpha, common=common)
    asr = average_rates(sample, p, cfg.sigma_n2).asr
    trace = AoTrace()
    rbar_prev = 0.0
    p_prev = None
    beta = 1.0
    stop = "n_max"
    sol = None
    for n in range(1, params.n_max + 1):
        gw = update_blocks(sample, p, cfg.sigma_n2)
        comps = accumulate_components(sample, gw)
        # at zero common power v_c is exactly zero, so this holds for both modes
        rbar = float(np.min(comps.v_c) + np.sum(comps.v_p))

        q = qcqp.build(comps, cfg.sigma_n2, cfg.p_t, include_common=common)
        sol = qcqp.solve(
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
        )
        if abs(rbar - rbar_prev) < params.epsilon_r:
            p = p_new
            stop = "converged"
            break
        rbar_prev = rbar

        # The objective after this update is at least k+1 - ASR(p_new), and
        # the next one at most k+1 - ASR(next p), so accepting only a higher
        # ASR keeps the descent. Zero columns stay zero under extrapolation.
        p, asr = p_new, average_rates(sample, p_new, cfg.sigma_n2).asr
        if n >= EXTRAPOLATE_FROM:
            p_try = p_new + beta * (p_new - p_prev)
            power = precoder_power(p_try)
            if power > cfg.p_t:
                p_try *= math.sqrt(cfg.p_t / power)
            asr_try = average_rates(sample, p_try, cfg.sigma_n2).asr
            if asr_try > asr:
                p, asr = p_try, asr_try
                beta *= 1.5
            else:
                beta = 1.0
        p_prev = p_new
    trace.stop_reason = stop
    return p, trace
