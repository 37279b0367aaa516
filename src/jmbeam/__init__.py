"""Sum-rate maximization for a multiuser MISO downlink with imperfect
transmitter CSI, by jointly optimizing a shared multicast precoder and
per-user private precoders.

The optimization minimizes a sample-averaged weighted sum-MSE surrogate
by alternating closed-form receiver/weight updates with a convex
quadratically constrained precoder update, solved by Newton's method on
its Lagrange dual in K+1 multipliers. The package also ships the
zero-forcing baselines and a deterministic experiment harness.
"""

from .ao import AoParams, AoTrace, dof_power_split, initialize, run_ao
from .awsmse import (
    AwmmseComponents,
    EqualizerWeightSet,
    accumulate_components,
    awmse_values,
    awsmse_objective,
    update_blocks,
)
from .baselines import WaterfillResult, jmb_zf_svd_wf, water_fill, zf_wf
from .channel import (
    ChannelDraw,
    CsitConfig,
    MonteCarloSample,
    draw_sample,
    error_variance,
    make_draw,
    substream,
)
from .errors import (
    ConfigError,
    DegenerateMmse,
    JmbeamError,
    NoConvergence,
    NotPsd,
    NumericalBreakdown,
    RankDeficient,
    ZeroChannel,
)
from .harness import (
    SCHEMES,
    EsrRecord,
    ExperimentConfig,
    run_convergence,
    run_single,
    run_sweep,
    write_detail_csv,
    write_esr_csv,
)
from .qcqp import QcqpProblem, QcqpSolution
from .receivers import average_rates, precoder_power, sum_rate

try:
    from importlib.metadata import version as _version

    __version__ = _version("jmbeam")
except Exception:  # pragma: no cover - metadata missing in odd installs
    __version__ = "0.0.0"

__all__ = [
    "AoParams",
    "AoTrace",
    "AwmmseComponents",
    "ChannelDraw",
    "ConfigError",
    "CsitConfig",
    "DegenerateMmse",
    "EqualizerWeightSet",
    "EsrRecord",
    "ExperimentConfig",
    "JmbeamError",
    "MonteCarloSample",
    "NoConvergence",
    "NotPsd",
    "NumericalBreakdown",
    "QcqpProblem",
    "QcqpSolution",
    "RankDeficient",
    "SCHEMES",
    "WaterfillResult",
    "ZeroChannel",
    "accumulate_components",
    "average_rates",
    "awmse_values",
    "awsmse_objective",
    "dof_power_split",
    "draw_sample",
    "error_variance",
    "initialize",
    "jmb_zf_svd_wf",
    "make_draw",
    "precoder_power",
    "run_ao",
    "run_convergence",
    "run_single",
    "run_sweep",
    "substream",
    "sum_rate",
    "update_blocks",
    "water_fill",
    "write_detail_csv",
    "write_esr_csv",
    "zf_wf",
]
