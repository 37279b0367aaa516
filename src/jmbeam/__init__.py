"""Sum-rate maximization for a multiuser MISO downlink with imperfect
transmitter CSI, by jointly optimizing a shared multicast precoder and
per-user private precoders.

The optimization minimizes a sample-averaged weighted sum-MSE surrogate
by alternating closed-form receiver/weight updates with a convex
quadratically constrained precoder update, solved by Newton's method on
its Lagrange dual in K+1 multipliers. The package also ships the
zero-forcing baselines and a deterministic experiment harness.
"""

from .harness import ExperimentConfig

__all__ = ["ExperimentConfig"]
