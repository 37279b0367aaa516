"""Exception types shared across the package."""


class JmbeamError(Exception):
    """Base class for all package-specific errors."""


class NotPsd(JmbeamError):
    """A matrix required to be positive semidefinite has a significantly
    negative pivot."""


class RankDeficient(JmbeamError):
    """A channel-estimate matrix does not have full column rank, so
    zero-forcing directions are undefined."""


class ZeroChannel(JmbeamError):
    """A user's channel vector is exactly zero; matched directions are
    undefined."""


class DegenerateMmse(JmbeamError):
    """An MMSE value underflowed to (numerically) zero, which the noise
    model rules out; usually means sigma_n2 was set to ~0."""


class NumericalBreakdown(JmbeamError):
    """The cone interior-point kernel (jmbeam.socp, a reference solver
    off the precoder-update path) could not factorize its Newton system
    even after regularization."""


class ConfigError(JmbeamError):
    """An experiment configuration is malformed (unknown keys, wrong
    types, or out-of-range values)."""
