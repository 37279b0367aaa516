"""Exception types shared across the package."""


class JmbeamError(Exception):
    """Base class for all package-specific errors."""


class NotPsd(JmbeamError):
    """A matrix required to be positive semidefinite has a significantly
    negative pivot, a zero pivot over a nonzero column, or a non-finite entry."""


class RankDeficient(JmbeamError):
    """A channel-estimate matrix does not have full column rank, so
    zero-forcing directions are undefined."""


class ZeroChannel(JmbeamError):
    """A user's channel vector is exactly zero; matched directions are
    undefined."""


class DegenerateMmse(JmbeamError):
    """An MMSE value underflowed to (numerically) zero: a signal power
    is some 1e300 times the unit noise, which no finite SNR of the
    experiments reaches."""


class NumericalBreakdown(JmbeamError):
    """A computation broke down numerically: the receive powers of a
    precoder are not finite (receivers._batch_powers), the precoder
    update's dual is not finite at any start (qcqp.solve), or the
    reference cone interior-point kernel (jmbeam.socp) could not
    factorize its Newton system even after regularization."""


class ConfigError(JmbeamError):
    """An experiment configuration is malformed (unknown keys, wrong
    types, or out-of-range values)."""
