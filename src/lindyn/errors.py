"""Error types shared across the toolkit.

Every failure mode callers are expected to branch on gets its own class with
a stable ``code`` string, so CLI reports and tests can match on codes rather
than message text.
"""

from __future__ import annotations


class LindynError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


class KindMismatch(LindynError):
    """Operator applied to a vector of the wrong kind or norm tag."""

    code = "KIND_MISMATCH"


class NonFinite(LindynError, ValueError):
    """Coordinates are inf or nan, as an overflowing orbit leaves them."""

    code = "NON_FINITE"


class NotInvertible(LindynError):
    code = "NOT_INVERTIBLE"


class NoConvergence(LindynError):
    code = "NO_CONVERGENCE"


class NonContracting(LindynError):
    """Observed step ratio exceeded the declared contraction bound."""

    code = "NON_CONTRACTING"


class CircleEigenvalue(LindynError):
    """An eigenvalue sits within tolerance of the unit circle."""

    code = "CIRCLE_EIGENVALUE"


class InvalidSplitting(LindynError):
    """Supplied splitting is not invariant in the required directions."""

    code = "INVALID_SPLITTING"


class HypothesisFailed(LindynError):
    """A named hypothesis of a certified check does not hold."""

    code = "HYPOTHESIS_FAILED"


class NotCertified(LindynError):
    """Requested certificate could not be established."""

    code = "NOT_CERTIFIED"


class RankDeficient(NotCertified, ValueError):
    """Stacked A_n without full column rank, as rounding leaves them beside entries of 1e209."""


class NotContraction(LindynError):
    """Perturbation too large for the contraction-based construction."""

    code = "NOT_CONTRACTION"


class TrajectoryBudget(LindynError):
    code = "TRAJECTORY_BUDGET"


class NotHomoclinic(LindynError):
    code = "NOT_HOMOCLINIC"


class NotAChain(LindynError):
    """A point sequence fails its chain tolerance; carries the first bad index."""

    code = "NOT_A_CHAIN"


class CannotSeparate(LindynError):
    """Visit schedule cannot fit inside the step budget."""

    code = "CANNOT_SEPARATE"


class BadFactor(LindynError):
    code = "BAD_FACTOR"


class NotContractiveSpectrum(LindynError):
    code = "NOT_CONTRACTIVE_SPECTRUM"


class ConfigInvalid(LindynError):
    """Scenario configuration rejected; carries a location path."""

    code = "CONFIG_INVALID"


class ReportIOError(LindynError):
    code = "IO_ERROR"
