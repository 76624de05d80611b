"""Exception and warning types used across the package.

Everything numerical or structural that can go wrong raises a subclass of
:class:`QesError`, so callers (and the command line driver) can distinguish
"you asked for something inadmissible" from "the computation fell over".
"""


class QesError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(QesError):
    """A model parameter lies outside its admissible range."""


class DomainError(QesError):
    """A coordinate lies outside the domain of a map or potential."""


class BaselineUnsolvable(QesError):
    """The termination condition has no admissible solution for these inputs."""


class DivisionByZeroMultiplicator(QesError):
    """A leading slice multiplicator vanishes before the terminal step."""


class SigmaZero(QesError):
    """The scan variable does not actually appear in the recurrence."""


class NonPositiveLambda(QesError):
    """The canonical chain products are not all positive at any candidate
    centre, so no symmetric tridiagonal eigenproblem represents the
    constraint polynomial."""


class EigensolveFailure(QesError):
    """An eigenvalue backend returned something unusable (NaN, a failed
    convergence flag), so that a root would not be finite."""


class NotARoot(QesError):
    """A solution assembly was requested at a point that does not annihilate
    the constraint polynomial."""


class MissingDependency(QesError):
    """A package the requested command needs is not installed."""


class DegenerateGrid(QesError):
    """A sampling grid is unusable (too few points, zero extent, NaNs)."""


class SimplicityWarning(UserWarning):
    """Some roots could not be certified real and simple (two lie within
    half an ulp of one float); they are reported uncertified, not merged."""
