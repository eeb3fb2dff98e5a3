"""Exception taxonomy.

Three families, matching the CLI exit codes: ``ScenarioError`` for bad
simulation configs (exit 2), ``DataError`` for input data that violates the
counting-process contract (exit 3), and ``NumericError`` for fitting or
weighting failures (exit 4).
"""


class DataError(Exception):
    """Input data violates the counting-process contract."""


class MalformedRow(DataError):
    """A CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class NonContiguousEpisodes(DataError):
    """A subject's episodes leave a gap or overlap."""


class NegativeTime(DataError):
    """An episode carries a negative start or stop time."""


class UnknownCovariate(DataError):
    """A covariate appears in the data but not in the schema."""


class NoObservationsAnywhere(DataError):
    """A time-dependent covariate has no observed value for any subject."""


class ProfileIncomplete(DataError):
    """A prediction profile misses a covariate required by the model."""


class DesignMismatch(DataError):
    """The requested strategy needs follow-up the dataset does not carry."""


class NoEvents(DataError):
    """No episode carries the requested event code."""


class NoTreatmentStarts(DataError):
    """No subject ever starts treatment; a treatment-hazard model cannot be fit."""


class NumericError(Exception):
    """A model fit or weight computation failed numerically."""


class MonotoneLikelihood(NumericError):
    """A coefficient diverges: the partial likelihood has no interior maximum."""


class SingularInformation(NumericError):
    """The observed information matrix cannot be used for a Newton step."""


class ConvergenceFailure(NumericError):
    """Newton-Raphson did not converge within the iteration budget."""


class NonPositiveProbability(NumericError):
    """A survival probability underflowed to zero inside a weight ratio."""


class InvalidCurve(NumericError):
    """A step-function curve breaks its ordering, range or monotonicity
    invariant."""


class ScenarioError(Exception):
    """A simulation scenario config is malformed."""


class InvalidIntensity(ScenarioError):
    """A transition intensity is negative or non-finite."""


class PositivityWarning(UserWarning):
    """No untreated person-time remains at risk before the requested horizon."""
