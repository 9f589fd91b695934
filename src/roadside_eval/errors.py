"""Exception types shared across the evaluation pipeline.

The CLI exits 1 on EvalError (and subclasses), ValueError, OSError and
MemoryError; any other exception is a crash, not a report.
"""


class EvalError(Exception):
    """Base class for input, configuration, and data problems."""


class SchemaError(EvalError):
    """Input file is not the wire format: not UTF-8 text, or a bad header."""


class IntegrityError(EvalError):
    """Structurally inconsistent data, e.g. duplicate (id, frame) records.

    ``records`` holds the input positions of the records in conflict, when
    known, so a caller can name their lines.
    """

    def __init__(self, message: str, records: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.records = records


class ProjectionRangeError(EvalError):
    """Point too far from the projection origin for a flat-earth plane."""


class PairingError(EvalError):
    """Latency samples cover only one travel direction."""


class InsufficientDataError(EvalError):
    """Too few usable samples for a statistically meaningful estimate."""


class ScenarioError(EvalError):
    """Requested synthetic scenario is infeasible."""


class CategoryError(EvalError):
    """Requested object category is absent from the ground truth."""
