"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish configuration problems from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed or used with invalid settings."""


class OntologyError(ReproError):
    """Raised for unknown semantic types or malformed ontology definitions."""


class TableError(ReproError):
    """Raised for malformed tables (ragged rows, duplicate columns, ...)."""


class ColumnNotFoundError(TableError):
    """Raised when a column is looked up by a name that does not exist."""

    def __init__(self, column_name: str, available: list[str] | None = None):
        self.column_name = column_name
        self.available = list(available or [])
        message = f"column {column_name!r} not found"
        if self.available:
            message += f" (available: {', '.join(self.available)})"
        super().__init__(message)


class PipelineError(ReproError):
    """Raised when the prediction pipeline is misconfigured or fails."""


class ModelNotTrainedError(ReproError):
    """Raised when inference is requested from a model that was never fit."""


class FeedbackError(ReproError):
    """Raised for invalid user-feedback events in the DPBD subsystem."""


class LabelingFunctionError(ReproError):
    """Raised when a labeling function cannot be constructed or applied."""


class CorpusError(ReproError):
    """Raised by the synthetic corpus generators for invalid parameters."""


class SerializationError(ReproError):
    """Raised when tables or models cannot be serialized or deserialized."""


class ServingError(ReproError):
    """Raised by the serving layer (backends, transports, async service, pool)."""


class DeadlineExceededError(ServingError):
    """Raised when a request's latency budget expires before it completes.

    The request was *accepted* but could not be served in time: it either
    aged out while queued (the worker discards it without running the
    cascade) or the client stopped waiting.  Distinct from
    :class:`OverloadedError`, which refuses work up front.
    """


class OverloadedError(ServingError):
    """Raised when admission control sheds a request instead of queueing it.

    Shedding is an explicit, immediate refusal — the alternative is an
    unbounded queue whose every occupant eventually misses its deadline.
    :attr:`retry_after` tells the client how many seconds to back off before
    retrying (mapped to HTTP 429 + ``Retry-After`` by the front end).
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        self.retry_after = max(0.0, float(retry_after))
        super().__init__(message)


class ShutdownError(ServingError):
    """Raised for requests hard-cancelled by a shutdown drain deadline.

    A bounded drain (``shutdown(drain_timeout=...)``) that expires fails
    every still-pending request with this error instead of leaving its
    caller awaiting a future that will never resolve.
    """
