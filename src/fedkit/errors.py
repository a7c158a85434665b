"""Exception hierarchy shared across the package."""


class FedkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FedkitError):
    """Vector or mask lengths do not agree."""


class NumericError(FedkitError):
    """A value that must be finite is NaN or infinite."""


class DomainError(FedkitError):
    """A value lies outside its permitted domain (e.g. a non-binary mask entry)."""


class ConfigError(FedkitError):
    """A configuration value or file is invalid."""


class EmptyAggregationError(FedkitError):
    """Aggregation was requested over zero updates."""


class ProtocolError(FedkitError):
    """A wire frame or message violates the protocol; the connection must be dropped."""


class EncodeError(FedkitError):
    """A message cannot be serialized (non-finite values, oversized payload)."""


class CheckpointError(FedkitError):
    """A checkpoint file is missing, corrupt, or belongs to a different config."""


class StartupError(FedkitError):
    """No client joined the federation within the startup timeout."""


class ReportError(FedkitError):
    """A metrics report is empty, incomplete, or inconsistent."""


class IoError(FedkitError):
    """An unrecoverable filesystem failure (checkpoint or report write)."""


class ExperimentAborted(FedkitError):
    """The experiment was aborted (quorum lost or round timeout under wait)."""
