"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so raise the most specific
class that applies.
"""


class FlowidsError(Exception):
    """Base class for all package errors."""


class DimensionError(FlowidsError):
    """Tensor shapes incompatible with the requested operation."""


class ContractError(FlowidsError):
    """An API precondition was violated (e.g. non-scalar loss)."""


class ConfigError(FlowidsError):
    """Invalid or inconsistent configuration values."""


class SchemaError(FlowidsError):
    """Dataset columns do not match the expected schema."""


class DataError(FlowidsError):
    """Malformed data content (bad cells, bad labels, empty inputs)."""


class MetricUndefinedError(DataError):
    """A metric has no defined value for the given inputs."""


class NumericError(FlowidsError):
    """Non-finite values encountered during training."""


class IncompatibilityError(FlowidsError):
    """A checkpoint cannot be used as asked (an unsupported format version, input of the wrong shape)."""


class VersionError(IncompatibilityError):
    """Checkpoint format version is not supported."""


class IntegrityError(FlowidsError):
    """Checkpoint file is corrupt or truncated."""
