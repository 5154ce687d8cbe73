"""Exception types shared across the package."""


class DynamarkError(Exception):
    """Base class for all errors raised by this package."""


class DecodeError(DynamarkError):
    """Audio file could not be read or is not supported PCM WAV."""


class EmptyInputError(DynamarkError):
    """Input contains no usable data (zero-length audio, empty split)."""


class ConfigError(DynamarkError):
    """A configuration value is invalid or inconsistent with the data."""


class ShapeError(DynamarkError):
    """Tensor or array shapes are incompatible for the requested op."""


class GraphReleasedError(DynamarkError):
    """``backward`` reached a graph node that an earlier pass released."""


class SchemaError(DynamarkError):
    """An annotation or report file violates its documented schema."""


class CheckpointError(DynamarkError):
    """Checkpoint file is corrupt, truncated, or has a wrong version."""


class TrainingError(DynamarkError):
    """Training aborted (non-finite gradients, empty split)."""
