"""Exception types shared across the package."""


class MaskDetectError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(MaskDetectError):
    """Tensor or image dimensions do not satisfy an operation's contract."""


class ParameterError(MaskDetectError):
    """An operation argument is outside its valid range."""


class UsageError(MaskDetectError):
    """The API was called in an unsupported way (ordering, missing state)."""


class ConfigError(MaskDetectError):
    """A configuration object or file is invalid."""


class NonFiniteError(MaskDetectError):
    """Training produced a NaN or infinite loss or gradient; the message
    names the epoch, the batch and the first bad parameter."""


class InputError(MaskDetectError):
    """Data handed to an operation violates its preconditions."""


class CheckpointError(MaskDetectError):
    """A checkpoint file is malformed or incompatible with the model."""


class CascadeFormatError(MaskDetectError):
    """A cascade file (XML or JSON) is malformed; message carries the
    element path (XML) or dotted path (JSON) of the offending node."""


class PPMError(MaskDetectError):
    """A PPM stream cannot be decoded; message carries the byte offset."""


class MetricError(MaskDetectError):
    """A metric is undefined for the given inputs (e.g. empty matrix)."""
