"""Exception hierarchy shared by the whole toolkit.

Each class carries the process exit code the CLI maps it to, so library
code raises the most specific class and the CLI never needs a lookup
table.
"""


class PanfuseError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class UsageError(PanfuseError):
    """Invalid argument or parameter (bad ratio, unknown method, ...)."""

    exit_code = 2


class ParameterError(UsageError, ValueError):
    """Integer, real, choice or array input (ratio, weight, mode, raster data) breaking its rule."""


class ShapeMismatchError(PanfuseError):
    """Raster dimensions incompatible with each other or an operation."""

    exit_code = 3


class DegenerateInputError(PanfuseError):
    """Numerically degenerate input (zero variance, singular system, ...)."""

    exit_code = 4


class RasterShapeError(ShapeMismatchError, ValueError):
    """Array cannot be a raster: not 2-D or 3-D, or an empty dimension."""


class NonFiniteRasterError(DegenerateInputError, ValueError):
    """Raster data, or a loss or metric under the floating-point rule, overflowed or is NaN."""


class RasterIOError(PanfuseError):
    """File-level failure while reading or writing toolkit formats."""

    exit_code = 5


class MissingFileError(RasterIOError):
    """Input file does not exist."""


class MagicError(RasterIOError):
    """File does not start with the expected format magic."""


class HeaderError(RasterIOError):
    """File header is malformed or internally inconsistent."""


class PayloadSizeError(RasterIOError):
    """Payload length disagrees with the dimensions declared in the header."""


class NonFiniteDataError(RasterIOError):
    """Payload contains NaN or infinite values."""
