"""Exception types shared across the package."""


class DrowsyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DrowsyError):
    """Invalid configuration (unknown landmark scheme, non-positive durations, ...)."""


class GeometryError(DrowsyError):
    """Degenerate or overflowing landmark geometry; signals corrupt input.

    Coincident corners, and finite coordinates so far apart that a ratio or
    its mean leaves float range.
    """


class NoDataError(DrowsyError):
    """A value was requested from a container holding nothing."""


class PerclosUndefinedError(DrowsyError):
    """PERCLOS queried on a window with no attributable monitored time."""


class CalibrationError(DrowsyError):
    """Calibration failed: insufficient samples, insufficient duration, or no face."""


class StreamOrderError(DrowsyError):
    """Frame timestamps are not strictly increasing."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class MissingLabelError(DrowsyError):
    """External-classifier mode has no state for a face-present frame timestamp."""

    def __init__(self, t: float):
        super().__init__(f"no external state for frame at t={t:.3f}")
        self.t = t


class ParseError(DrowsyError):
    """A serialized line or document could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class VersionError(ParseError):
    """A file declares an unsupported format_version."""


class ScriptError(DrowsyError):
    """A synthetic session script fails validation."""


class EvalError(DrowsyError):
    """Evaluation inputs are misaligned or a metric is undefined (empty matrix)."""
