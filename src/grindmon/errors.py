"""Exception types raised across the grindmon package."""


class GrindmonError(Exception):
    """Base class for all grindmon errors."""


# --- trace parsing / assembly ---

class MalformedHeader(GrindmonError):
    """Trace CSV does not start with the expected header line."""


class NonNumericField(GrindmonError):
    """A data row contains a field that does not parse as a number."""

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"non-numeric field at data row {row}")


class NonMonotoneTime(GrindmonError):
    """Sample times are not strictly increasing."""

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"time not strictly increasing at data row {row}")


class InvalidValue(GrindmonError):
    """A parsed value is NaN or infinite; sensor data is never imputed."""

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"non-finite value at data row {row}")


class TooFewSamples(GrindmonError):
    """A trace needs at least two samples."""


class BadResampleLength(GrindmonError):
    """Resample length must be at least 2."""


class UnscorableTrace(GrindmonError):
    """A matrix given to score_matrix holds a NaN or an entry beyond POWER_LIMIT."""


class EmptyCampaign(GrindmonError):
    """A campaign manifest with no entries cannot be assembled."""


class ManifestError(GrindmonError):
    """Manifest file violates its format or ordering invariants."""


class CampaignFileError(GrindmonError):
    """A manifest or trace file failed to load; the message names its path."""

    def __init__(self, path, cause: Exception):
        self.path = str(path)
        self.cause = cause
        super().__init__(f"{path}: {cause}")


# --- statistical core ---

class InsufficientObservations(GrindmonError):
    """Fitting needs at least two observations."""


class BadComponentCount(GrindmonError):
    """Requested component count or variance target is out of range."""


class DimensionMismatch(GrindmonError):
    """Input vector length does not match the fitted model."""


class DegenerateClasses(GrindmonError):
    """Discriminant fitting needs two classes with at least two members each."""


class SingularWithinScatter(GrindmonError):
    """Pooled within-class scatter is singular even after regularization."""


class ZeroDirection(GrindmonError):
    """A projection direction must be nonzero."""


# --- model persistence / monitoring ---

class VersionMismatch(GrindmonError):
    """Model file declares an unsupported format version or unknown fields."""


class SchemaError(GrindmonError):
    """Model file is structurally invalid."""

    def __init__(self, path: str, message: str = ""):
        self.path = path
        super().__init__(message or f"schema error at {path}")


class CorruptModel(GrindmonError):
    """Model file parsed but its contents are internally inconsistent."""
