"""Exception hierarchy shared across the package.

Every error raised on a validated code path derives from ImuAlignError so
callers (and the CLI) can map failures to exit codes: validation problems
exit 2, numerical aborts exit 3.
"""


class ImuAlignError(Exception):
    """Base class for all structured errors raised by imualign."""


class ShapeMismatchError(ImuAlignError):
    """An operation received arrays whose shapes cannot be combined."""


class DataError(ImuAlignError):
    """Malformed or inconsistent input data (files, records, streams)."""


class CoverageError(DataError):
    """Required ids are missing from an anchor or label mapping."""

    def __init__(self, message: str, missing_ids=()):
        super().__init__(message)
        self.missing_ids = list(missing_ids)


class GraphError(ImuAlignError):
    """A tape/backward request that the recorded graph cannot satisfy."""


class NumericError(ImuAlignError):
    """Non-finite values where finite ones are required; aborts training."""


class FormatError(DataError):
    """A binary container that is not what its kind declares: magic, version, header or arrays."""
