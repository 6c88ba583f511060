"""Exception types shared across the package."""


class CdgError(Exception):
    """Base class for all library errors."""


class InvalidCdgError(CdgError):
    """Raised when an event stream fails validation at construction time."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class MalformedStreamError(CdgError, ValueError):
    """JSON-lines input breaks the wire format; names the line and the field.

    Also a ``ValueError``, as the parser's errors were before it was typed.
    """

    def __init__(self, line, field, problem):
        self.line = line
        self.field = field
        where = f"line {line}" if field is None else f"line {line}, field {field!r}"
        super().__init__(f"{where}: {problem}")


class MalformedManifestError(CdgError, ValueError):
    """A corpus manifest is not JSON or breaks its schema; names the field (also a ValueError)."""

    def __init__(self, path, field, problem):
        self.field = field
        where = path if field is None else f"{path}, field {field!r}"
        super().__init__(f"{where}: {problem}")


class EmptyInputError(CdgError):
    """An operation that needs at least one graph was given none."""


class AddExistingError(CdgError):
    """Add event targets a node or edge that is already present."""


class DeleteMissingError(CdgError):
    """Delete event targets a node or edge that is not present."""


class AttrChangeMissingError(CdgError):
    """Attribute-change event targets a node or edge that is not present."""


class EdgeEndpointMissingError(CdgError):
    """Edge addition references an endpoint that is not present."""


class UnknownTimestampError(CdgError):
    """Replay was asked for a time that is not a timestamp of the stream."""


class TooLargeError(CdgError):
    """Instance exceeds the size guard of an exhaustive-search oracle."""


class TimestampMismatchError(CdgError):
    """Compared dynamic graphs have different timestamp counts."""


class DimensionMismatchError(CdgError):
    """Compared dynamic graphs have different attribute dimensions."""


class LengthMismatchError(CdgError):
    """A stream has more intervals than a per-interval model has cells."""


class InvalidBoundError(CdgError, ValueError):
    """A depth or node bound out of range (a ``ValueError`` too)."""


class GenerationExhaustedError(CdgError):
    """A generator config can never satisfy its constraints (raised before any draw)."""


class TargetNotCutRespectingError(CdgError):
    """Training target assigns unequal outputs to equal trajectory prefixes."""


class MalformedTargetError(CdgError, ValueError):
    """A target table, read from JSON or built in code, breaks its schema; names the field."""

    def __init__(self, field, problem):
        self.field = field
        where = "target" if field is None else f"target field {field!r}"
        super().__init__(f"{where}: {problem}")


class TargetUndefinedError(CdgError, KeyError):
    """A target has no value (and no default) for a live trajectory prefix.

    Also a ``KeyError``, as the lookup's error was before it was typed, but
    printed unquoted, as every other ``CdgError`` is.
    """

    __str__ = CdgError.__str__
