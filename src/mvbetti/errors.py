"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input text.  Carries 1-based line (and optional field) info."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f"line {line}" if column is None else f"line {line}, field {column}"
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """A structurally invalid mathematical object; `entry`, if given, locates the defect."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class CapExceededError(RuntimeError):
    """More hyperplanes than the cap on those given to `count_flats` and the poset sweep."""

    def __init__(self, r, cap):
        super().__init__(
            f"arrangement has {r} hyperplanes, more than the cap of {cap} on those "
            "given to count_flats and the poset sweep"
        )


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    This means an assumption the pipeline relies on (row exactness, the
    position of each surviving entry, which implies degeneration, oracle
    agreement) was violated for the given input; it is always reported
    loudly, never swallowed.
    """
