"""Exception hierarchy.

Everything raised on purpose derives from AlbxError.  InputError covers
bad user data (curve files, expressions, cycle strings, invalid
configurations); the CLI maps it to exit code 2.  The remaining classes
flag precise mathematical failure modes so callers can react to them
individually.
"""


class AlbxError(Exception):
    pass


class InputError(AlbxError):
    """Malformed input: schema, expression syntax, cycle syntax."""


class ValidationError(InputError):
    """A curve configuration violates its invariants."""


class NonSplitError(AlbxError):
    """An operation needed a zero/pole that is not a rational point."""


class UndefinedValuationError(AlbxError):
    """Valuation of the zero function requested."""


class InsufficientTruncationError(AlbxError):
    """A coefficient beyond the stored truncation order was required."""


class NotCartierError(AlbxError):
    """Function tuple is not a unit along the singular locus."""


class DegreeError(AlbxError):
    """A divisor had nonzero degree where degree zero is required."""
