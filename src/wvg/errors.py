"""Exception types raised across the package."""


class WvgError(Exception):
    """Base class for every domain error this package raises."""


class InvalidGameError(WvgError):
    """A game violates a construction invariant or cannot be parsed."""


class InvalidCoalitionError(WvgError):
    """A coalition references unknown players or breaks a precondition."""


class InvalidSplitError(WvgError):
    """A split specification is inconsistent with the target player."""


class InvalidMergeError(WvgError):
    """A merge specification is empty or self-referential."""


class InvalidConfigError(WvgError):
    """Sampling or experiment parameters are out of range."""


class DegenerateNormalizationError(WvgError):
    """Every raw estimate was zero; increase samples or use the exact engine."""


class ResourceLimitError(WvgError):
    """Exact work too large to run: a counting table over ``exact.TABLE_BITS_LIMIT``
    bits, enumeration above ``exact.DEFAULT_ENUMERATION_LIMIT`` players, or a
    split scan over ``manipulation.CANDIDATE_LIMIT`` candidates."""


class BoundViolationError(WvgError):
    """A proven bound failed on concrete data; this always indicates a bug."""
