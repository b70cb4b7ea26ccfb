"""Exception types shared across the package."""


class HamcolorError(Exception):
    """Base class for all package-specific errors."""


class NotATreeError(HamcolorError):
    """Edge list does not describe a connected acyclic graph."""


class BadVertexIdError(HamcolorError):
    """Vertex id outside 0..n-1, or otherwise malformed."""


class BadParamsError(HamcolorError):
    """Family generator or solver parameters out of range."""


class NotApplicableError(HamcolorError):
    """Operation requires order >= 4 and maximum degree >= 3."""


class NotAPermutationError(HamcolorError):
    """Ordering is not a permutation of the vertex ids."""


class SearchFailedError(HamcolorError):
    """The greedy ordering failed certification (not a proof that no ordering
    passes); raised only by ``families.family_certificate``."""


class IncompleteColoringError(HamcolorError):
    """Coloring does not assign a color to every vertex."""


class NegativeColorError(HamcolorError):
    """Colors must be non-negative integers."""


class TooLargeError(HamcolorError):
    """Exact search too deep for the recursive kernel: its first dive would
    pass the interpreter's recursion limit."""


class FormatError(HamcolorError):
    """Malformed tree, ordering or coloring text."""


class InternalError(HamcolorError):
    """An internal invariant failed, e.g. a produced ordering failed its own
    certification; indicates a bug."""
