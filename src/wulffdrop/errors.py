"""Exception types raised by the library.

Every error derives from :class:`WulffDropError` so callers can catch the
whole family at once.  Validation-style errors also derive from ``ValueError``
so they behave sensibly in generic code.
"""


class WulffDropError(Exception):
    """Base class for all library errors."""


class DegeneratePoint(WulffDropError, ValueError):
    """Partial derivatives requested at the degenerate point (0, 0)."""


class DimensionUnsupported(WulffDropError, ValueError):
    """Slice dimension outside the supported range {1, 2}."""


class InvalidTension(WulffDropError, ValueError):
    """Tension document or family parameter outside its valid range."""


class InvalidInput(WulffDropError, ValueError):
    """Malformed input file (sliced-set document, profile CSV), size
    argument, mass, or a body built for another tension than the input's."""


class OmegaOutOfRange(WulffDropError, ValueError):
    """Contact coefficient outside (-phi(0,1), phi(0,-1))."""


class OmegaOutOfGraphRange(OmegaOutOfRange):
    """Contact coefficient outside the graph regime (-phi(0,1), 0)."""


class IndexOutOfRange(WulffDropError, IndexError):
    """Slab index outside the knot range."""


class EmptySlice(WulffDropError, ValueError):
    """Slice measure vanishes where a positive measure is required."""


class EmptyBase(WulffDropError, ValueError):
    """Contact radius vanishes; Young's condition is undefined."""


class NoBracket(WulffDropError, RuntimeError):
    """A scan failed to bracket the target value."""


class HypothesisViolated(WulffDropError, ValueError):
    """Competitor construction hypotheses fail for the given interval."""


class DegenerateRadius(WulffDropError, ValueError):
    """Euler-Lagrange residual requested where the radius vanishes."""


class StalledInversion(WulffDropError, RuntimeError):
    """Slope recovery could not bracket the monotone inversion."""


class OutOfRange(WulffDropError, ValueError):
    """Queried coordinate outside the trajectory range."""


class NonConvergence(WulffDropError, RuntimeError):
    """Iteration budget exhausted before the tolerances were met.

    The best iterate found so far is attached as ``state``.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
