"""Exception types raised by the library.

Every domain error derives from :class:`BicomplexError` so callers can catch
the whole family at once; the CLI maps them onto exit codes.
"""


class BicomplexError(Exception):
    """Base class for all domain errors.

    ``component`` is the idempotent component (1 or 2) an error is about, and
    ``witness`` a point that shows it; both are None when they do not apply.
    """

    def __init__(self, *args, component=None, witness=None):
        super().__init__(*args)
        self.component = component
        self.witness = witness


class ZeroError(BicomplexError):
    """Inversion of the zero element."""


class NullConeError(BicomplexError):
    """Inversion of a nonzero zero divisor (exactly one idempotent component zero)."""


class EmptySetError(BicomplexError):
    """sup/inf requested over an empty collection."""


class NonPositiveBoundError(BicomplexError):
    """Boundedness query with a bound that is not strictly positive."""


class DimensionMismatch(BicomplexError):
    """Operands have incompatible dimensions."""


class ConstantComponentError(BicomplexError):
    """A functional is identically zero in one idempotent component."""


class EmptyInputError(BicomplexError):
    """An operation that needs at least one point received none."""


class NotACoverError(BicomplexError):
    """The given rectangles do not cover the bounding rectangle.

    ``witness`` is an uncovered hyperbolic point.
    """


class NotAbsorbingError(BicomplexError):
    """The origin is not interior to both components of the set."""


class MembershipError(BicomplexError):
    """A designated base point does not belong to its set."""


class DominationError(BicomplexError):
    """g exceeds the gauge somewhere on its subspace."""


class DegenerateBasisError(BicomplexError):
    """A supplied basis is linearly dependent in some component."""


class NotDisjointError(BicomplexError):
    """Two sets meet in some idempotent component.

    ``component`` is 1 or 2; ``witness`` is a point of the intersection.
    """


class NotOpenError(BicomplexError):
    """The first set of a strict separation problem is not open."""


class EmptyInteriorError(BicomplexError):
    """An open set has a lower-dimensional component, whose interior is empty.

    ``component`` is 1 or 2.
    """


class ZeroDivisorLevelError(BicomplexError):
    """A hyperplane level with a zero idempotent component."""


class DegenerateFunctionalError(BicomplexError):
    """A functional whose coefficient vector vanishes in some component."""


class DegenerateVarietyError(BicomplexError):
    """The variety base point already lies in the span of its direction basis."""


class EmptyFamilyError(BicomplexError):
    """A uniform bound requested for an empty family of maps."""


class NotSurjectiveError(BicomplexError):
    """A map is not surjective in some component (``component`` identifies it)."""


class NotBijectiveError(BicomplexError):
    """A square map is singular in some component."""


class NotAGraphError(BicomplexError):
    """A submodule of BC^n x BC^m is not the graph of a map over BC^n."""


class SchemaError(BicomplexError):
    """A JSON document does not match the expected shape."""


class LPError(BicomplexError):
    """Raised by the LP core for malformed programs."""


class LPUnboundedError(LPError):
    """The linear program is unbounded in the optimization direction."""
