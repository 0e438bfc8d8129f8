"""Exception types shared across the package."""


class FrameLabError(Exception):
    """Base class for all framelab errors."""


class CycleError(FrameLabError):
    """The transitive closure of a cover relation violates antisymmetry."""


class BindingError(FrameLabError):
    """A point set or map was used with a carrier it is not bound to."""


class CapacityError(FrameLabError):
    """An enumeration would exceed a configured size bound."""


class NotLatticeError(FrameLabError):
    """A presented order is missing a least upper or greatest lower bound."""


class DistributivityError(FrameLabError):
    """A lattice failed the distributive law; carries a witness triple."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownPredicate(FrameLabError):
    """A predicate name outside the supported set was requested."""


class NotFrameHom(FrameLabError):
    """Dualization was asked for a map that is not a frame homomorphism."""


class NormalizationError(FrameLabError):
    """A chain element or block word is malformed or not in normal form."""


class IsoFailure(FrameLabError):
    """A round-trip isomorphism check failed; carries a counterexample."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConsistencyError(FrameLabError):
    """Two implementations of the same operation disagreed.

    Raised by the internal dual-route assertions (prime-filter oracle vs
    join-irreducible construction, finite-collapse checks). Must never fire
    on well-formed inputs; firing indicates an implementation bug.
    """
