"""Exception types shared across the package."""


class FrameLabError(Exception):
    """Base class for all framelab errors; a failed check puts the
    counterexample it found in `witness`, which is None otherwise."""

    def __init__(self, *args, witness=None):
        super().__init__(*args)
        self.witness = witness


class CycleError(FrameLabError):
    """The transitive closure of a cover relation violates antisymmetry."""


class CapacityError(FrameLabError):
    """An enumeration would exceed a configured size bound."""


class NotLatticeError(FrameLabError):
    """A presented order is missing a least upper or greatest lower bound."""


class DistributivityError(FrameLabError):
    """A lattice failed the distributive law; carries a witness triple."""


class UnknownPredicate(FrameLabError):
    """A predicate name outside the supported set was requested."""


class NotFrameHom(FrameLabError):
    """Dualization was asked for a map that is not a frame homomorphism."""


class NormalizationError(FrameLabError):
    """A chain element or block word is malformed or not in normal form."""


class IsoFailure(FrameLabError):
    """A round-trip isomorphism check failed; carries a counterexample."""


class ConsistencyError(FrameLabError):
    """Two implementations of the same operation disagreed.

    Raised when the join-irreducible dual space of a distributive lattice
    disagrees with the prime-filter oracle, when `dualize_hom` meets a
    preimage that is not a prime filter, and when a pseudocomplement fails
    a ∧ a* = 0 (a lattice that is not distributive). On distributive input,
    firing indicates an implementation bug.
    """
