"""framelab: finite distributive lattices, Priestley spaces, chain frames.

A workbench for the order-theoretic side of pointfree topology on finite
carriers: exhaustive poset enumeration, Birkhoff representation, the
way-below / well-inside operator suite, Priestley-space operator calculus
(kernel, core, regular part, center, spatial part), symbolic complete chains
as infinite witnesses, and per-theorem validators run over a generated corpus.

Every set of points is an int mask, bit i for point i; there is no set
class. A finite Priestley space is the `Poset` of its points, and a map of
spaces is a `MonotoneMap`; it and `lattices.LatticeHom` share one checked
base, `posets.PointwiseMap`. The space operators (`spaces.kernel`, `core`,
`reg_part`, `center`) take and return upset masks and raise ValueError on a
mask that is not an upset of the space or has a bit outside its points.
"""

from .errors import (
    CapacityError,
    ConsistencyError,
    CycleError,
    DistributivityError,
    FrameLabError,
    IsoFailure,
    NormalizationError,
    NotFrameHom,
    NotLatticeError,
    UnknownPredicate,
)
from .posets import MonotoneMap, Poset, enumerate_posets, monotone_maps

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "CycleError",
    "DistributivityError",
    "FrameLabError",
    "IsoFailure",
    "NormalizationError",
    "NotFrameHom",
    "NotLatticeError",
    "UnknownPredicate",
    "MonotoneMap",
    "Poset",
    "enumerate_posets",
    "monotone_maps",
]
