"""Symbolic complete chains: the infinite witnesses for the frame predicates.

A chain frame is a word of blocks between an implicit global bottom and top:

  fin:k   k isolated points in a row (k >= 1)
  omega   an increasing sequence x0 < x1 < ... whose supremum lies outside
  dense   a completed dense interval; only exact rationals in (0, 1) are
          ever constructed, but the predicates depend only on block-level
          limit structure, so no irrational needs a representation

Normal form merges adjacent fin blocks and adjacent dense blocks. The
supremum of an omega or dense block is a distinct symbolic element unless
the following block is omega (then it is that block's first point) or the
block is last (then it is the global top). The empty word is the two-element
chain; the one-element chain (bottom = top) is carried by a dedicated flag.

Every element is either isolated or a limit, decidable from the block word
alone; the way-below relation and all frame predicates reduce to closed
forms over that split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NormalizationError, UnknownPredicate
from .lattices import FinDLat
from .posets import _require_row_width

CHAIN_PREDICATES = (
    "compactFrame",
    "continuous",
    "algebraic",
    "arithmetic",
    "coherent",
    "stablyContinuous",
    "stablyCompact",
    "regular",
    "zeroDimensional",
    "stone",
)

FIN, OMEGA, DENSE = "fin", "omega", "dense"


@dataclass(frozen=True)
class ChainElt:
    """One symbolic chain element; build via the ChainFrame constructors."""

    kind: str  # "bot" | "top" | "coord" | "sup"
    block: int | None = None
    coord: object = None

    def __repr__(self):
        if self.kind == "coord":
            return f"ChainElt({self.block}, {self.coord})"
        if self.kind == "sup":
            return f"ChainElt(sup {self.block})"
        return f"ChainElt({self.kind})"


class ChainFrame:
    """A complete chain presented by its block word."""

    __slots__ = ("blocks", "degenerate")

    def __init__(self, blocks=(), degenerate=False):
        if degenerate and blocks:
            raise NormalizationError("the one-element chain has no blocks")
        normalized = []
        for b in blocks:
            b = _check_block(b)
            if normalized:
                prev = normalized[-1]
                if prev[0] == FIN and b[0] == FIN:
                    normalized[-1] = (FIN, prev[1] + b[1])
                    continue
                if prev[0] == DENSE and b[0] == DENSE:
                    continue
            normalized.append(b)
        self.blocks = tuple(normalized)
        self.degenerate = degenerate

    @classmethod
    def trivial(cls):
        return cls((), degenerate=True)

    # -- element constructors (normalizing) ---------------------------------

    def bottom(self):
        return ChainElt("bot")

    def top(self):
        if self.degenerate:
            return ChainElt("bot")
        return ChainElt("top")

    def coord(self, block, value):
        if self.degenerate or not 0 <= block < len(self.blocks):
            raise NormalizationError(f"no block {block} in this chain")
        kind = self.blocks[block][0]
        if kind == FIN:
            size = self.blocks[block][1]
            if type(value) is not int or not 0 <= value < size:
                raise NormalizationError(
                    f"fin block {block} has coordinates 0..{size - 1}"
                )
        elif kind == OMEGA:
            if type(value) is not int or value < 0:
                raise NormalizationError("omega coordinates are naturals")
        else:
            value = Fraction(value)
            if not 0 < value < 1:
                raise NormalizationError(
                    "dense coordinates are rationals strictly between 0 and 1"
                )
        return ChainElt("coord", block, value)

    def block_sup(self, block):
        """The least upper bound of an omega or dense block, normalized."""
        if self.degenerate or not 0 <= block < len(self.blocks):
            raise NormalizationError(f"no block {block} in this chain")
        if self.blocks[block][0] == FIN:
            raise NormalizationError("fin blocks contain their greatest element")
        if block == len(self.blocks) - 1:
            return self.top()
        if self.blocks[block + 1][0] == OMEGA:
            return self.coord(block + 1, 0)
        return ChainElt("sup", block)

    def check(self, x):
        """Validate that x is a normal-form element of this chain."""
        if not isinstance(x, ChainElt):
            raise NormalizationError("not a chain element")
        if self.degenerate:
            if x.kind != "bot":
                raise NormalizationError("the one-element chain only has its bottom")
            return x
        if x.kind in ("bot", "top"):
            return x
        if x.kind == "coord":
            rebuilt = self.coord(x.block, x.coord)
            if rebuilt != x:
                raise NormalizationError("coordinate not in normal form")
            return x
        if x.kind == "sup":
            if self.block_sup(x.block) != x:
                raise NormalizationError(
                    f"sup of block {x.block} normalizes away; use block_sup"
                )
            return x
        raise NormalizationError(f"unknown element kind {x.kind!r}")

    # -- presentation ---------------------------------------------------------

    def spec_string(self):
        if self.degenerate:
            return "one"
        if not self.blocks:
            return "two"
        return "+".join(
            f"fin:{b[1]}" if b[0] == FIN else b[0] for b in self.blocks
        )

    def to_doc(self):
        doc = {"chain": [f"fin:{b[1]}" if b[0] == FIN else b[0] for b in self.blocks]}
        if self.degenerate:
            doc["degenerate"] = True
        return doc

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict) or "chain" not in doc:
            raise ValueError("not a chain document")
        tokens, degenerate = doc["chain"], doc.get("degenerate", False)
        if not isinstance(tokens, list):
            raise ValueError(f"chain {tokens!r} is not a list of block tokens")
        if not isinstance(degenerate, bool):
            raise ValueError(f"degenerate flag {degenerate!r} is not a bool")
        return cls([_parse_token(t) for t in tokens], degenerate=degenerate)

    def __eq__(self, other):
        return (
            isinstance(other, ChainFrame)
            and other.blocks == self.blocks
            and other.degenerate == self.degenerate
        )

    def __hash__(self):
        return hash((self.blocks, self.degenerate))

    def __repr__(self):
        return f"ChainFrame({self.spec_string()!r})"


def _check_block(b):
    if isinstance(b, tuple):
        if b[0] == FIN:
            if len(b) != 2 or type(b[1]) is not int or b[1] < 1:
                raise NormalizationError("fin blocks need a size of at least 1")
            return (FIN, b[1])
        if b == (OMEGA,) or b == (DENSE,):
            return b
    raise NormalizationError(f"malformed block {b!r}")


def _parse_token(token):
    if token == OMEGA:
        return (OMEGA,)
    if token == DENSE:
        return (DENSE,)
    if isinstance(token, str) and token.startswith("fin:"):
        try:
            k = int(token[4:])
        except ValueError:
            raise NormalizationError(f"malformed block token {token!r}") from None
        return (FIN, k)
    raise NormalizationError(f"malformed block token {token!r}")


def parse_chain(spec):
    """Parse CLI chain syntax: 'fin:3+omega+dense', or 'one' / 'two'. A spec
    that is not a str raises ValueError."""
    if not isinstance(spec, str):
        raise ValueError(f"chain spec {spec!r} is not a str")
    spec = spec.strip()
    if spec == "one":
        return ChainFrame.trivial()
    if spec in ("two", ""):
        return ChainFrame(())
    return ChainFrame([_parse_token(t.strip()) for t in spec.split("+")])


# -- comparison, meet, join -----------------------------------------------------


def _position_key(chain, x):
    if x.kind == "bot":
        return (-1, 0)
    if x.kind == "top":
        return (2 * len(chain.blocks), 0)
    if x.kind == "coord":
        return (2 * x.block, x.coord)
    return (2 * x.block + 1, 0)


def cmp(chain, x, y):
    """Total comparison: -1, 0, or 1."""
    chain.check(x)
    chain.check(y)
    a, b = _position_key(chain, x), _position_key(chain, y)
    return (a > b) - (a < b)


def chain_join(chain, elements):
    """Join of finitely many elements; the empty join is the bottom."""
    out = chain.bottom()
    for x in elements:
        if cmp(chain, x, out) > 0:
            out = x
    return out


def chain_meet(chain, elements):
    """Meet of finitely many elements; the empty meet is the top."""
    out = chain.top()
    for x in elements:
        if cmp(chain, x, out) < 0:
            out = x
    return out


# -- limit structure ---------------------------------------------------------------


def is_limit(chain, x):
    """x is the supremum of the strictly smaller elements.

    Closed form over the block word; the global bottom (the empty
    supremum) does not count as a limit.
    """
    chain.check(x)
    if x.kind == "bot":
        return False
    if x.kind == "top":
        return bool(chain.blocks) and chain.blocks[-1][0] in (OMEGA, DENSE)
    if x.kind == "sup":
        return True
    kind = chain.blocks[x.block][0]
    if kind == FIN:
        return False
    if kind == DENSE:
        return True
    # omega coordinate: the first point absorbs a preceding block's sup
    if x.coord > 0:
        return False
    return x.block > 0 and chain.blocks[x.block - 1][0] in (OMEGA, DENSE)


def has_predecessor(chain, x):
    chain.check(x)
    return x.kind != "bot" and not is_limit(chain, x)


# -- way below -----------------------------------------------------------------------


def chain_way_below(chain, a, b):
    """a << b on a chain: a <= b when b is isolated, a < b when b is a limit."""
    c = cmp(chain, a, b)
    return c < 0 if is_limit(chain, b) else c <= 0


# -- predicates ------------------------------------------------------------------------


def chain_predicate(chain, name):
    """Closed-form frame predicates over the block word.

    Derivations: the top is compact iff it is not a limit; every chain is
    continuous and has stable way-below (meet is minimum); compact elements
    are exactly the isolated ones, so the chain is algebraic iff no dense
    block occurs; pseudocomplements are trivial in a chain (a* is 1 for the
    bottom and 0 otherwise), so regularity/zero-dimensionality force at most
    two elements.
    """
    if name not in CHAIN_PREDICATES:
        raise UnknownPredicate(f"unknown chain predicate {name!r}")
    if name == "compactFrame":
        return not is_limit(chain, chain.top())
    if name in ("continuous", "stablyContinuous"):
        return True
    if name == "algebraic" or name == "arithmetic":
        return all(b[0] != DENSE for b in chain.blocks)
    if name == "coherent":
        return chain_predicate(chain, "algebraic") and chain_predicate(
            chain, "compactFrame"
        )
    if name == "stablyCompact":
        return chain_predicate(chain, "compactFrame")
    # regular / zeroDimensional / stone
    return chain.degenerate or not chain.blocks


# -- finite materialization ------------------------------------------------------------


def chain_size(chain):
    """Number of elements, or None when infinite."""
    if chain.degenerate:
        return 1
    if any(b[0] != FIN for b in chain.blocks):
        return None
    return 2 + sum(b[1] for b in chain.blocks)


def element_index(chain, x):
    """Position of an element of an all-fin chain, bottom = 0."""
    size = chain_size(chain)
    if size is None:
        raise NormalizationError("infinite chains have no element indexing")
    chain.check(x)
    if x.kind == "bot":
        return 0
    if x.kind == "top":
        return size - 1
    offset = 1 + sum(chain.blocks[i][1] for i in range(x.block))
    return offset + x.coord


def all_elements(chain):
    """Every element of a finite (all-fin) chain, in order. A chain of more
    than 256 elements, which does not materialize, raises CapacityError."""
    size = chain_size(chain)
    if size is None:
        raise NormalizationError("infinite chains cannot be listed")
    _require_row_width(size)
    if chain.degenerate:
        return [chain.bottom()]
    out = [chain.bottom()]
    for i, b in enumerate(chain.blocks):
        out.extend(chain.coord(i, c) for c in range(b[1]))
    out.append(chain.top())
    return out


def materialize(chain):
    """The finite chain lattice of an all-fin chain."""
    size = chain_size(chain)
    if size is None:
        raise NormalizationError("only all-fin chains materialize to a lattice")
    return FinDLat.chain(size)


def sample_elements(chain):
    """A representative finite sample: bounds, block coordinates, retained sups.

    An omega block contributes its first three coordinates and a dense block
    the rationals 1/4, 1/2 and 2/3; a repeat is kept where first seen. Over
    256 candidates, repeats counted, raise CapacityError before any is built.
    """
    _require_row_width(2 + sum(b[1] if b[0] == FIN else 4 for b in chain.blocks))
    out = [chain.bottom(), chain.top()]
    for i, b in enumerate(chain.blocks):
        if b[0] == FIN:
            out.extend(chain.coord(i, c) for c in range(b[1]))
        elif b[0] == OMEGA:
            out.extend(chain.coord(i, c) for c in range(3))
        else:
            out.extend(
                chain.coord(i, q) for q in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3))
            )
        if b[0] in (OMEGA, DENSE):
            out.append(chain.block_sup(i))
    return list(dict.fromkeys(out))


# -- the witness fixtures ----------------------------------------------------------------


def figure_fixtures():
    """The five chains that keep the predicate hierarchy's inclusions strict,
    as (spec, chain) pairs parsed from the specs of `FIXTURE_MATRIX`."""
    return [(name, parse_chain(name)) for name in FIXTURE_MATRIX]


# Expected predicate matrix for the fixtures, frozen row by row:
#   two          all classes (it is a Stone frame)
#   fin:3        coherent but not Stone
#   omega        arithmetic/algebraic but not coherent (top is a limit)
#   dense+fin:1  stably compact but not algebraic
#   dense        stably continuous but not stably compact
FIXTURE_MATRIX = {
    "two": {
        "compactFrame": True,
        "continuous": True,
        "algebraic": True,
        "arithmetic": True,
        "coherent": True,
        "stablyContinuous": True,
        "stablyCompact": True,
        "regular": True,
        "zeroDimensional": True,
        "stone": True,
    },
    "fin:3": {
        "compactFrame": True,
        "continuous": True,
        "algebraic": True,
        "arithmetic": True,
        "coherent": True,
        "stablyContinuous": True,
        "stablyCompact": True,
        "regular": False,
        "zeroDimensional": False,
        "stone": False,
    },
    "omega": {
        "compactFrame": False,
        "continuous": True,
        "algebraic": True,
        "arithmetic": True,
        "coherent": False,
        "stablyContinuous": True,
        "stablyCompact": False,
        "regular": False,
        "zeroDimensional": False,
        "stone": False,
    },
    "dense+fin:1": {
        "compactFrame": True,
        "continuous": True,
        "algebraic": False,
        "arithmetic": False,
        "coherent": False,
        "stablyContinuous": True,
        "stablyCompact": True,
        "regular": False,
        "zeroDimensional": False,
        "stone": False,
    },
    "dense": {
        "compactFrame": False,
        "continuous": True,
        "algebraic": False,
        "arithmetic": False,
        "coherent": False,
        "stablyContinuous": True,
        "stablyCompact": False,
        "regular": False,
        "zeroDimensional": False,
        "stone": False,
    },
}
