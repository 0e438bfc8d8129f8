"""Capacity bounds.

All bounds are configuration, not hard constants: these module attributes
can be adjusted for a whole process, and each is read at its one check, so
tests that drive a search past a bound patch the attribute. No function
takes a bound per call.

A lattice's size is not bounded here: each join/meet row is one `bytes`,
so `lattices.FinDLat` holds at most 256 elements by its row format, and
every lattice constructor refuses a larger one with CapacityError.
"""

# Largest poset size enumerate_posets / gen_corpus accept by default.
MAX_POSET_SIZE = 6

# Upset families larger than this (i.e. 2**size) are refused: by
# `upset_masks`, and by `Poset.from_doc` before the poset is built.
MAX_UPSET_FAMILY = 1 << 16

# Searches whose raw space exceeds this are refused: monotone maps p -> q
# (|q|^|p|), frame homs L -> M counted on the dual side (|J(L)|^|J(M)|),
# the orderings a poset's canonical form tries (the product, over its colour
# classes, of |class|! / ∏ |twin group|!), and the size² order pairs of a
# poset built by a `Poset` constructor.
MAX_SEARCH_SPACE = 1 << 20

# The proper/coherent hom sweep pairs a lattice with corpus lattices having
# at most this many join-irreducibles (and never more than the lattice's own
# count). Bounds the quadratic blowup of the corpus-wide hom enumeration.
PROPER_COHERENT_IRREDUCIBLE_CAP = 3
