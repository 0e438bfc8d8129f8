"""Standing mutation score: run tier-1 against a fixed list of seeded bugs.

Usage: python3 tools/mutation_score.py

Each mutant is one exact source edit: an anchor text and its replacement in
one file. The anchor must occur exactly once in the file, or the script
exits 2 before running anything. Every mutant is applied to a fresh copy of
`src/` and `tests/` (with `pyproject.toml`, which holds the pytest settings)
in a temporary directory, and tier-1 runs there with `-x -q`. A mutant is
killed when that run fails, and survives when it passes.

Every mutant also records the outcome it is expected to have. The script
prints each outcome, then how many mutants were killed and which survived,
and exits 1 when any outcome differs from the expected one. A surviving
mutant that is expected to survive is a known gap in the checks: on a
finite space the kernel and the core of every clopen upset are the upset
itself, so no finite test tells either operator from the identity.

The list holds 97 mutants. 95 are expected to be killed, and two,
`core-identity` and `kernel-identity`, to survive for that reason. The
point-space predicate `compactlyBased` has no kernel and so no mutant: each
open o is itself a compact open inside o, so the predicate holds on every
family of opens and returns `(True, None)` outright, as `compact` does.
Nor has `spaces.map_predicate`'s choice between the kernel (properL) and
the core (coherentL): on a finite space both are the identity, so reading
one for the other changes no result. Nor has the order of the parts of a
composite frame predicate (`lattices._CONJUNCTIONS`): `compactFrame` is
true on every finite lattice, so no test can see which part fails first.
The single-key shortcut of `Poset._canonicalize` is widened to four
orderings, not two, because a search over exactly two cannot occur: two
points alone in a stable color class, with every other point alone in its
own, have the same covers and so are twins.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    anchor: str
    replacement: str
    expected: str  # "killed" or "survived"


MUTANTS = (
    Mutant(
        "core-identity",
        "src/framelab/spaces.py",
        "    scott = clop_scott_upset_masks(space)\n"
        "    return tuple(_union_inside(scott, um) for um in clop_upset_masks(space))\n",
        "    return clop_upset_masks(space)\n",
        "survived",
    ),
    Mutant(
        "kernel-identity",
        "src/framelab/spaces.py",
        "    return tuple(_union_inside(ups, _upsets_above_meet(ups, um, full)) for um in ups)\n",
        "    return ups\n",
        "survived",
    ),
    Mutant(
        "properHom-true",
        "src/framelab/lattices.py",
        "        if small:\n"
        '            codes = _pair_codes(b"".join(wb_a_of(cols)), b"".join(wb_b_of(cols)))\n'
        "            proper = 0 not in codes.translate(tgt_wb)\n"
        "        else:\n"
        '            mask = int.from_bytes(src_wb * k, "big")\n'
        '            below = b"".join([t.translate(tgt_wb[x]) for t in rows for x in t])\n'
        '            proper = int.from_bytes(below, "big") & mask == mask\n',
        "",
        "killed",
    ),
    Mutant(
        "pair-codes-without-x16",
        "src/framelab/lattices.py",
        'int.from_bytes(high, "big") << 4',
        'int.from_bytes(high, "big")',
        "killed",
    ),
    Mutant(
        "byte-kernel-threshold-17",
        "src/framelab/lattices.py",
        "16 if lattice.size <= 16 else 256",
        "16 if lattice.size <= 17 else 256",
        "killed",
    ),
    Mutant(
        "lattice-hom-skips-meets",
        "src/framelab/lattices.py",
        '\n            and codes.translate(tgt_meet) == b"".join(meet_of(cols))',
        "",
        "killed",
    ),
    Mutant(
        "coherent-kernel-deletes-source-compacts",
        "src/framelab/lattices.py",
        ".translate(None, tgt_compacts)",
        ".translate(None, bytes(compact_elements(source)))",
        "killed",
    ),
    Mutant(
        "lattice-hom-trusted-by-default",
        "src/framelab/posets.py",
        "        for v in image:\n"
        "            _require_element(target, v)\n",
        "",
        "killed",
    ),
    Mutant(
        "pointwise-map-entries-checked-by-range-only",
        "src/framelab/posets.py",
        "            _require_element(target, v)\n",
        "            if not 0 <= v < target.size:\n"
        '                raise ValueError(f"{v!r} is not an element of 0..{target.size - 1}")\n',
        "killed",
    ),
    Mutant(
        "byte-images-for-9-points",
        "src/framelab/lattices.py",
        "if w <= 8:",
        "if w <= 9:",
        "killed",
    ),
    Mutant(
        "hom-tables-read-the-source-byte-tables",
        "src/framelab/lattices.py",
        "= _target_tables(target)",
        "= _target_tables(source)",
        "killed",
    ),
    Mutant(
        "frame-hom-ignores-the-pair-scan",
        "src/framelab/lattices.py",
        "frame_hom = lattice_hom and (cols[source.bottom]",
        "frame_hom = (cols[source.bottom]",
        "killed",
    ),
    Mutant(
        "coherent-hom-skips-its-frame-guard",
        "src/framelab/lattices.py",
        "    coherent = proper = frame_hom\n"
        "    if frame_hom:\n"
        '        compacts = b"".join(compact_of(cols))\n'
        "        coherent = not compacts.translate(None, tgt_compacts)\n",
        "    proper = frame_hom\n"
        '    compacts = b"".join(compact_of(cols))\n'
        "    coherent = not compacts.translate(None, tgt_compacts)\n"
        "    if frame_hom:\n",
        "killed",
    ),
    Mutant(
        "decide-flags-skips-the-split",
        "src/framelab/lattices.py",
        "    if k > 1 and not (coherent and proper):\n"
        "        return [_decide_flags(source, target, [row])[0] for row in rows]\n",
        "",
        "killed",
    ),
    Mutant(
        "enumerate-homs-decides-before-it-sorts",
        "src/framelab/lattices.py",
        "    rows = sorted([images[i:i + n] for i in range(0, len(images), n)])\n"
        "    new, homs = object.__new__, []\n"
        "    for image, flags in zip(map(tuple, rows), _decide_flags(source, target, rows)):\n",
        "    rows = [images[i:i + n] for i in range(0, len(images), n)]\n"
        "    decided = _decide_flags(source, target, rows)\n"
        "    rows.sort()\n"
        "    new, homs = object.__new__, []\n"
        "    for image, flags in zip(map(tuple, rows), decided):\n",
        "killed",
    ),
    Mutant(
        "lattice-constructor-without-row-width",
        "src/framelab/lattices.py",
        "        self.size = _require_row_width(carrier.size)\n",
        "        self.size = carrier.size\n",
        "killed",
    ),
    Mutant(
        "large-target-batch-checks-only-the-first-hom",
        "src/framelab/lattices.py",
        'b"".join([src_join.translate(table) for table in tables])\n'
        '            == b"".join([t.translate(tgt_join[x]) for t in rows for x in t])\n'
        '            and b"".join([src_meet.translate(table) for table in tables])\n'
        '            == b"".join([t.translate(tgt_meet[x]) for t in rows for x in t])\n',
        'src_join.translate(tables[0])\n'
        '            == b"".join([rows[0].translate(tgt_join[x]) for x in rows[0]])\n'
        '            and src_meet.translate(tables[0])\n'
        '            == b"".join([rows[0].translate(tgt_meet[x]) for x in rows[0]])\n',
        "killed",
    ),
    Mutant(
        "large-target-lattice-hom-skips-meets",
        "src/framelab/lattices.py",
        '\n            and b"".join([src_meet.translate(table) for table in tables])\n'
        '            == b"".join([t.translate(tgt_meet[x]) for t in rows for x in t])',
        "",
        "killed",
    ),
    Mutant(
        "large-target-way-below-mask-covers-one-row",
        "src/framelab/lattices.py",
        'mask = int.from_bytes(src_wb * k, "big")',
        'mask = int.from_bytes(src_wb, "big")',
        "killed",
    ),
    Mutant(
        "image-columns-read-at-the-wrong-stride",
        "src/framelab/lattices.py",
        "cols = [images[a::n] for a in range(n)]",
        "cols = [images[a::n + 1] for a in range(n)]",
        "killed",
    ),
    Mutant(
        "point-space-opens-unchecked",
        "src/framelab/spaces.py",
        "                if a | b not in opens or a & b not in opens:",
        "                if False:",
        "killed",
    ),
    Mutant(
        "point-space-opens-without-the-bounds",
        "src/framelab/spaces.py",
        "if 0 not in opens or full not in opens or any(o & ~full for o in opens):",
        "if False:",
        "killed",
    ),
    Mutant(
        "join-irreducibles-via-prime-filters",
        "src/framelab/lattices.py",
        "if _fold_join(lattice, bits(lattice.down[j] & ~(1 << j))) != j",
        "if lattice.up[j] in prime_filters(lattice)",
        "killed",
    ),
    Mutant(
        "dual-space-without-oracle",
        "src/framelab/duality.py",
        "    _check_against_oracle(record, prime_filters(lattice))\n",
        "",
        "killed",
    ),
    Mutant(
        "bits-tables-stop-at-7",
        "src/framelab/posets.py",
        "while len(tables) < 8 and",
        "while len(tables) < 7 and",
        "killed",
    ),
    Mutant(
        "corpus-entry-shape-unchecked",
        "src/framelab/corpus.py",
        'if not isinstance(item, dict) or "id" not in item or "poset" not in item:',
        "if False:",
        "killed",
    ),
    Mutant(
        "poset-covers-unchecked",
        "src/framelab/posets.py",
        "if not isinstance(covers, list):",
        "if False:",
        "killed",
    ),
    Mutant(
        "poset-cover-pairs-unchecked",
        "src/framelab/posets.py",
        "if not (isinstance(p, (list, tuple)) and len(p) == 2",
        "if False and not (isinstance(p, (list, tuple)) and len(p) == 2",
        "killed",
    ),
    Mutant(
        "lattice-row-width-257",
        "src/framelab/posets.py",
        "    if n > 256:\n",
        "    if n > 257:\n",
        "killed",
    ),
    Mutant(
        "upset-family-unbounded",
        "src/framelab/posets.py",
        "        _require_row_width(len(rows))\n",
        "",
        "killed",
    ),
    Mutant(
        "upset-family-refuses-256",
        "src/framelab/posets.py",
        "_require_row_width(len(rows))",
        "_require_row_width(len(rows) + 1)",
        "killed",
    ),
    Mutant(
        "upset-mask-range-unchecked",
        "src/framelab/spaces.py",
        "    if mask & ~space.full_mask:\n",
        "    if False:\n",
        "killed",
    ),
    Mutant(
        "content-id-hashes-the-carrier",
        "src/framelab/duality.py",
        "    if lattice.is_distributive():\n        return poset_content_id(join_irreducible_poset",
        "    return poset_content_id(lattice.carrier_poset())\n"
        "    if lattice.is_distributive():\n        return poset_content_id(join_irreducible_poset",
        "killed",
    ),
    Mutant(
        "corpus-entry-repeats-accepted",
        "src/framelab/corpus.py",
        'if item["id"] in seen:',
        "if False:",
        "killed",
    ),
    Mutant(
        "corpus-entry-size-unchecked",
        "src/framelab/corpus.py",
        "if poset.size > config.MAX_POSET_SIZE:",
        "if False:",
        "killed",
    ),
    Mutant(
        "poset-rows-without-closure-test",
        "src/framelab/posets.py",
        "rows += [row | (1 << j) for row in rows if not above & ~row]",
        "rows += [row | (1 << j) for row in rows]",
        "killed",
    ),
    Mutant(
        "twins-keyed-on-up-sets-only",
        "src/framelab/posets.py",
        "twins.setdefault(keys[i], [])",
        "twins.setdefault(keys[i][0], [])",
        "killed",
    ),
    Mutant(
        "heights-read-from-the-up-rows",
        "src/framelab/posets.py",
        "below = down[i] ^ (1 << i)",
        "below = self.up[i] ^ (1 << i)",
        "killed",
    ),
    Mutant(
        "twin-stop-keyed-on-up-sets-only",
        "src/framelab/posets.py",
        "if keys and len(set(keys)) > count:",
        "if keys and len({k[0] for k in keys}) > count:",
        "killed",
    ),
    Mutant(
        "enumeration-down-rows-not-undone",
        "src/framelab/posets.py",
        "            for j in above:\n                down[j] ^= bit\n",
        "",
        "killed",
    ),
    Mutant(
        "refinement-stops-one-class-short-of-discrete",
        "src/framelab/posets.py",
        "        while count < n:\n",
        "        while count < n - 1:\n",
        "killed",
    ),
    Mutant(
        "single-key-shortcut-at-four-orderings",
        "src/framelab/posets.py",
        "        if space == 1:\n",
        "        if space <= 4:\n",
        "killed",
    ),
    Mutant(
        "regular-well-inside-swapped",
        "src/framelab/lattices.py",
        'stars.translate(lattice.join[a].ljust(256, b"\\0")).translate(is_top)',
        "lattice.join[stars[a]].translate(is_top)",
        "killed",
    ),
    Mutant(
        "arithmetic-inside-missing-last",
        "src/framelab/lattices.py",
        'inside = row.ljust(256, b"\\0")',
        'inside = row[:above[-1]].ljust(256, b"\\0")',
        "killed",
    ),
    Mutant(
        "hausdorff-union-of-meeting-opens",
        "src/framelab/spaces.py",
        "            if u & v == 0:\n                apart |= v\n",
        "            if u & v:\n                apart |= v\n",
        "killed",
    ),
    Mutant(
        "spatial-keys-ignore-the-filter",
        "src/framelab/lattices.py",
        "keys = transpose(prime_filters(lattice), n)",
        "keys = [min(k, 1) for k in transpose(prime_filters(lattice), n)]",
        "killed",
    ),
    Mutant(
        "pseudocomplement-checks-every-element",
        "src/framelab/lattices.py",
        "    return _checked_star(lattice, a, _pseudocomplement_joins(lattice)[a])\n",
        "    return _pseudocomplements(lattice)[a]\n",
        "killed",
    ),
    Mutant(
        "lattice-doc-size-unchecked",
        "src/framelab/lattices.py",
        "if type(size) is not int or not isinstance(pairs, list):",
        "if False:",
        "killed",
    ),
    Mutant(
        "poset-doc-size-accepts-bool",
        "src/framelab/posets.py",
        "if type(size) is not int or size < 0:",
        "if not isinstance(size, int) or size < 0:",
        "killed",
    ),
    Mutant(
        "lattice-doc-pair-accepts-bool",
        "src/framelab/posets.py",
        "all(type(x) is int and 0 <= x < size for x in p)",
        "all(isinstance(x, int) and 0 <= x < size for x in p)",
        "killed",
    ),
    Mutant(
        "corpus-manifest-count-unchecked",
        "src/framelab/corpus.py",
        "if type(count) is not int or count != len(entries):",
        "if False:",
        "killed",
    ),
    Mutant(
        "corpus-manifest-max-size-unchecked",
        "src/framelab/corpus.py",
        "if type(max_size) is not int or max_size < largest:",
        "if False:",
        "killed",
    ),
    Mutant(
        "dual-space-mismatch-skips-distributivity",
        "src/framelab/duality.py",
        "        lattice.require_distributive()\n",
        "",
        "killed",
    ),
    Mutant(
        "poset-constructors-unbounded",
        "src/framelab/posets.py",
        "\n    if n * n > config.MAX_SEARCH_SPACE:",
        "\n    if False:",
        "killed",
    ),
    Mutant(
        "extreme-of-takes-a-member-whose-row-lies-inside",
        "src/framelab/lattices.py",
        "if mask & ~rows[u] == 0:",
        "if rows[u] & ~mask == 0:",
        "killed",
    ),
    Mutant(
        "join-sweep-asks-only-for-a-bound",
        "src/framelab/lattices.py",
        "if _fold_join(lattice, below(a)) != a:",
        "if not lattice.leq(_fold_join(lattice, below(a)), a):",
        "killed",
    ),
    Mutant(
        "chain-sample-unbounded",
        "src/framelab/chains.py",
        "    _require_row_width(2 + sum(b[1] if b[0] == FIN else 4 for b in chain.blocks))\n",
        "",
        "killed",
    ),
    Mutant(
        "chain-listing-unbounded",
        "src/framelab/chains.py",
        "    _require_row_width(size)\n",
        "",
        "killed",
    ),
    Mutant(
        "size-accepts-bool",
        "src/framelab/posets.py",
        "if type(n) is not int or n < 0:",
        "if not isinstance(n, int) or n < 0:",
        "killed",
    ),
    Mutant(
        "algebraic-mask-drops-the-last-compact",
        "src/framelab/lattices.py",
        "compact = sum(1 << a for a in compact_elements(lattice))",
        "compact = sum(1 << a for a in compact_elements(lattice)[:-1])",
        "killed",
    ),
    Mutant(
        "statement-loop-compares-two-sides",
        "src/framelab/duality.py",
        "if sides.count(sides[0]) != len(sides):",
        "if sides[1] != sides[0]:",
        "killed",
    ),
    Mutant(
        "algebraic-validator-mask-drops-the-last-compact",
        "src/framelab/duality.py",
        "    joins = _compact_joins(lattice)\n",
        "    from .lattices import _fold_join, compact_elements\n"
        "    compact = sum(1 << b for b in compact_elements(lattice)[:-1])\n"
        "    joins = [_fold_join(lattice, bits(compact & down)) for down in lattice.down]\n",
        "killed",
    ),
    Mutant(
        "irreducible-closed-sets-count-the-set-itself",
        "src/framelab/spaces.py",
        "for a in closed[i + 1:]:",
        "for a in closed[i:]:",
        "killed",
    ),
    Mutant(
        "irreducible-closed-sets-skip-the-next-set",
        "src/framelab/spaces.py",
        "for a in closed[i + 1:]:",
        "for a in closed[i + 2:]:",
        "killed",
    ),
    Mutant(
        "scott-extensions-s4-tests-upsets-inside-u",
        "src/framelab/duality.py",
        "            elif v | ker_m == ker_m:\n",
        "            if v | ker_m == ker_m:\n",
        "killed",
    ),
    Mutant(
        "scott-stable-skips-adjacent-pairs",
        "src/framelab/posets.py",
        "rest = family[i + 1:]",
        "rest = family[i + 2:]",
        "killed",
    ),
    Mutant(
        "scott-stable-row-reads-the-join-table",
        "src/framelab/duality.py",
        "unclosed_rows(clop_scott_upset_masks(space), (AND,))",
        "unclosed_rows(clop_scott_upset_masks(space), (OR,))",
        "killed",
    ),
    Mutant(
        "unclosed-rows-skip-the-next-member",
        "src/framelab/posets.py",
        "rest, tables = later[i + 1:]",
        "rest, tables = later[i + 2:]",
        "killed",
    ),
    Mutant(
        "point-space-row-tests-joins-only",
        "src/framelab/spaces.py",
        "unclosed_rows(self.opens, (AND, OR))",
        "unclosed_rows(self.opens, (OR,))",
        "killed",
    ),
    Mutant(
        "kernel-stable-row-skips-the-next-upset",
        "src/framelab/spaces.py",
        "ups_bytes[i + 1:].translate(byte_ops(um)[AND]).translate(kernel_of)\n"
        "                      == ker_bytes[i + 1:]",
        "ups_bytes[i + 2:].translate(byte_ops(um)[AND]).translate(kernel_of)\n"
        "                      == ker_bytes[i + 2:]",
        "killed",
    ),
    Mutant(
        "arithmetic-row-reads-only-the-first-b",
        "src/framelab/lattices.py",
        "map(meet.__getitem__, above)).translate(inside) == row * len(above)",
        "map(meet.__getitem__, above[:1])).translate(inside) == row",
        "killed",
    ),
    Mutant(
        "pseudocomplement-row-unchecked",
        "src/framelab/lattices.py",
        "    return bytes(_checked_star(lattice, a, star)\n"
        "                 for a, star in enumerate(_pseudocomplement_joins(lattice)))\n",
        "    return _pseudocomplement_joins(lattice)\n",
        "killed",
    ),
    Mutant(
        "leq-accepts-a-non-element",
        "src/framelab/lattices.py",
        "        _require_element(self, a)\n        _require_element(self, b)\n",
        "",
        "killed",
    ),
    Mutant(
        "poset-leq-accepts-a-non-point",
        "src/framelab/posets.py",
        "        _require_element(self, i)\n        _require_element(self, j)\n",
        "",
        "killed",
    ),
    Mutant(
        "way-below-bytes-read-the-highest-digit-first",
        "src/framelab/lattices.py",
        "bin(row)[:1:-1]",
        "bin(row)[2:]",
        "killed",
    ),
    Mutant(
        "way-below-getter-columns-swapped",
        "src/framelab/lattices.py",
        "        bytes(chain.from_iterable(repeat(a, len(row)) for a, row in enumerate(above))),\n"
        "        bytes(chain.from_iterable(above)),\n",
        "        bytes(chain.from_iterable(above)),\n"
        "        bytes(chain.from_iterable(repeat(a, len(row)) for a, row in enumerate(above))),\n",
        "killed",
    ),
    Mutant(
        "join-of-accepts-a-non-element",
        "src/framelab/lattices.py",
        "        for a in elements:\n            _require_element(self, a)\n",
        "",
        "killed",
    ),
    Mutant(
        "point-closure-accepts-a-non-point",
        "src/framelab/spaces.py",
        "        _require_element(self.poset, y)\n",
        "",
        "killed",
    ),
    Mutant(
        "sober-needs-only-some-generic-point",
        "src/framelab/spaces.py",
        "if closures.count(c) != 1:",
        "if closures.count(c) < 1:",
        "killed",
    ),
    Mutant(
        "chain-fin-size-accepts-bool",
        "src/framelab/chains.py",
        "type(b[1]) is not int",
        "not isinstance(b[1], int)",
        "killed",
    ),
    Mutant(
        "chain-omega-coordinate-accepts-bool",
        "src/framelab/chains.py",
        "if type(value) is not int or value < 0:",
        "if not isinstance(value, int) or value < 0:",
        "killed",
    ),
    Mutant(
        "poset-transitivity-unchecked",
        "src/framelab/posets.py",
        "                if self.up[j] & ~m:\n"
        '                    raise ValueError(f"relation is not transitive at {i} <= {j}")\n',
        "",
        "killed",
    ),
    Mutant(
        "lattice-declared-top-unchecked",
        "src/framelab/lattices.py",
        "if top is not None and top != tp:",
        "if False:",
        "killed",
    ),
    Mutant(
        "dual-space-point-order-reversed",
        "src/framelab/lattices.py",
        "up[pos[j]] |= 1 << pos[i]",
        "up[pos[i]] |= 1 << pos[j]",
        "killed",
    ),
    Mutant(
        "dual-space-stone-map-drops-point-0",
        "src/framelab/duality.py",
        "transpose(filters, lattice.size)",
        "tuple(m & ~1 for m in transpose(filters, lattice.size))",
        "killed",
    ),
    Mutant(
        "canonical-copy-seeds-the-input-rows",
        "src/framelab/posets.py",
        "copy._memo[Poset._canonicalize] = rows",
        "copy._memo[Poset._canonicalize] = self.up",
        "killed",
    ),
    Mutant(
        "canonical-self-return-compares-one-row",
        "src/framelab/posets.py",
        "if rows == self.up:",
        "if rows[:1] == self.up[:1]:",
        "killed",
    ),
    Mutant(
        "prime-filters-skip-the-filter-test",
        "src/framelab/lattices.py",
        "if f in principal",
        "if f",
        "killed",
    ),
    Mutant(
        "ideals-read-from-up-rows",
        "src/framelab/lattices.py",
        "return tuple(sorted(lattice.down))",
        "return tuple(sorted(lattice.up))",
        "killed",
    ),
    Mutant(
        "birkhoff-join-takes-the-lowest-set-bit",
        "src/framelab/lattices.py",
        "        for m in lin:\n"
        "            if u >> m & 1:\n"
        "                break\n",
        "        m = (u & -u).bit_length() - 1\n",
        "killed",
    ),
    Mutant(
        "birkhoff-meet-takes-a-minimal-point-outside",
        "src/framelab/lattices.py",
        "        for m in top_first:\n",
        "        for m in lin:\n",
        "killed",
    ),
    Mutant(
        "birkhoff-down-rows-keep-the-point",
        "src/framelab/lattices.py",
        "down[i] = down[rest] & ~contains[m]",
        "down[i] = down[rest]",
        "killed",
    ),
    Mutant(
        "upset-generator-admits-points-without-their-up-sets",
        "src/framelab/posets.py",
        "masks = _upset_rows([m ^ (1 << j) for j, m in enumerate(up)], order)",
        "masks = _upset_rows([0] * len(up), order)",
        "killed",
    ),
    Mutant(
        "continuous-density-sweep-reads-the-core-table",
        "src/framelab/spaces.py",
        "return _density_sweep(ups, _kernel_table(space))",
        "return _density_sweep(ups, _core_table(space))",
        "killed",
    ),
    Mutant(
        "scott-upsets-skip-the-minimal-point-test",
        "src/framelab/spaces.py",
        "return tuple(m for m in clop_upset_masks(space) if _minimal_points_spatial(space, m))",
        "return clop_upset_masks(space)",
        "killed",
    ),
    Mutant(
        "memo-ignores-argument",
        "src/framelab/posets.py",
        "            if arg not in table:\n"
        "                table[arg] = fn(obj, arg)\n"
        "            return table[arg]\n",
        "            if None not in table:\n"
        "                table[None] = fn(obj, arg)\n"
        "            return table[None]\n",
        "killed",
    ),
    Mutant(
        "memo-shared-across-objects",
        "src/framelab/posets.py",
        "            memo = obj._memo\n",
        '            memo = globals().setdefault("_SHARED_MEMO", {})\n',
        "killed",
    ),
)


def check_anchors(mutants, root):
    """Raise ValueError unless every anchor occurs exactly once in its file."""
    for m in mutants:
        count = (root / m.path).read_text(encoding="utf-8").count(m.anchor)
        if count != 1:
            raise ValueError(f"{m.name}: anchor found {count} times in {m.path}, not once")


def run_mutant(mutant, root):
    """Apply the edit to a temporary copy of the tree and run tier-1 there."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(root / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(root / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.anchor, mutant.replacement, 1),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {TIMEOUT_S} s"
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return ("survived" if done.returncode == 0 else "killed"), summary


def main():
    try:
        check_anchors(MUTANTS, ROOT)
    except ValueError as err:
        print(f"mutation_score: {err}", file=sys.stderr)
        return 2
    survivors, mismatches = [], []
    for m in MUTANTS:
        outcome, summary = run_mutant(m, ROOT)
        if outcome == "survived":
            survivors.append(m.name)
        if outcome != m.expected:
            mismatches.append(m.name)
        flag = "" if outcome == m.expected else f"  UNEXPECTED (expected {m.expected})"
        print(f"{m.name}: {outcome} [{summary}]{flag}", flush=True)
    print(f"killed {len(MUTANTS) - len(survivors)} of {len(MUTANTS)}; "
          f"survived: {', '.join(survivors) or 'none'}")
    if mismatches:
        print(f"unexpected outcomes: {', '.join(mismatches)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
