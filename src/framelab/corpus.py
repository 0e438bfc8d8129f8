"""Corpus generation and its JSON form.

A corpus holds one entry per isomorphism class of posets up to a size bound,
each with its upset lattice and dual space precomputed. Entry ids are content
hashes of the canonical poset serialization, so regeneration with the same
parameters is byte-identical and reports stay diffable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import config
from .duality import poset_content_id, priestley_space_of, sha256
from .errors import CapacityError
from .lattices import birkhoff_lattice
from .posets import Poset, _check_size, enumerate_posets


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    poset: Poset
    lattice: object
    record: object

    @property
    def space(self):
        return self.record.space


@dataclass(frozen=True)
class Corpus:
    max_size: int
    entries: tuple
    manifest: dict

    def lattices(self):
        return [e.lattice for e in self.entries]

    def __len__(self):
        return len(self.entries)


def gen_corpus(max_size=5):
    """One entry per isomorphism class of posets of size 0..max_size; a
    max_size that is not an int >= 0 (a bool included) raises ValueError."""
    cap = config.MAX_POSET_SIZE
    _check_size(max_size)
    if max_size > cap:
        raise CapacityError(f"corpus size {max_size} exceeds the configured cap {cap}")
    entries = []
    for n in range(max_size + 1):
        for poset in enumerate_posets(n):
            lattice = birkhoff_lattice(poset)
            record = priestley_space_of(lattice)
            entries.append(
                CorpusEntry(poset_content_id(poset), poset, lattice, record)
            )
    manifest = {
        "max_size": max_size,
        "count": len(entries),
        "hash": _corpus_hash(entries),
    }
    return Corpus(max_size, tuple(entries), manifest)


def _corpus_hash(entries):
    payload = json.dumps(
        [e.entry_id for e in entries], separators=(",", ":")
    ).encode()
    return sha256(payload).hexdigest()[:16]


def corpus_to_json(corpus):
    doc = {
        "manifest": corpus.manifest,
        "entries": [
            {"id": e.entry_id, "poset": e.poset.to_doc()} for e in corpus.entries
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def corpus_from_json(text):
    doc = json.loads(text)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("entries"), list)
        and isinstance(doc.get("manifest"), dict)
    ):
        raise ValueError("not a corpus document")
    entries = []
    seen = set()
    for item in doc["entries"]:
        if not isinstance(item, dict) or "id" not in item or "poset" not in item:
            raise ValueError("a corpus entry must be an object with an id and a poset")
        poset = Poset.from_doc(item["poset"])
        # refused before its canonical form is searched; gen_corpus writes none
        if poset.size > config.MAX_POSET_SIZE:
            raise CapacityError(f"corpus entry {item['id']} exceeds the poset size bound")
        # a forged entry is refused before its lattice and dual space are built
        if poset_content_id(poset) != item["id"]:
            raise ValueError(f"corpus entry {item['id']} fails its content hash")
        # one entry per isomorphism class, as gen_corpus writes it
        if item["id"] in seen:
            raise ValueError(f"corpus entry {item['id']} repeats an earlier entry")
        seen.add(item["id"])
        lattice = birkhoff_lattice(poset)
        record = priestley_space_of(lattice)
        entries.append(CorpusEntry(item["id"], poset, lattice, record))
    manifest = doc["manifest"]
    if manifest.get("hash") != _corpus_hash(entries):
        raise ValueError("corpus manifest hash does not match the entries")
    count, max_size = manifest.get("count"), manifest.get("max_size")
    if type(count) is not int or count != len(entries):
        raise ValueError(f"corpus manifest count {count!r} does not match the entries")
    largest = max((e.poset.size for e in entries), default=0)
    if type(max_size) is not int or max_size < largest:
        raise ValueError(f"corpus manifest max_size {max_size!r} is not an int >= {largest}")
    return Corpus(max_size, tuple(entries), manifest)
