"""Corpus JSON: the round trip and its tamper checks."""

import hashlib
import json

import pytest

from framelab import CapacityError, Poset, config, corpus, posets
from framelab.corpus import corpus_from_json, corpus_to_json, gen_corpus
from framelab.lattices import birkhoff_lattice

_CORPUS = gen_corpus(3)


def test_manifest_of_the_n5_corpus_is_pinned():
    # any change to enumeration, canonical form or content ids moves this hash
    assert gen_corpus(5).manifest == {"max_size": 5, "count": 88, "hash": "d76e4c6f5c6df0ab"}


def test_corpus_over_the_poset_size_cap_is_refused():
    with pytest.raises(CapacityError, match="cap"):
        gen_corpus(config.MAX_POSET_SIZE + 1)


def test_json_round_trip_keeps_ids_and_manifest():
    loaded = corpus_from_json(corpus_to_json(_CORPUS))
    assert [e.entry_id for e in loaded.entries] == [e.entry_id for e in _CORPUS.entries]
    assert loaded.manifest == _CORPUS.manifest
    assert loaded.max_size == _CORPUS.max_size


def test_tampered_entry_id_is_rejected():
    doc = json.loads(corpus_to_json(_CORPUS))
    doc["entries"][1]["id"] = "0" * 12
    with pytest.raises(ValueError, match="fails its content hash"):
        corpus_from_json(json.dumps(doc))


def test_relabelled_entry_with_the_hash_of_its_own_doc_is_rejected():
    # reload searches each poset's canonical form; a relabelled poset whose
    # id hashes its document as written must not pass as canonical
    doc = json.loads(corpus_to_json(_CORPUS))
    item = doc["entries"][-1]
    size = item["poset"]["size"]
    flipped = [[size - 1 - a, size - 1 - b] for a, b in item["poset"]["covers"]]
    relabelled = Poset.from_covers(flipped, size).to_doc()
    assert relabelled != item["poset"]
    payload = json.dumps(relabelled, sort_keys=True, separators=(",", ":")).encode()
    item["poset"], item["id"] = relabelled, hashlib.sha256(payload).hexdigest()[:12]
    with pytest.raises(ValueError, match="fails its content hash"):
        corpus_from_json(json.dumps(doc))


def test_tampered_entry_id_is_rejected_before_its_lattice_is_built(monkeypatch):
    def unbuilt(poset):
        raise AssertionError("lattice built before the content hash was checked")

    doc = json.loads(corpus_to_json(_CORPUS))
    doc["entries"] = [{"id": "0" * 12, "poset": {"size": 3, "covers": []}}]
    monkeypatch.setattr(corpus, "birkhoff_lattice", unbuilt)
    with pytest.raises(ValueError, match="fails its content hash"):
        corpus_from_json(json.dumps(doc))


def test_repeated_entry_is_rejected_before_its_lattice_is_built(monkeypatch):
    # the copy passes its content hash, and the manifest is rewritten to
    # match, so only the repeat tells it apart from a corpus of five classes
    built = []

    def counted(poset):
        built.append(poset)
        return birkhoff_lattice(poset)

    two = gen_corpus(2)
    doc = json.loads(corpus_to_json(two))
    doc["entries"].append(dict(doc["entries"][1]))
    ids = [item["id"] for item in doc["entries"]]
    payload = json.dumps(ids, separators=(",", ":")).encode()
    doc["manifest"].update(count=len(ids), hash=hashlib.sha256(payload).hexdigest()[:16])
    monkeypatch.setattr(corpus, "birkhoff_lattice", counted)
    with pytest.raises(ValueError, match="repeats an earlier entry"):
        corpus_from_json(json.dumps(doc))
    assert len(built) == len(two)


def test_n6_build_and_round_trip_run_one_search_per_labelling_and_reload(monkeypatch):
    # counts runs of the uncached search body, not canonical()/canonical_key()
    # calls: 5,232 labellings searched by enumerate_posets, n <= 6, and one
    # search per reloaded entry; a change to the number of searches moves this
    searches = []
    body = Poset._canonicalize.__wrapped__

    def counted(poset):
        searches.append(poset.size)
        return body(poset)

    monkeypatch.setattr(Poset, "_canonicalize", posets.cached(counted))
    six = gen_corpus(6)
    assert len(searches) == 5232
    assert len(corpus_from_json(corpus_to_json(six))) == 406
    assert len(searches) == 5232 + 406


def test_tampered_manifest_hash_is_rejected():
    doc = json.loads(corpus_to_json(_CORPUS))
    doc["manifest"]["hash"] = "0" * 16
    with pytest.raises(ValueError, match="manifest hash"):
        corpus_from_json(json.dumps(doc))


def test_oversized_poset_is_refused_before_allocation():
    doc = {
        "manifest": {"max_size": 0, "count": 1, "hash": ""},
        "entries": [{"id": "0" * 12, "poset": {"size": 10**12, "covers": []}}],
    }
    with pytest.raises(CapacityError):
        corpus_from_json(json.dumps(doc))


def test_oversized_entry_is_refused_before_its_content_hash(monkeypatch):
    # 9 points exceed the corpus size bound, so the entry is refused by size
    def unhashed(poset):
        raise AssertionError("content hash computed for an oversized entry")

    doc = {
        "manifest": {"max_size": 9, "count": 1, "hash": ""},
        "entries": [{"id": "0" * 12, "poset": Poset.antichain(9).to_doc()}],
    }
    monkeypatch.setattr(corpus, "poset_content_id", unhashed)
    with pytest.raises(CapacityError):
        corpus_from_json(json.dumps(doc))


def test_gen_corpus_refuses_a_negative_size():
    with pytest.raises(ValueError, match=">= 0"):
        gen_corpus(-1)


@pytest.mark.parametrize("size", [True, False, 2.0, "3", None],
                         ids=["true", "false", "float", "string", "none"])
def test_gen_corpus_refuses_bool_and_non_int_sizes(size):
    # True would reach the manifest as "max_size": true, which
    # corpus_from_json refuses
    with pytest.raises(ValueError, match=">= 0"):
        gen_corpus(size)


def test_entry_size_bound_is_the_configured_poset_size(monkeypatch):
    text = corpus_to_json(_CORPUS)  # entries of up to 3 points
    monkeypatch.setattr(config, "MAX_POSET_SIZE", 3)
    assert len(corpus_from_json(text)) == len(_CORPUS)
    monkeypatch.setattr(config, "MAX_POSET_SIZE", 2)
    with pytest.raises(CapacityError):
        corpus_from_json(text)


def _entries_not_a_list(doc):
    doc["entries"] = 5


def _entry_not_an_object(doc):
    doc["entries"][1] = [doc["entries"][1]["id"]]


def _entry_without_poset(doc):
    del doc["entries"][1]["poset"]


def _entry_without_id(doc):
    del doc["entries"][1]["id"]


def _manifest_not_an_object(doc):
    doc["manifest"] = [doc["manifest"]["hash"]]


def _covers_not_a_list(doc):
    doc["entries"][2]["poset"]["covers"] = 5


def _count_disagrees(doc):
    doc["manifest"]["count"] = 999


def _count_missing(doc):
    del doc["manifest"]["count"]


def _max_size_below_an_entry(doc):
    doc["manifest"]["max_size"] = 1


def _max_size_not_an_int(doc):
    doc["manifest"]["max_size"] = "x"


@pytest.mark.parametrize(
    "malform",
    [
        _entries_not_a_list,
        _entry_not_an_object,
        _entry_without_poset,
        _entry_without_id,
        _manifest_not_an_object,
        _covers_not_a_list,
        _count_disagrees,
        _count_missing,
        _max_size_below_an_entry,
        _max_size_not_an_int,
    ],
    ids=lambda f: f.__name__.strip("_"),
)
def test_malformed_document_is_refused_with_value_error(malform):
    doc = json.loads(corpus_to_json(_CORPUS))
    malform(doc)
    with pytest.raises(ValueError):
        corpus_from_json(json.dumps(doc))
