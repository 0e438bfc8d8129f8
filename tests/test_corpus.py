"""Corpus persistence: the JSON round trip and its tamper checks."""

import json

import pytest

from framelab.corpus import (
    corpus_from_json,
    corpus_to_json,
    gen_corpus,
    load_corpus,
    save_corpus,
)

_CORPUS = gen_corpus(3)


def test_save_and_load_keep_ids_and_manifest(tmp_path):
    path = tmp_path / "corpus.json"
    save_corpus(_CORPUS, path)
    loaded = load_corpus(path)
    assert [e.entry_id for e in loaded.entries] == [e.entry_id for e in _CORPUS.entries]
    assert loaded.manifest == _CORPUS.manifest
    assert loaded.max_size == _CORPUS.max_size


def test_tampered_entry_id_is_rejected():
    doc = json.loads(corpus_to_json(_CORPUS))
    doc["entries"][1]["id"] = "0" * 12
    with pytest.raises(ValueError, match="fails its content hash"):
        corpus_from_json(json.dumps(doc))


def test_tampered_manifest_hash_is_rejected():
    doc = json.loads(corpus_to_json(_CORPUS))
    doc["manifest"]["hash"] = "0" * 16
    with pytest.raises(ValueError, match="manifest hash"):
        corpus_from_json(json.dumps(doc))
