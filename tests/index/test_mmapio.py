"""Mmap storage: zero-copy serving, loader dispatch, and lifetime.

The central guarantee under test: an index opened through
:class:`MmapIndexStorage` serves every compressed block payload as a
``memoryview`` slice of the mapping, and the fast/columnar query paths
decode those views in place — no code path materializes payload
``bytes``. The no-materialization test enforces this by poisoning the
bytes-consuming decoders and running real queries.
"""

import pytest

from repro.compression import get_codec, list_codecs
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import ReferenceAccelerator
from repro.errors import InvertedIndexError
from repro.index import (
    MmapIndexStorage,
    STORAGE_MODES,
    load_index_mmap,
    open_index,
    sniff_format,
)
from repro.index.binaryio import load_index_binary, save_index_binary
from repro.index.io import save_index
from tests.conftest import build_random_index
from tests.test_differential import _random_queries
from tests.test_fastpath_equivalence import _assert_results_identical


@pytest.fixture(scope="module")
def corpus_index():
    return build_random_index(num_docs=500, vocab_size=24, seed=33)


@pytest.fixture(scope="module")
def bossx_path(corpus_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("mmapio") / "corpus.bossx"
    save_index_binary(corpus_index, path)
    return path


@pytest.fixture(scope="module")
def pickle_path(corpus_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("mmapio") / "corpus.pkl"
    save_index(corpus_index, path)
    return path


class TestZeroCopy:
    def test_every_payload_is_a_memoryview(self, bossx_path):
        index = load_index_mmap(bossx_path)
        blocks = 0
        for term in index:
            for block in index.posting_list(term).blocks:
                assert isinstance(block.doc_payload, memoryview)
                assert isinstance(block.tf_payload, memoryview)
                blocks += 1
        assert blocks > 0

    def test_queries_never_materialize_payload_bytes(
            self, bossx_path, corpus_index, monkeypatch):
        """Fast and columnar executors decode the views in place.

        Every registered codec's ``decode_block`` / ``decode`` (the
        bytes-consuming decoders) is poisoned; queries over the mmapped
        index must still produce the expected rankings, proving the
        serving path runs entirely on the columnar kernels over the
        mapping — zero per-block copies.
        """
        queries = _random_queries(sorted(corpus_index), 17, count=12)
        expected = {}
        oracle = BossAccelerator(corpus_index, BossConfig(k=10))
        for expression in queries:
            expected[expression] = [
                (h.doc_id, h.score) for h in oracle.search(expression).hits
            ]

        def poisoned(self, data, count):
            raise AssertionError(
                "bytes decoder invoked on the zero-copy path"
            )

        for cls in {type(get_codec(name)) for name in list_codecs()}:
            monkeypatch.setattr(cls, "decode_block", poisoned)
            monkeypatch.setattr(cls, "decode", poisoned)

        index = load_index_mmap(bossx_path)
        engine = BossAccelerator(index, BossConfig(k=10))
        for expression in queries:
            hits = engine.search(expression).hits
            assert [
                (h.doc_id, h.score) for h in hits
            ] == expected[expression], expression

    def test_mapped_bytes_is_file_size(self, bossx_path):
        with MmapIndexStorage(bossx_path) as storage:
            assert storage.mapped_bytes == bossx_path.stat().st_size


@pytest.mark.parametrize("engine_class", [ReferenceAccelerator,
                                          BossAccelerator],
                         ids=["reference", "columnar"])
def test_mmap_differential_vs_in_memory(bossx_path, corpus_index,
                                        engine_class):
    """Identical modeled output regardless of the storage backend."""
    mapped = load_index_mmap(bossx_path)
    mmap_engine = engine_class(mapped, BossConfig(k=10))
    mem_engine = engine_class(corpus_index, BossConfig(k=10))
    for expression in _random_queries(sorted(corpus_index), 7, count=15):
        _assert_results_identical(
            mmap_engine.search(expression), mem_engine.search(expression),
            (engine_class.__name__, expression),
        )


class TestLoaderDispatch:
    def test_sniff_format(self, bossx_path, pickle_path):
        assert sniff_format(bossx_path) == "bossx"
        assert sniff_format(pickle_path) == "pickle"

    def test_auto_serves_bossx_via_mmap(self, bossx_path):
        index = open_index(bossx_path)
        block = index.posting_list(next(iter(index))).blocks[0]
        assert isinstance(block.doc_payload, memoryview)

    def test_auto_falls_back_to_pickle(self, pickle_path, corpus_index):
        index = open_index(pickle_path)
        assert index.num_terms == corpus_index.num_terms

    def test_binary_mode_copies_payloads(self, bossx_path):
        index = open_index(bossx_path, storage="binary")
        block = index.posting_list(next(iter(index))).blocks[0]
        assert isinstance(block.doc_payload, bytes)

    def test_mmap_mode_rejects_pickle_file(self, pickle_path):
        with pytest.raises(InvertedIndexError, match="not a BOSSIDX1"):
            open_index(pickle_path, storage="mmap")

    def test_untrusted_pickle_refused(self, pickle_path):
        with pytest.raises(InvertedIndexError, match="--trust-pickle"):
            open_index(pickle_path, trust_pickle=False)

    def test_untrusted_bossx_still_opens(self, bossx_path, corpus_index):
        index = open_index(bossx_path, trust_pickle=False)
        assert index.num_terms == corpus_index.num_terms

    def test_unknown_storage_rejected(self, bossx_path):
        assert "auto" in STORAGE_MODES
        with pytest.raises(InvertedIndexError, match="unknown storage"):
            open_index(bossx_path, storage="paged")


class TestStorageLifetime:
    def test_load_is_cached(self, bossx_path):
        with MmapIndexStorage(bossx_path) as storage:
            assert storage.load() is storage.load()

    def test_load_after_close_raises(self, bossx_path):
        storage = MmapIndexStorage(bossx_path)
        assert not storage.closed
        storage.close()
        assert storage.closed
        with pytest.raises(InvertedIndexError, match="closed"):
            storage.load()

    def test_close_with_live_index_keeps_views_valid(self, bossx_path):
        storage = MmapIndexStorage(bossx_path)
        index = storage.load()
        storage.close()  # mapping pinned by the index's payload views
        engine = BossAccelerator(index, BossConfig(k=5))
        assert engine.search('"t0"').hits

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.bossx"
        empty.write_bytes(b"")
        with pytest.raises(InvertedIndexError, match="cannot be mapped"):
            MmapIndexStorage(empty)

    def test_non_index_file_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.bossx"
        bogus.write_bytes(b"definitely not an index file")
        with pytest.raises(InvertedIndexError, match="not a BOSSIDX1"):
            MmapIndexStorage(bogus)
