"""Modeled-metrics equivalence: the serving engine vs the reference oracle.

The core invariant: the serving engine's bulk decode, host-side
decoded-block cache and columnar kernels are *wall-clock*
optimizations only. Against :class:`ReferenceAccelerator` (per-value
reference decoders, no caches, the reference executor) every functional
and modeled output must be **bit-identical**: rankings, per-bucket
:class:`TrafficCounter` totals, every :class:`WorkCounters` field, and
the full observability trace (spans, traffic entries, latencies).

Warm-cache runs are covered explicitly: the second pass over a query
batch serves blocks from the decoded cache, and must still charge the
exact same modeled traffic as a cold run.
"""

import pytest

from repro.cache import DecodedBlockCache
from repro.core import BossAccelerator, BossConfig
from repro.core.engine import ReferenceAccelerator
from repro.observability import RecordingObserver
from repro.scm.traffic import AccessClass, AccessPattern
from tests.conftest import build_random_index, hits_as_pairs
from tests.test_differential import _random_queries


def _assert_results_identical(serving, reference, context):
    assert hits_as_pairs(serving, digits=17) == \
        hits_as_pairs(reference, digits=17), context
    assert serving.work == reference.work, context
    for cls in AccessClass:
        for pattern in AccessPattern:
            assert serving.traffic.bytes_for(cls, pattern) == \
                reference.traffic.bytes_for(cls, pattern), \
                (context, cls, pattern)
            assert serving.traffic.accesses_for(cls, pattern) == \
                reference.traffic.accesses_for(cls, pattern), \
                (context, cls, pattern)
    assert serving.interconnect_bytes == reference.interconnect_bytes, \
        context


@pytest.mark.parametrize("seed", [2, 41])
def test_fast_path_modeled_metrics_bit_identical(seed):
    index = build_random_index(num_docs=900, vocab_size=28, seed=seed)
    queries = _random_queries(sorted(index), seed * 11, count=14)
    serving = BossAccelerator(index, BossConfig(k=10))
    reference = ReferenceAccelerator(index, BossConfig(k=10))
    # Two passes: pass 2 runs entirely against the warm decoded cache.
    for pass_number in (1, 2):
        for expression in queries:
            _assert_results_identical(
                serving.search(expression), reference.search(expression),
                (pass_number, expression),
            )
    assert serving.decoded_cache.hits > 0, "warm pass never hit the cache"


@pytest.mark.parametrize("scheme", ["BP", "VB", "S8b", "S16", "OptPFD",
                                    "GVB"])
def test_fast_path_equivalence_per_codec(scheme):
    index = build_random_index(num_docs=600, vocab_size=20, seed=77,
                               schemes=[scheme])
    queries = _random_queries(sorted(index), 19, count=8)
    serving = BossAccelerator(index, BossConfig(k=10))
    reference = ReferenceAccelerator(index, BossConfig(k=10))
    # Bulk decode of every block of this codec, then the same blocks
    # from the warm decoded cache.
    for pass_number in (1, 2):
        for expression in queries:
            _assert_results_identical(
                serving.search(expression), reference.search(expression),
                (scheme, pass_number, expression),
            )


def test_traces_bit_identical_with_and_without_fast_path():
    index = build_random_index(num_docs=800, vocab_size=25, seed=13)
    queries = _random_queries(sorted(index), 29, count=10)

    serving_observer = RecordingObserver()
    reference_observer = RecordingObserver()
    serving = BossAccelerator(index, BossConfig(k=10),
                              observer=serving_observer)
    reference = ReferenceAccelerator(index, BossConfig(k=10),
                                     observer=reference_observer)
    for _ in range(2):  # second pass exercises the warm decoded cache
        for expression in queries:
            serving.search(expression)
            reference.search(expression)
    assert len(serving_observer.traces) == len(reference_observer.traces)
    for serving_trace, reference_trace in zip(serving_observer.traces,
                                              reference_observer.traces):
        assert serving_trace.spans == reference_trace.spans
        assert serving_trace.traffic == reference_trace.traffic
        assert serving_trace.to_dict() == reference_trace.to_dict()


def test_decoded_cache_observability_counters():
    index = build_random_index(num_docs=500, vocab_size=18, seed=3)
    observer = RecordingObserver()
    engine = BossAccelerator(index, BossConfig(k=10), observer=observer)
    for _ in range(2):
        engine.search('"t0" OR "t1"')
    snapshot = observer.registry.snapshot()
    assert "decoded_cache.accesses" in snapshot
    assert "decode.invocations" in snapshot
    cache = engine.decoded_cache
    assert cache.hits > 0 and cache.misses > 0
    assert 0.0 < cache.hit_rate < 1.0


def test_shared_decoded_cache_and_capacity_knobs():
    index = build_random_index(num_docs=400, vocab_size=15, seed=6)
    shared = DecodedBlockCache(capacity_blocks=64)
    a = BossAccelerator(index, BossConfig(k=10), decoded_cache=shared)
    b = BossAccelerator(index, BossConfig(k=10), decoded_cache=shared)
    a.search('"t0"')
    hits_before = shared.hits
    b.search('"t0"')  # same shard object -> same cache entries
    assert shared.hits > hits_before
    # Integer capacity; zero disables the cache entirely.
    sized = BossAccelerator(index, BossConfig(k=10), decoded_cache=16)
    assert sized.decoded_cache.capacity_blocks == 16
    disabled = BossAccelerator(index, BossConfig(k=10), decoded_cache=0)
    assert disabled.decoded_cache is None
    assert ReferenceAccelerator(index).decoded_cache is None
