"""Columnar executor equivalence: bit-identical to the reference oracle.

The columnar executor (the only serving executor) vectorizes scoring
with numpy, bulk-counts leader and pair runs, and leapfrogs
intersections inside decoded blocks, but it is a wall-clock
optimization only: rankings (to the last float bit), every
:class:`WorkCounters` field, per-bucket traffic, and full observability
traces must match :class:`ReferenceAccelerator` exactly — across
codecs, ET ablations, k values, and warm, cold or churning decoded
caches. (Trace identity is pinned in ``test_fastpath_equivalence.py``
and ``tests/core/test_executor_properties.py``.)
"""

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.core.engine import ReferenceAccelerator
from tests.conftest import build_random_index
from tests.test_differential import _random_queries
from tests.test_fastpath_equivalence import _assert_results_identical


@pytest.mark.parametrize("seed", [2, 41])
def test_columnar_modeled_metrics_bit_identical(seed):
    index = build_random_index(num_docs=900, vocab_size=28, seed=seed)
    queries = _random_queries(sorted(index), seed * 11, count=14)
    # A decoded-block cache far smaller than the working set: blocks
    # are evicted and decoded again into fresh arrays, so the
    # cross-query block-score cache (keyed by array identity) sees keys
    # retire and must never serve a retired block's scores.
    columnar = BossAccelerator(index, BossConfig(k=10), decoded_cache=8)
    reference = ReferenceAccelerator(index, BossConfig(k=10))
    for pass_number in (1, 2):
        for expression in queries:
            _assert_results_identical(
                columnar.search(expression), reference.search(expression),
                (pass_number, expression),
            )
    cache = columnar.decoded_cache
    assert cache.hits > 0 and cache.misses > 2 * cache.capacity_blocks


@pytest.mark.parametrize("scheme", ["BP", "VB", "S8b", "S16", "OptPFD",
                                    "PFD", "GVB"])
def test_columnar_equivalence_per_codec(scheme):
    index = build_random_index(num_docs=600, vocab_size=20, seed=77,
                               schemes=[scheme])
    queries = _random_queries(sorted(index), 19, count=8)
    columnar = BossAccelerator(index, BossConfig(k=10))
    reference = ReferenceAccelerator(index, BossConfig(k=10))
    for expression in queries:
        _assert_results_identical(
            columnar.search(expression), reference.search(expression),
            (scheme, expression),
        )


def _ablation_configs():
    base = BossConfig(k=10)
    return {
        "default": base,
        "exhaustive": base.exhaustive(),
        "block_only": base.block_only(),
        "wand_only": BossConfig(k=10, et_block=False, et_wand=True),
        "interval3": BossConfig(k=10, et_interval_blocks=3),
    }


@pytest.mark.parametrize("name", sorted(_ablation_configs()))
def test_columnar_equivalence_under_et_ablations(name):
    """Leader and pair runs only engage under the default flags; every
    ablation must fall back to the general loop with identical modeled
    output."""
    config = _ablation_configs()[name]
    index = build_random_index(num_docs=700, vocab_size=22, seed=5)
    queries = _random_queries(sorted(index), 23, count=10)
    columnar = BossAccelerator(index, config)
    reference = ReferenceAccelerator(index, config)
    for expression in queries:
        _assert_results_identical(
            columnar.search(expression), reference.search(expression),
            (name, expression),
        )


@pytest.mark.parametrize("k", [1, 3, 50])
def test_columnar_equivalence_across_k(k):
    index = build_random_index(num_docs=800, vocab_size=24, seed=9)
    queries = _random_queries(sorted(index), 31, count=10)
    columnar = BossAccelerator(index, BossConfig(k=k))
    reference = ReferenceAccelerator(index, BossConfig(k=k))
    for expression in queries:
        _assert_results_identical(
            columnar.search(expression, k=k),
            reference.search(expression, k=k),
            (k, expression),
        )
