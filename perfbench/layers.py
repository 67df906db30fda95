"""Where the benchmark probes the program, and what each layer reports.

:func:`probes` lists the wrap points of the traced pass: public
functions at the name their caller looks up. :func:`query_metrics`
derives the deterministic per-layer figures (modeled work, SCM traffic,
simulated device time) from the results a pass returned;
:func:`traced_metrics` turns the recorder's spans and counts into
per-layer wall time and call counts. :data:`UNITS` names the unit of
every metric the benchmark can emit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from spans import COUNT, HIT_MISS, SPAN, Probe, SpanRecorder, self_times

#: Layer probes by call-site name; codec probes are added per class by
#: :func:`probes`. Several call sites can feed one layer name.
CALL_SITE_PROBES = (
    Probe("repro.index.builder", "IndexBuilder.build", "index.build"),
    Probe("repro.compression.hybrid", "HybridSelector.select",
          "compression.select"),
    Probe("repro.api", "parse_query", "core.query.parse"),
    Probe("repro.core.engine", "parse_query", "core.query.parse"),
    Probe("repro.cluster.root", "parse_query", "core.query.parse"),
    Probe("repro.live.segments", "parse_query", "core.query.parse"),
    Probe("repro.core.engine", "BossAccelerator.search",
          "core.engine.search"),
    Probe("repro.core.engine", "run_union_fast", "core.union"),
    Probe("repro.core.engine", "run_union", "core.union"),
    Probe("repro.core.engine", "run_union_columnar", "core.union"),
    Probe("repro.core.engine", "run_grouped_intersection_fast",
          "core.intersection"),
    Probe("repro.core.engine", "run_grouped_intersection",
          "core.intersection"),
    Probe("repro.core.cursor", "ListCursor.advance_to",
          "core.cursor.advance", COUNT),
    Probe("repro.core.topk", "TopKQueue.offer", "core.topk.offer", COUNT),
    Probe("repro.cache", "DecodedBlockCache.get", "cache.decoded",
          HIT_MISS),
    Probe("repro.cluster.root", "SearchCluster.search", "cluster.search"),
    Probe("repro.cluster.root", "SearchCluster.merge", "cluster.merge"),
    Probe("repro.cluster.root", "execute_leaf", "cluster.leaf", COUNT),
    Probe("repro.ioplanner.server", "plan_window",
          "ioplanner.plan_window"),
    Probe("repro.serving.server", "QueryServer.serve", "serving.loop"),
    Probe("repro.ioplanner.server", "PlannedQueryServer.serve",
          "serving.loop"),
    Probe("repro.live.writer", "LiveIndexWriter.apply_update",
          "live.apply_update"),
    Probe("repro.live.segments", "SegmentedIndex.search", "live.search"),
    Probe("repro.live.merge", "merge_segments", "live.merge"),
)


def probes() -> List[Probe]:
    """Every wrap point, including ``encode`` (counted) and
    ``decode_block`` (timed) on each codec class that defines them."""
    from repro.compression.base import Codec

    found = list(CALL_SITE_PROBES)
    pending = [Codec]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr, name, kind in (("encode", "compression.encode", COUNT),
                                 ("decode_block", "compression.decode",
                                  SPAN)):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__",
                                              False):
                found.append(Probe(cls.__module__,
                                   f"{cls.__qualname__}.{attr}", name, kind))
    return found


#: SearchResult.work counters reported per pass.
WORK_FIELDS = ("blocks_fetched", "blocks_skipped_et",
               "blocks_skipped_overlap", "postings_decoded",
               "docs_evaluated", "docs_skipped_wand", "merge_ops",
               "topk_inserts")


def query_metrics(results: Sequence, traffic_extra=None,
                  timing_batch=None) -> Dict[str, float]:
    """Modeled work, SCM demand traffic and simulated device seconds.

    ``results`` are the query results of one pass (engine, cluster or
    live-index results); ``traffic_extra`` adds maintenance traffic
    (live-index seals and merges); ``timing_batch`` is the pass's
    :class:`repro.sim.timing.ThroughputReport`.
    """
    from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
    from repro.sim.metrics import WorkCounters

    work = WorkCounters()
    traffic = TrafficCounter()
    for result in results:
        work.merge(result.work)
        traffic.merge(result.traffic)
    if traffic_extra is not None:
        traffic.merge(traffic_extra)
    out: Dict[str, float] = {
        f"work.{field}": getattr(work, field) for field in WORK_FIELDS
    }
    considered = (work.blocks_fetched + work.blocks_skipped_et
                  + work.blocks_skipped_overlap)
    out["work.et_skip_ratio"] = (
        work.blocks_skipped_et / considered if considered else 0.0
    )
    out["scm.ld_list_seq_bytes"] = traffic.bytes_for(
        AccessClass.LD_LIST, AccessPattern.SEQUENTIAL)
    out["scm.ld_list_rand_bytes"] = traffic.bytes_for(
        AccessClass.LD_LIST, AccessPattern.RANDOM)
    out["scm.ld_score_bytes"] = traffic.bytes_for(AccessClass.LD_SCORE)
    out["scm.st_result_bytes"] = traffic.bytes_for(AccessClass.ST_RESULT)
    out["scm.st_index_bytes"] = traffic.bytes_for(AccessClass.ST_INDEX)
    if timing_batch is not None:
        out["sim.compute_s"] = timing_batch.compute_seconds
        out["sim.memory_s"] = timing_batch.memory_seconds
        out["sim.interconnect_s"] = timing_batch.interconnect_seconds
    return out


#: Span name -> self-time metric (milliseconds).
SELF_TIME_METRICS = {
    "index.build": "index.build_ms",
    "compression.select": "compression.select_ms",
    "compression.decode": "compression.decode_ms",
    "core.query.parse": "core.query.parse_ms",
    "core.engine.search": "core.engine.search_self_ms",
    "core.union": "core.union_ms",
    "core.intersection": "core.intersection_ms",
    "cluster.search": "cluster.search_ms",
    "cluster.merge": "cluster.merge_ms",
    "ioplanner.plan_window": "ioplanner.plan_window_ms",
    "serving.loop": "serving.loop_self_ms",
    "live.apply_update": "live.apply_update_ms",
    "live.search": "live.search_ms",
    "live.merge": "live.merge_ms",
}

#: Recorder count key -> call-count metric.
COUNT_METRICS = {
    "index.build.calls": "index.build_calls",
    "compression.encode": "compression.encode_calls",
    "compression.decode.calls": "compression.decode_block_calls",
    "core.engine.search.calls": "core.engine.search_calls",
    "core.cursor.advance": "core.cursor.advance_calls",
    "core.topk.offer": "core.topk.offer_calls",
    "cluster.leaf": "cluster.leaf_calls",
    "cache.decoded.hits": "cache.decoded_hits",
    "cache.decoded.misses": "cache.decoded_misses",
}


def traced_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Self time per layer (ms) and call counts from one traced pass."""
    self_seconds = self_times(recorder.spans)
    out = {metric: self_seconds.get(span, 0.0) * 1e3
           for span, metric in SELF_TIME_METRICS.items()}
    out.update({metric: recorder.counts.get(key, 0)
                for key, metric in COUNT_METRICS.items()})
    lookups = out["cache.decoded_hits"] + out["cache.decoded_misses"]
    out["cache.decoded_hit_rate"] = (
        out["cache.decoded_hits"] / lookups if lookups else 0.0
    )
    return out


#: Unit of every metric the benchmark emits.
UNITS = {
    # End to end.
    "setup_s": "s",
    "wall_qps": "req/s",
    "wall_p50_ms": "ms",
    "wall_p99_ms": "ms",
    "ref_loop_ms": "ms",
    "norm_qps": "req/s",
    "norm_p50_ms": "ms",
    "norm_p99_ms": "ms",
    "modeled_qps": "req/s",
    "modeled_p50_us": "us",
    "modeled_p99_us": "us",
    "scm_bytes_per_req": "B",
    "write_amp": "ratio",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
    # Per layer.
    **{metric: "ms" for metric in SELF_TIME_METRICS.values()},
    **{metric: "count" for metric in COUNT_METRICS.values()},
    "cache.decoded_hit_rate": "ratio",
    **{f"work.{field}": "count" for field in WORK_FIELDS},
    "work.et_skip_ratio": "ratio",
    "scm.ld_list_seq_bytes": "B",
    "scm.ld_list_rand_bytes": "B",
    "scm.ld_score_bytes": "B",
    "scm.st_result_bytes": "B",
    "scm.st_index_bytes": "B",
    "sim.compute_s": "s",
    "sim.memory_s": "s",
    "sim.interconnect_s": "s",
    "cluster.shards_touched_mean": "count",
    "ioplanner.windows": "count",
    "ioplanner.demand_bytes": "B",
    "ioplanner.dram_hit_bytes": "B",
    "ioplanner.dedup_bytes": "B",
    "ioplanner.scm_seq_bytes": "B",
    "ioplanner.scm_rand_bytes": "B",
    "ioplanner.prefetch_bytes": "B",
    "ioplanner.staged_fraction": "ratio",
    "ioplanner.tier_hit_rate": "ratio",
    "serving.queue_wait_us_mean": "us",
    "serving.queue_depth_max": "count",
    "serving.shed": "count",
    "live.seals": "count",
    "live.merges": "count",
    "live.maintenance_us": "us",
    "live.segments": "count",
    "live.index_write_bytes": "B",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics of layers a workload does not run: reported as 0
#: so every workload emits the same names.
IDLE_LAYER_DEFAULTS = {
    "cluster.shards_touched_mean": 0.0,
    **{name: 0 for name in (
        "ioplanner.windows", "ioplanner.demand_bytes",
        "ioplanner.dram_hit_bytes", "ioplanner.dedup_bytes",
        "ioplanner.scm_seq_bytes", "ioplanner.scm_rand_bytes",
        "ioplanner.prefetch_bytes", "serving.queue_depth_max",
        "serving.shed", "live.seals", "live.merges", "live.segments",
        "live.index_write_bytes")},
    "ioplanner.staged_fraction": 0.0,
    "ioplanner.tier_hit_rate": 0.0,
    "serving.queue_wait_us_mean": 0.0,
    "live.maintenance_us": 0.0,
}
