"""The three benchmark workloads.

A run is a sequence of repetitions. Repetition ``d`` draws its own
inputs from the seed ``seed * 1000 + d`` (``inputs``, untimed), sets up
fresh program state (``setup``, timed as ``setup_s``) and runs one pass
of its requests (``run``, the timed region). ``check`` runs after each
pass, outside any timing, and returns one message per failed check.
Independent draws let a run report medians over several inputs, which
keeps a Zipf head query or one badly placed merge from setting a run's
figures.

* ``paper-batch`` — closed loop, one client: the paper's Table II
  batch through ``BossSession.search``. The core executor and codecs do
  the host work; the corpus build dominates set-up.
* ``zipf-planned`` — open loop on the virtual timeline: a Poisson Zipf
  log through ``PlannedQueryServer`` over a 4-shard ``SearchCluster``,
  offered just past the planner-off knee. Repeated queries exercise the
  caches, the I/O planner, cluster fan-out/merge and the windowed
  serving loop.
* ``live-ingest`` — open loop: reads beside writes through
  ``QueryServer`` over a ``LiveServingTarget``; seals, merges and
  multi-segment search sit on the request path.

Sizes keep every pass at >= 1,000 requests, so a p99 has >= 10 samples
beyond it.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from layers import IDLE_LAYER_DEFAULTS, query_metrics
from oracle import BruteForceBM25, check_hits
from repro.api import BossSession
from repro.cluster import SearchCluster, shard_documents
from repro.core import BossAccelerator, BossConfig
from repro.core.query import parse_query
from repro.errors import QueryError
from repro.index import IndexBuilder
from repro.ioplanner import PlannedQueryServer, PlannerConfig
from repro.live import LiveIndexWriter, LiveServingTarget, MergePolicy
from repro.scm.device import OPTANE_NODE_4CH
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.serving import (
    QueryServer,
    ServingConfig,
    TraceArrivals,
    build_requests,
    zipf_workload,
)
from repro.sim.timing import BossTimingModel
from repro.workloads import QuerySampler, make_corpus, synthetic_documents

#: Top-k of every workload: the figure benches' k, which keeps k small
#: against the blocks per list as the paper's k=1000 is against its
#: lists (see benchmarks/conftest.py).
K = 10

#: No request is shed: every queue is deep enough to hold the run.
DEEP_QUEUE = 1 << 20

SIZES = {
    "full": {
        "paper-batch": {"scale": 1.0, "per_bucket": 400},
        "zipf-planned": {"docs": 2000, "requests": 1000},
        # 2,150 documents seal 34 buffers: two tier-0 segments short of
        # a merge, so every pass's ~150 adds seal twice and run exactly
        # one tier-0 merge on the request path.
        "live-ingest": {"docs": 2150, "requests": 1000},
    },
    # Seconds-long passes for the benchmark's own tests.
    "tiny": {
        "paper-batch": {"scale": 0.05, "per_bucket": 10},
        "zipf-planned": {"docs": 200, "requests": 60},
        "live-ingest": {"docs": 200, "requests": 60},
    },
}


@dataclass
class PassResult:
    """What one timed pass produced, for metrics and checks."""

    requests: int
    wall_seconds: float
    #: Host seconds of each call into the target, in dispatch order.
    latencies: List[float]
    #: Deterministic end-to-end figures from the modeled timeline.
    modeled: Dict[str, float]
    #: Deterministic per-layer figures from the pass's results.
    layer: Dict[str, float]
    #: Requests that failed during the pass (shed).
    failed: int = 0
    #: What :meth:`check` inspects: the answers or the serving result.
    raw: object = field(default=None, repr=False)


@dataclass
class Draw:
    """One repetition's inputs, generated from its own seed."""

    seed: int
    documents: Optional[list] = None
    #: Query expressions (paper-batch) or timed requests (serving).
    requests: Optional[list] = None
    config: object = None


def draw_seed(seed: int, draw: int) -> int:
    """Seed of repetition ``draw`` of a run seeded with ``seed``."""
    return seed * 1000 + draw


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(round(fraction * len(sorted_values), 9)) - 1
    return sorted_values[max(0, rank)]


def answer_of(result) -> tuple:
    """Exactly comparable ``(doc, score)`` hits of a search result."""
    return tuple((hit.doc_id, hit.score) for hit in result.hits)


class TimedTarget:
    """Times every call the client or serving loop makes into a target.

    Attribute reads fall through to the target, so a server still finds
    the cluster's ``engines`` or the live ``index``. Under a recorder
    each call is a ``request`` span stamped with its dispatch sequence
    number.
    """

    def __init__(self, target, recorder=None) -> None:
        self._target = target
        self._recorder = recorder
        self._sequence = 0
        self.latencies: List[float] = []

    def __getattr__(self, name):
        return getattr(self._target, name)

    def search(self, expression, k=None):
        return self._timed(self._target.search, expression, k=k)

    def apply_update(self, request):
        return self._timed(self._target.apply_update, request)

    def _timed(self, fn, *args, **kwargs):
        recorder = self._recorder
        start = time.perf_counter()
        if recorder is None:
            result = fn(*args, **kwargs)
        else:
            recorder.request = self._sequence
            try:
                result = recorder.call("request", fn, *args, **kwargs)
            finally:
                recorder.request = None
        self.latencies.append(time.perf_counter() - start)
        self._sequence += 1
        return result


def _vocabulary_by_df(documents) -> List[str]:
    df = Counter(term for doc in documents for term in set(doc))
    return sorted(df, key=lambda term: (-df[term], term))


def _serving_layer(report) -> Dict[str, float]:
    return {
        "serving.queue_wait_us_mean": report.mean_queue_wait_seconds * 1e6,
        "serving.queue_depth_max": report.max_queue_depth,
        "serving.shed": report.shed,
    }


def _check_unique_answers(expressions, answers, oracle) -> List[str]:
    """Oracle-check each distinct expression's first answer; every
    repeat must return that same answer."""
    failures = []
    verdicts: Dict[str, Optional[str]] = {}
    first: Dict[str, tuple] = {}
    for expression, answer in zip(expressions, answers):
        if expression not in verdicts:
            first[expression] = answer
            verdicts[expression] = check_hits(
                answer, oracle, parse_query(expression), K)
        reason = verdicts[expression]
        if reason is None and answer != first[expression]:
            reason = "repeat returned a different answer"
        if reason is not None:
            failures.append(f"{expression}: {reason}")
    return failures


class PaperBatch:
    """Closed loop over the paper's Table II query mix."""

    name = "paper-batch"
    #: Draws whose modeled figures a run reports: a 1,200-query batch
    #: averages the mix well, so three keep the modeled medians steady.
    draws = 3

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[size][self.name]

    def inputs(self, draw: int) -> Draw:
        # The corpus is the fixed figure-bench preset; each draw
        # samples its own batch from it (in ``run``, untimed).
        return Draw(seed=draw_seed(self.seed, draw))

    def setup(self, inputs: Draw):
        corpus = make_corpus("clueweb12-like", scale=self.size["scale"])
        session = BossSession(BossConfig(k=K))
        session.init(corpus.index)
        return corpus, session

    def run(self, inputs: Draw, state, recorder=None) -> PassResult:
        corpus, session = state
        sampler = QuerySampler(corpus.terms_by_df(), seed=inputs.seed)
        inputs.requests = [
            q.expression for q in sampler.sample(self.size["per_bucket"])
        ]
        target = TimedTarget(session, recorder)
        begin = time.perf_counter()
        results = [target.search(expression) for expression in inputs.requests]
        wall = time.perf_counter() - begin

        model = BossTimingModel()
        batch = model.batch(results)
        per_query = sorted(model.query_seconds(r) for r in results)
        modeled = {
            "modeled_qps": batch.throughput_qps,
            "modeled_p50_us": percentile(per_query, 0.50) * 1e6,
            "modeled_p99_us": percentile(per_query, 0.99) * 1e6,
            "scm_bytes_per_req": (sum(r.traffic.total_bytes for r in results)
                                  / len(results)),
            # A static index is written once: one byte per byte built.
            "write_amp": 1.0,
        }
        layer = dict(IDLE_LAYER_DEFAULTS)
        layer.update(query_metrics(results, timing_batch=batch))
        return PassResult(
            requests=len(results), wall_seconds=wall,
            latencies=target.latencies, modeled=modeled, layer=layer,
            raw=[answer_of(r) for r in results],
        )

    def check(self, inputs: Draw, state, result: PassResult) -> List[str]:
        corpus, _ = state
        oracle = BruteForceBM25(corpus.index)
        failures = []
        for expression, answer in zip(inputs.requests, result.raw):
            reason = check_hits(answer, oracle, parse_query(expression), K)
            if reason is not None:
                failures.append(f"{expression}: {reason}")
        return failures


class ZipfPlanned:
    """Open-loop Zipf log through the I/O planner over a 4-shard cluster."""

    name = "zipf-planned"
    #: A 64-query Zipf log leans on its few head queries, so a run takes
    #: medians over five independent logs.
    draws = 5
    shards = 4
    workers = 4
    unique_queries = 64
    #: Offered load over the planner-off modeled capacity (the knee).
    knee = 1.25
    #: Mean arrivals per planning window.
    arrivals_per_window = 32
    dram_bytes = 64 << 20
    vocab_size = 40

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[size][self.name]

    def inputs(self, draw: int) -> Draw:
        seed = draw_seed(self.seed, draw)
        documents = synthetic_documents(
            self.size["docs"], vocab_size=self.vocab_size, seed=seed)
        vocab = _vocabulary_by_df(documents)
        count = self.size["requests"]
        shape = zipf_workload(vocab, count, rate_qps=1.0,
                              unique_queries=self.unique_queries, seed=seed)
        inputs = Draw(seed=seed, documents=documents)
        rate = self.knee * self.workers / self._mean_planner_off_service(
            inputs, [r.expression for r in shape])
        inputs.requests = zipf_workload(vocab, count, rate_qps=rate,
                                        unique_queries=self.unique_queries,
                                        seed=seed)
        inputs.config = PlannerConfig(
            window_seconds=self.arrivals_per_window / rate,
            dram_bytes=self.dram_bytes, enabled=True,
            workers=self.workers, queue_capacity=DEEP_QUEUE, k=K)
        return inputs

    def _mean_planner_off_service(self, inputs: Draw, expressions) -> float:
        """Mean modeled service seconds of the log with planning off.

        With planning off a request's fetch time depends only on its
        own blocks, so one burst over the distinct expressions,
        weighted by their frequency in the log, gives the exact mean.
        """
        distinct = sorted(set(expressions))
        probe = build_requests(distinct, TraceArrivals([0.0] * len(distinct)))
        config = PlannerConfig(enabled=False, workers=self.workers,
                               queue_capacity=DEEP_QUEUE, k=K)
        served = PlannedQueryServer(self.setup(inputs), config).serve(probe)
        service = {o.expression: o.completion_seconds - o.start_seconds
                   for o in served}
        return sum(service[e] for e in expressions) / len(expressions)

    def setup(self, inputs: Draw):
        sharded = shard_documents(inputs.documents, self.shards)
        return SearchCluster([BossAccelerator(index, BossConfig(k=K))
                              for index in sharded.indexes])

    def run(self, inputs: Draw, cluster, recorder=None) -> PassResult:
        target = TimedTarget(cluster, recorder)
        server = PlannedQueryServer(target, inputs.config)
        begin = time.perf_counter()
        served = server.serve(inputs.requests)
        wall = time.perf_counter() - begin

        planner = served.planner
        outcomes = [o for o in served if o.served]
        results = [o.result for o in outcomes]
        service = [o.completion_seconds - o.start_seconds for o in outcomes]
        latencies = sorted(o.latency_seconds for o in outcomes)
        engine_traffic = TrafficCounter()
        for r in results:
            engine_traffic.merge(r.traffic)
        scm_bytes = (planner.scm_seq_bytes + planner.scm_rand_bytes
                     + planner.gap_bytes + planner.prefetch_bytes
                     + engine_traffic.total_bytes
                     - engine_traffic.bytes_for(AccessClass.LD_LIST))
        modeled = {
            "modeled_qps": self.workers / (sum(service) / len(service)),
            "modeled_p50_us": percentile(latencies, 0.50) * 1e6,
            "modeled_p99_us": percentile(latencies, 0.99) * 1e6,
            "scm_bytes_per_req": scm_bytes / len(inputs.requests),
            "write_amp": 1.0,
        }
        layer = dict(IDLE_LAYER_DEFAULTS)
        layer.update(query_metrics(
            results, timing_batch=BossTimingModel().batch(results)))
        layer.update(_serving_layer(served.report))
        missed = planner.scm_seq_bytes + planner.scm_rand_bytes
        layer.update({
            "cluster.shards_touched_mean": (
                sum(r.shards_touched for r in results) / len(results)),
            "ioplanner.windows": planner.windows,
            "ioplanner.demand_bytes": planner.demand_bytes,
            "ioplanner.dram_hit_bytes": planner.dram_hit_bytes,
            "ioplanner.dedup_bytes": planner.dedup_bytes,
            "ioplanner.scm_seq_bytes": planner.scm_seq_bytes,
            "ioplanner.scm_rand_bytes": planner.scm_rand_bytes,
            "ioplanner.prefetch_bytes": planner.prefetch_bytes,
            "ioplanner.staged_fraction": planner.staged_fraction,
            # Share of first-touch demand (dedup excluded) the DRAM
            # tier served.
            "ioplanner.tier_hit_rate": (
                planner.dram_hit_bytes / (planner.dram_hit_bytes + missed)
                if planner.dram_hit_bytes + missed else 0.0),
        })
        return PassResult(
            requests=len(inputs.requests), wall_seconds=wall,
            latencies=target.latencies, modeled=modeled, layer=layer,
            failed=served.report.shed, raw=served,
        )

    def check(self, inputs: Draw, cluster, result: PassResult) -> List[str]:
        failures = []
        try:
            result.raw.planner.check_conservation()
        except AssertionError as error:
            failures.append(f"planner conservation: {error}")
        builder = IndexBuilder()
        for tokens in inputs.documents:
            builder.add_document(tokens)
        oracle = BruteForceBM25(builder.build())
        served = [o for o in result.raw if o.served]
        failures += _check_unique_answers(
            [o.expression for o in served],
            [answer_of(o.result) for o in served], oracle)
        return failures


class LiveIngest:
    """Open-loop reads and writes against a live segmented index."""

    name = "live-ingest"
    #: One merge per pass decides the query tail, so a run takes medians
    #: over five independent draws.
    draws = 5
    workers = 2
    vocab_size = 64
    buffer_docs = 64
    fanout = 4
    update_mix = 0.2
    unique_queries = 64
    #: Offered load over the read-only modeled capacity. At 0.8 a
    #: 1,000-request pass's modeled tail hangs on where one merge lands
    #: among Poisson bursts (p50/p99 spread 0.15/0.33 over ten seeds);
    #: at 0.5 it is 0.02/0.13.
    load = 0.5
    #: Queries checked against the monolithic rebuild after the pass.
    oracle_sample = 32

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.vocab = [f"t{i}" for i in range(self.vocab_size)]
        #: Offered rate, calibrated on the first draw's index.
        self.rate: Optional[float] = None

    def inputs(self, draw: int) -> Draw:
        seed = draw_seed(self.seed, draw)
        rng = random.Random(f"live-corpus:{seed}")
        # Document i always holds term i mod V, so no term loses its
        # last live document to oldest-first deletes.
        documents = [
            [self.vocab[i % self.vocab_size]]
            + [rng.choice(self.vocab) for _ in range(rng.randint(3, 23))]
            for i in range(self.size["docs"])
        ]
        inputs = Draw(seed=seed, documents=documents)
        if self.rate is None:
            self.rate = self.load * self.workers / self._mean_read_service(
                inputs)
        inputs.requests = zipf_workload(
            self.vocab, self.size["requests"], rate_qps=self.rate,
            unique_queries=self.unique_queries, seed=seed,
            update_mix=self.update_mix)
        return inputs

    def _mean_read_service(self, inputs: Draw) -> float:
        """Mean modeled query service seconds on an idle preloaded index."""
        writer, _ = self.setup(inputs)
        target = LiveServingTarget(writer)
        probes = zipf_workload(self.vocab, self.unique_queries, rate_qps=1.0,
                               unique_queries=self.unique_queries,
                               seed=inputs.seed)
        return sum(
            target.service_time(r, target.search(r.expression, k=K))
            for r in probes) / len(probes)

    def setup(self, inputs: Draw):
        writer = LiveIndexWriter(device=OPTANE_NODE_4CH,
                                 buffer_docs=self.buffer_docs,
                                 policy=MergePolicy(fanout=self.fanout))
        doc_ids = [writer.add_document(tokens) for tokens in inputs.documents]
        writer.flush()
        # The preload is offline work: serving starts on an idle device.
        writer.scheduler.busy_until = writer.clock.now()
        return writer, doc_ids

    def run(self, inputs: Draw, state, recorder=None) -> PassResult:
        writer, _ = state
        scheduler = writer.scheduler
        seals, merges = len(scheduler.seals), len(scheduler.records)
        busy = scheduler.busy_seconds
        index_bytes = writer.index_write_bytes
        maintenance_before = writer.traffic.copy()

        live = LiveServingTarget(writer)
        target = TimedTarget(live, recorder)
        server = QueryServer(
            target, ServingConfig(workers=self.workers,
                                  queue_capacity=DEEP_QUEUE, k=K),
            service_time=live.service_time, clock=writer.clock)
        begin = time.perf_counter()
        served = server.serve(inputs.requests)
        wall = time.perf_counter() - begin

        maintenance = TrafficCounter()
        for cls in AccessClass:
            for pattern in AccessPattern:
                delta = (writer.traffic.bytes_for(cls, pattern)
                         - maintenance_before.bytes_for(cls, pattern))
                if delta:
                    maintenance.record(cls, pattern, delta, accesses=0)
        updates = {r.request_id for r in inputs.requests
                   if r.update is not None}
        outcomes = [o for o in served if o.served]
        queries = [o for o in outcomes if o.request_id not in updates]
        results = [o.result for o in queries]
        service = [o.completion_seconds - o.start_seconds for o in outcomes]
        latencies = sorted(o.latency_seconds for o in queries)
        modeled = {
            "modeled_qps": self.workers / (sum(service) / len(service)),
            "modeled_p50_us": percentile(latencies, 0.50) * 1e6,
            "modeled_p99_us": percentile(latencies, 0.99) * 1e6,
            "scm_bytes_per_req": (
                sum(r.traffic.total_bytes for r in results)
                + maintenance.total_bytes) / len(inputs.requests),
            "write_amp": writer.write_amplification,
        }
        layer = dict(IDLE_LAYER_DEFAULTS)
        layer.update(query_metrics(
            results, traffic_extra=maintenance,
            timing_batch=BossTimingModel().batch(results)))
        layer.update(_serving_layer(served.report))
        layer.update({
            "live.seals": len(scheduler.seals) - seals,
            "live.merges": len(scheduler.records) - merges,
            "live.maintenance_us": (scheduler.busy_seconds - busy) * 1e6,
            "live.segments": writer.index.num_segments,
            "live.index_write_bytes": writer.index_write_bytes - index_bytes,
        })
        return PassResult(
            requests=len(inputs.requests), wall_seconds=wall,
            latencies=target.latencies, modeled=modeled, layer=layer,
            failed=served.report.shed, raw=served,
        )

    def check(self, inputs: Draw, state, result: PassResult) -> List[str]:
        """Full compaction, then a seeded sample of the log's queries
        against a monolithic rebuild of the surviving documents."""
        writer, preload_ids = state
        documents = dict(zip(preload_ids, inputs.documents))
        deleted = set()
        outcomes = {o.request_id: o for o in result.raw}
        for request in inputs.requests:
            outcome = outcomes[request.request_id]
            if request.update is None or not outcome.served:
                continue
            if request.update[0] == "add":
                documents[outcome.result.doc_id] = list(request.update[1])
            elif outcome.result.doc_id is not None:
                deleted.add(outcome.result.doc_id)
        writer.scheduler.compact_all()
        survivors = sorted(set(documents) - deleted)
        builder = IndexBuilder()
        for doc_id in survivors:
            builder.add_document(documents[doc_id])
        monolith = builder.build()
        oracle = BruteForceBM25(monolith)

        expressions = sorted({r.expression for r in inputs.requests
                              if r.update is None})
        sample = random.Random(f"live-oracle:{inputs.seed}").sample(
            expressions, min(self.oracle_sample, len(expressions)))
        failures = []
        for expression in sample:
            node = parse_query(expression)
            if not all(term in monolith for term in node.terms()):
                try:
                    writer.index.search(expression, k=K)
                except QueryError:
                    continue
                failures.append(f"{expression}: dead term answered")
                continue
            hits = [(h.doc_id, h.score)
                    for h in writer.index.search(expression, k=K).hits]
            reason = check_hits(hits, oracle, node, K, doc_map=survivors)
            if reason is not None:
                failures.append(f"{expression}: {reason}")
        return failures


SCENARIOS = {cls.name: cls for cls in (PaperBatch, ZipfPlanned, LiveIngest)}
