"""The BOSS accelerator: query execution over one memory node's shard.

:class:`BossAccelerator` models the device of Figure 4: it accepts query
expressions through the offloading API, normalizes them, and executes
them on the BOSS core pipeline —

    block fetch -> decompression -> intersection/union -> scoring -> top-k

Execution is functionally exact (true BM25 top-k) and annotated with the
work and traffic measurements the performance model consumes.

Query routing (Section IV-B):

* **union** (term, or OR of terms): the union module's hardware WAND with
  the block fetch module's score-estimation ET;
* **intersection** (AND of terms): pipelined SvS with overlap-check block
  skipping;
* **mixed** (AND over terms and OR-groups, e.g. Q6): intersections first —
  the OR-groups run as merged streams feeding the intersection unit, so
  every posting list is fetched at most once and nothing spills to SCM;
* any other shape is rewritten to a union of intersections
  (``push_intersections_down``) and executed branch by branch.

Queries with more than 4 terms occupy multiple cores (the mergers chain,
Section IV-D); the per-query ``cores_used`` feeds the throughput model.

Host-side, every path runs on the columnar kernels of
:mod:`repro.core.columnar`. :class:`ReferenceAccelerator` runs the
reference executor instead; it is the test oracle the kernels are
pinned bit-identical to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.columnar import (
    run_grouped_intersection_columnar,
    run_union_columnar,
    score_matches_columnar,
)
from repro.core.cursor import (
    SKIP_ET,
    SKIP_OVERLAP,
    ListCursor,
    ReferenceCursor,
)
from repro.core.groups import GroupCursor
from repro.core.intersection import run_grouped_intersection
from repro.core.query import (
    AndNode,
    OrNode,
    QueryNode,
    TermNode,
    flatten,
    parse_query,
    push_intersections_down,
)
from repro.core.result import ScoredDocument, SearchResult
from repro.core.topk import DEFAULT_K, TopKQueue
from repro.core.union import run_union
from repro.cache import DecodedBlockCache
from repro.errors import QueryError
from repro.index.index import InvertedIndex
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.sim.metrics import WorkCounters

#: Probe names kept for perfbench/layers.py, which wraps the kernels
#: where the engine looks them up: these module globals.
run_union_fast = run_union_columnar
run_grouped_intersection_fast = run_grouped_intersection_columnar

#: Bytes of per-document scoring metadata fetched per evaluated document
#: (4 B pre-computed BM25 normalizer + 4 B document descriptor).
SCORE_METADATA_BYTES = 8

#: Bytes per result entry shipped to the host (4 B docID + 4 B score).
RESULT_ENTRY_BYTES = 8

#: Terms a single BOSS core processes natively (Section IV-B).
TERMS_PER_CORE = 4

@dataclass(frozen=True)
class BossConfig:
    """Device configuration (Table I, "BOSS Configuration")."""

    num_cores: int = 8
    clock_hz: float = 1.0e9
    k: int = DEFAULT_K
    decompression_modules: int = 4
    scoring_modules: int = 4
    #: Block-level early termination (score-estimation unit).
    et_block: bool = True
    #: Document-level early termination (union module WAND).
    et_wand: bool = True
    #: Pruning-interval length in blocks for the score-estimation unit.
    #: 1 gives per-block bounds (tightest pruning); larger values model
    #: the paper's "longer intervals" latency trade-off (Section VI) at
    #: the cost of looser bounds — sweepable in the ablation bench.
    et_interval_blocks: int = 1

    def exhaustive(self) -> "BossConfig":
        """The BOSS-exhaustive ablation of Figure 13 (no ET at all)."""
        return replace(self, et_block=False, et_wand=False)

    def block_only(self) -> "BossConfig":
        """The BOSS-block-only ablation of Figure 14 (block ET only)."""
        return replace(self, et_block=True, et_wand=False)


class BossAccelerator:
    """Near-data search accelerator bound to one shard's inverted index."""

    _cursor_class = ListCursor

    def __init__(self, index: InvertedIndex,
                 config: Optional[BossConfig] = None,
                 observer: Observer = NULL_OBSERVER,
                 decoded_cache=None) -> None:
        self._index = index
        self._config = BossConfig() if config is None else config
        self._observer = observer
        #: When set (a list), every block payload fetch is appended as
        #: (term, block_index, bytes) — input to the cache simulator.
        self.fetch_log = None
        #: Cross-query block-score cache of the union kernel (block
        #: scores depend only on the index snapshot).
        self._block_scores = {}
        # Host-side decoded-block cache: None -> default-capacity cache;
        # an int -> that capacity in blocks (0 disables); a
        # DecodedBlockCache -> shared instance (the cluster hands one
        # cache to all its leaf engines).
        if decoded_cache is None:
            self._decoded_cache = DecodedBlockCache(observer=observer)
        elif isinstance(decoded_cache, int):
            self._decoded_cache = (
                DecodedBlockCache(decoded_cache, observer=observer)
                if decoded_cache else None
            )
        else:
            self._decoded_cache = decoded_cache

    @property
    def observer(self) -> Observer:
        return self._observer

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def config(self) -> BossConfig:
        return self._config

    @property
    def decoded_cache(self):
        """The engine's :class:`DecodedBlockCache` (or None)."""
        return self._decoded_cache

    def search(self, query: Union[str, QueryNode],
               k: int = None) -> SearchResult:
        """Execute a query and return the ranked top-k with measurements.

        ``query`` may be a paper-syntax expression string (terms quoted,
        ``AND``/``OR``, parentheses) or a pre-built AST node.
        """
        node = parse_query(query) if isinstance(query, str) else flatten(query)
        self._check_terms(node)
        k = self._config.k if k is None else k
        if self._observer.enabled:
            self._observer.on_query_start("BOSS", node, k)

        work = WorkCounters()
        traffic = TrafficCounter()
        topk = TopKQueue(k)

        if isinstance(node, TermNode) or (
            isinstance(node, OrNode)
            and all(isinstance(c, TermNode) for c in node.children)
        ):
            self._execute_union(node, topk, work, traffic)
        elif isinstance(node, AndNode) and all(
            self._is_term_or_term_union(c) for c in node.children
        ):
            self._execute_and_of_groups(node, topk, work, traffic)
        else:
            self._execute_general(node, topk, work, traffic)

        hits = [ScoredDocument(d, s) for d, s in topk.results()]
        work.topk_inserts = max(work.topk_inserts, topk.inserts)

        # Scoring metadata loads: one small random read per evaluated doc.
        traffic.record(
            AccessClass.LD_SCORE,
            AccessPattern.RANDOM,
            SCORE_METADATA_BYTES * work.docs_evaluated,
            accesses=work.docs_evaluated,
        )
        # Only the top-k leaves the device: a result store plus the host
        # transfer across the shared interconnect.
        result_bytes = RESULT_ENTRY_BYTES * len(hits)
        traffic.record(
            AccessClass.ST_RESULT,
            AccessPattern.SEQUENTIAL,
            result_bytes,
            accesses=1 if hits else 0,
        )

        result = SearchResult(
            query=node,
            hits=hits,
            traffic=traffic,
            work=work,
            interconnect_bytes=result_bytes,
        )
        if self._observer.enabled:
            self._observer.on_query_complete(
                result, engine="BOSS", cores_used=self.cores_used(node)
            )
        return result

    def cores_used(self, node: QueryNode) -> int:
        """BOSS cores a query occupies (4 terms per core, Section IV-D)."""
        return max(1, math.ceil(len(node.terms()) / TERMS_PER_CORE))

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _execute_union(self, node: QueryNode, topk: TopKQueue,
                       work: WorkCounters, traffic: TrafficCounter) -> None:
        terms = node.terms()
        cursors = [
            self._cursor(t, work, traffic, SKIP_ET) for t in terms
        ]
        run_union_columnar(
            cursors,
            self._index.scorer,
            topk,
            work,
            et_block=self._config.et_block,
            et_wand=self._config.et_wand,
            interval_blocks=self._config.et_interval_blocks,
            score_cache=self._block_scores,
        )

    def _execute_and_of_groups(self, node: AndNode, topk: TopKQueue,
                               work: WorkCounters,
                               traffic: TrafficCounter) -> None:
        """Q2/Q4/Q6 path: AND over terms and OR-of-term groups."""
        groups: List[GroupCursor] = []
        for child in node.children:
            members = [
                self._cursor(t, work, traffic, SKIP_OVERLAP)
                for t in child.terms()
            ]
            groups.append(GroupCursor(members, work))
        matches = self._intersect(groups, work)
        self._score_matches(matches, topk, work)

    def _execute_general(self, node: QueryNode, topk: TopKQueue,
                         work: WorkCounters,
                         traffic: TrafficCounter) -> None:
        """Fallback: rewrite to a union of intersections and merge.

        Every conjunction runs as a pipelined intersection; the branch
        outputs merge in the pipeline (no spill) before scoring. Term
        scores cover every term witnessed by a matching branch — exact
        for all Table II query shapes.
        """
        dnf = push_intersections_down(node)
        branches = (
            list(dnf.children) if isinstance(dnf, OrNode) else [dnf]
        )
        merged: Dict[int, Dict[str, int]] = {}
        for branch in branches:
            groups = [
                GroupCursor(
                    [self._cursor(t, work, traffic, SKIP_OVERLAP)
                     for t in child.terms()],
                    work,
                )
                for child in (
                    branch.children
                    if isinstance(branch, AndNode)
                    else [branch]
                )
            ]
            for doc, tfs in self._intersect(groups, work):
                merged.setdefault(doc, {}).update(tfs)
        matches = sorted(merged.items())

        # BM25 scores every query term present in a matching document,
        # including terms the matching branch did not touch; probe the
        # remaining lists monotonically to complete the tf maps.
        all_terms = sorted(set(node.terms()))
        probes = {
            term: self._cursor(term, work, traffic, SKIP_OVERLAP)
            for term in all_terms
        }
        for doc, tfs in matches:
            for term in all_terms:
                if term in tfs:
                    continue
                landed = probes[term].advance_to(doc)
                work.merge_ops += 1
                if landed == doc:
                    tfs[term] = probes[term].current_tf()
        self._score_matches(matches, topk, work)

    def _score_matches(self, matches: Sequence[Tuple[int, Dict[str, int]]],
                       topk: TopKQueue, work: WorkCounters) -> None:
        """Scoring + top-k modules for set-operation outputs."""
        score_matches_columnar(matches, self._index, topk, work)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _intersect(self, groups: List[GroupCursor], work: WorkCounters):
        return run_grouped_intersection_fast(groups, work)

    def _cursor(self, term: str, work: WorkCounters,
                traffic: TrafficCounter, skip_class: str) -> ListCursor:
        return self._cursor_class(
            self._index.posting_list(term),
            work,
            traffic,
            pattern=AccessPattern.SEQUENTIAL,
            skip_class=skip_class,
            fetch_log=self.fetch_log,
            observer=self._observer,
            decoded_cache=self._decoded_cache,
        )

    def _check_terms(self, node: QueryNode) -> None:
        missing = [t for t in node.terms() if t not in self._index]
        if missing:
            raise QueryError(f"terms not in index: {missing}")

    @staticmethod
    def _is_term_or_term_union(node: QueryNode) -> bool:
        return isinstance(node, TermNode) or (
            isinstance(node, OrNode)
            and all(isinstance(c, TermNode) for c in node.children)
        )


class ReferenceAccelerator(BossAccelerator):
    """Test oracle: the engine on the reference executor.

    Runs :func:`~repro.core.union.run_union` and
    :func:`~repro.core.intersection.run_grouped_intersection` over
    per-value reference decodes, with no decoded-block or block-score
    cache and a scalar scoring loop. Serving never uses it; the
    equivalence suites pin :class:`BossAccelerator` bit-identical to it.
    """

    _cursor_class = ReferenceCursor

    def __init__(self, index: InvertedIndex,
                 config: Optional[BossConfig] = None,
                 observer: Observer = NULL_OBSERVER) -> None:
        super().__init__(index, config, observer, decoded_cache=0)

    def _execute_union(self, node: QueryNode, topk: TopKQueue,
                       work: WorkCounters, traffic: TrafficCounter) -> None:
        cursors = [
            self._cursor(t, work, traffic, SKIP_ET) for t in node.terms()
        ]
        run_union(
            cursors,
            self._index.scorer,
            topk,
            work,
            et_block=self._config.et_block,
            et_wand=self._config.et_wand,
            interval_blocks=self._config.et_interval_blocks,
        )

    def _intersect(self, groups: List[GroupCursor], work: WorkCounters):
        return run_grouped_intersection(groups, work)

    def _score_matches(self, matches: Sequence[Tuple[int, Dict[str, int]]],
                       topk: TopKQueue, work: WorkCounters) -> None:
        scorer = self._index.scorer
        for doc, tfs in matches:
            score = 0.0
            for term, tf in tfs.items():
                score += scorer.term_score(
                    self._index.posting_list(term).idf, tf, doc
                )
            work.docs_evaluated += 1
            work.topk_inserts += 1
            topk.offer(doc, score)
