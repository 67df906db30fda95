"""Columnar executor: the serving engine's union and intersection kernels.

:func:`run_union_columnar` and :func:`run_grouped_intersection_columnar`
run the algorithms of :func:`repro.core.union.run_union` and
:func:`repro.core.intersection.run_grouped_intersection`, pinned
bit-identical to them by the equivalence suites: same rankings, same
work counters, same per-bucket traffic, same traces, same ``fetch_log``
sequence.

The rule that makes this safe: every cursor movement with a modeled side
effect (payload fetch, block skip, metadata charge, block transition)
still goes through :class:`~repro.core.cursor.ListCursor`, in the order
the reference executor performs it. Only moves *inside* an already
decoded block are done here directly, because they have no side effect:
a position bump, or a bisect over the block's docID array where the
cursor would gallop to the same posting.

The kernels also keep per-iteration decision state in loop-local
variables. Between two accepted top-k inserts the union's decision state
is frozen: the cutoff changes only when an insert is accepted, and the
block-level bound is one constant per block. Two run modes use that:

* **Leader runs.** When one list is the sole pivot, its postings up to
  the next list's docID are scored in one pass, and the run of rejected
  candidates is bulk-counted up to the first acceptance. Runs of at
  least :data:`_VECTOR_RUN` postings read the block's cached BM25
  score vector with numpy. Shorter runs use scalar arithmetic with the
  same float op order.
* **Pair runs.** With the pivot set inside the two front lists, the
  union loop is run on those two alone: the follower that cannot beat
  the cutoff is advanced to the pivot, the pivot list leads, and ties
  are scored. The other lists do not move, so no full re-sort and no
  pivot search over them is needed until a pair list passes one. This
  is the WAND rotation that dominates multi-term OR.

Run modes need the default ET configuration (``et_wand``, ``et_block``,
``interval_blocks == 1``); the ablations run the general loop.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.groups import GroupCursor
from repro.core.topk import TopKQueue
from repro.core.union import ET_EPSILON
from repro.errors import SimulationError
from repro.index.bm25 import BM25Scorer
from repro.sim.metrics import WorkCounters

#: Sort key over alive entries ``[doc, -max_score, ...]`` — the same
#: ``(doc, -list_max_score)`` ordering as ``union._sort_key``.
_ENTRY_KEY = itemgetter(0, 1)

#: Sentinel "no next list" docID; far above any 32-bit docID.
_NO_LIMIT = 1 << 62

#: Entries kept in a shared block-score cache before it is reset; bounds
#: memory when the decoded-block cache churns (each re-decode allocates a
#: fresh arrays object, retiring the old cache key).
_SCORE_CACHE_LIMIT = 65536

#: Leader runs at least this long are scored from the block's numpy
#: score vector; shorter ones with scalar arithmetic.
_VECTOR_RUN = 8

#: Match sets at least this long are scored with numpy.
_VECTOR_MATCHES = 32


def _step_slow(cursor) -> Optional[int]:
    """Step the cursor itself (a block transition) and return its docID."""
    cursor.step()
    ids = cursor._decoded_doc_ids
    if ids is not None:
        return ids[cursor._position]
    return cursor.current_doc()


def _step(cursor) -> Optional[int]:
    """``cursor.step()`` + the new docID, bumping in-block positions."""
    ids = cursor._decoded_doc_ids
    position = cursor._position + 1
    if ids is not None and position < len(ids):
        cursor._position = position
        return ids[position]
    return _step_slow(cursor)


def _advance(cursor, target: int) -> Optional[int]:
    """``cursor.advance_to(target)``, bisecting in-block moves directly."""
    ids = cursor._decoded_doc_ids
    if ids is not None and ids[-1] >= target:
        position = cursor._position
        if ids[position] < target:
            position = bisect_left(ids, target, position + 1)
            cursor._position = position
        return ids[position]
    return cursor.advance_to(target)


def _tf(cursor) -> int:
    """``cursor.current_tf()`` without the call when decoded."""
    tfs = cursor._decoded_tfs
    if tfs is not None:
        return tfs[cursor._position]
    return cursor.current_tf()


def run_union_columnar(cursors, scorer: BM25Scorer, topk: TopKQueue,
                       work: WorkCounters, et_block: bool = True,
                       et_wand: bool = True, interval_blocks: int = 1,
                       score_cache: dict = None) -> None:
    """Union WAND with block-level ET; see :func:`repro.core.union.run_union`.

    Alive cursors are tracked as entries ``[doc, -max_score, max_score,
    idf, cursor, block_lasts, block_max_scores, ids, scores]``; the docID
    slot is refreshed after every movement and the last two cache a
    leader's block score vector.

    ``score_cache`` maps ``id(decoded doc-id array) -> (array, scores)``
    and outlives single queries (the engine passes one per accelerator):
    a block's BM25 score vector depends only on the list's idf and the
    per-document normalizers, both fixed for an index snapshot. The
    cached array object is strongly referenced, which pins its ``id``.
    """
    if score_cache is None:
        score_cache = {}
    alive: List[list] = []
    for cursor in cursors:
        if not cursor.exhausted:
            max_score = cursor.list_max_score
            blocks = cursor.posting_list.blocks
            alive.append([cursor.current_doc(), -max_score, max_score,
                          cursor.idf, cursor, cursor._lasts,
                          [b.metadata.max_term_score for b in blocks],
                          None, None])

    # BM25 term-score arithmetic, inlined with the exact operation order
    # of ``BM25Scorer.term_score``:
    #   idf * (tf * (k1 + 1.0)) / (tf + normalizer)
    normalizers = scorer._normalizers
    normalizer_nd = scorer.normalizer_array
    k1_plus_1 = scorer.params.k1 + 1.0
    offer = topk.offer
    # ``TopKQueue.cutoff`` inlined: 0.0 until the queue is full, else
    # the lowest resident score (entries are sorted ascending).
    topk_entries = topk._entries
    topk_k = topk.k
    cutoff = topk_entries[0][0] if len(topk_entries) >= topk_k else 0.0
    run_capable = et_wand and et_block and interval_blocks == 1
    merge_ops = docs_evaluated = docs_matched = topk_inserts = 0
    try:
        while alive:
            # (1) Sorter: order by (sID, -list max score), stable.
            alive.sort(key=_ENTRY_KEY)
            merge_ops += 1
            num_alive = len(alive)

            # (2)+(3) Score loader + pivot selector (WAND).
            if et_wand:
                upper_bound = 0.0
                pivot_index = -1
                for entry in alive:
                    pivot_index += 1
                    upper_bound += entry[2]
                    if upper_bound + ET_EPSILON > cutoff:
                        break
                else:
                    return
            else:
                pivot_index = 0
            pivot_doc = alive[pivot_index][0]
            while (pivot_index + 1 < num_alive
                   and alive[pivot_index + 1][0] == pivot_doc):
                pivot_index += 1

            if run_capable and pivot_index < 2:
                # ---- pair run ---------------------------------------
                # The loop below replays the union iterations on the
                # front pair (x, y) while the pivot set stays inside it.
                # The other lists do not move, so ``rest`` stays sorted
                # and ``limit`` is its first docID. Each pass re-sorts
                # the front (stable, as the full sort would: a swap of
                # the pair, or a re-sort with ``rest`` once a pair list
                # reaches ``limit``) and re-selects the pivot. On any
                # other shape it exits *before* counting the iteration,
                # which the outer loop then performs and counts itself.
                x = alive[0]
                y = alive[1] if num_alive > 1 else None
                rest = alive[2:]
                limit = rest[0][0] if rest else _NO_LIMIT
                counted = True
                while True:
                    xd = x[0]
                    if xd is None:
                        break
                    if y is None:
                        yd = _NO_LIMIT
                    else:
                        yd = y[0]
                        if yd is None:
                            break
                        if yd < xd or (yd == xd and y[1] < x[1]):
                            x, y = y, x
                            xd, yd = yd, xd
                        if yd >= limit:
                            # A pair list passed the third: re-sort the
                            # front as the full sort would.
                            front = [x, y] + rest
                            front.sort(key=_ENTRY_KEY)
                            x, y = front[0], front[1]
                            rest = front[2:]
                            limit = rest[0][0]
                            xd = x[0]
                            yd = y[0]
                    if xd >= limit:
                        break
                    if x[2] + ET_EPSILON > cutoff:
                        pair = yd == xd
                    elif yd < limit and x[2] + y[2] + ET_EPSILON > cutoff:
                        pair = True
                    else:
                        break
                    if not counted:
                        merge_ops += 1
                    counted = False

                    if pair:
                        # Pivot set [x, y] at y's docID: block check,
                        # then evaluate the tie or advance the follower.
                        xc = x[4]
                        yc = y[4]
                        lasts = x[5]
                        index = xc._block_index
                        if lasts[index] < yd:
                            index = bisect_left(lasts, yd, index + 1)
                        if index < len(lasts):
                            if index > xc._metadata_read_upto:
                                xc._charge_metadata(index)
                            bound = 0.0 + x[6][index]
                            boundary = lasts[index]
                        else:
                            bound = 0.0
                            boundary = _NO_LIMIT
                        index = yc._block_index
                        if index > yc._metadata_read_upto:
                            yc._charge_metadata(index)
                        bound += y[6][index]
                        if y[5][index] < boundary:
                            boundary = y[5][index]
                        if bound + ET_EPSILON <= cutoff:
                            d = boundary + 1
                            if limit < d:
                                d = limit
                            x[0] = _advance(xc, d)
                            y[0] = _advance(yc, d)
                            continue
                        if xd < yd:
                            # The follower advances to the pivot; inside
                            # its decoded block that is a bisect.
                            ids = xc._decoded_doc_ids
                            if ids is not None and ids[-1] >= yd:
                                pos = bisect_left(ids, yd,
                                                  xc._position + 1)
                                xc._position = pos
                                x[0] = ids[pos]
                            else:
                                x[0] = xc.advance_to(yd)
                            continue
                        normalizer = normalizers[xd]
                        tf = _tf(xc)
                        score = 0.0 + x[3] * (tf * k1_plus_1) / (tf + normalizer)
                        tf = _tf(yc)
                        score += y[3] * (tf * k1_plus_1) / (tf + normalizer)
                        docs_evaluated += 1
                        docs_matched += 1
                        topk_inserts += 1
                        offer(xd, score)
                        cutoff = (topk_entries[0][0]
                                  if len(topk_entries) >= topk_k else 0.0)
                        x[0] = _step(xc)
                        y[0] = _step(yc)
                        continue

                    # Sole leader x; the next list's docID is ``nd``.
                    nd = yd if yd < limit else limit
                    cursor = x[4]
                    index = cursor._block_index
                    if index > cursor._metadata_read_upto:
                        cursor._charge_metadata(index)
                    if x[6][index] + ET_EPSILON <= cutoff:
                        d = x[5][index] + 1
                        if nd < d:
                            d = nd
                        x[0] = _advance(cursor, d)
                        continue
                    # Evaluation forces the (modeled) payload fetch.
                    ids = cursor._decoded_doc_ids
                    if ids is None:
                        cursor._ensure_decoded()
                        ids = cursor._decoded_doc_ids
                    pos = cursor._position
                    size = len(ids)
                    end = size if nd > ids[-1] else bisect_left(ids, nd, pos)
                    # The run [pos, end) repeats one decision per posting
                    # until an offer is accepted: find the first ``j``
                    # whose score beats the cutoff (every offer enters
                    # while the queue is not full).
                    if cutoff == 0.0:
                        j = pos
                        tf = _tf(cursor)
                        score = 0.0 + x[3] * (tf * k1_plus_1) / (
                            tf + normalizers[xd])
                    elif end - pos >= _VECTOR_RUN:
                        if ids is not x[7]:
                            x[7] = ids
                            cached = score_cache.get(id(ids))
                            if cached is None:
                                ids_nd = np.frombuffer(ids, dtype=np.uint32)
                                tfs_f = np.frombuffer(
                                    cursor._decoded_tfs, dtype=np.uint32
                                ).astype(np.float64)
                                scores_nd = 0.0 + (
                                    x[3] * (tfs_f * k1_plus_1)
                                    / (tfs_f + normalizer_nd[ids_nd])
                                )
                                if len(score_cache) >= _SCORE_CACHE_LIMIT:
                                    score_cache.clear()
                                score_cache[id(ids)] = (ids, scores_nd)
                            else:
                                scores_nd = cached[1]
                            x[8] = scores_nd
                        else:
                            scores_nd = x[8]
                        above = scores_nd[pos:end] > cutoff
                        j = pos + int(above.argmax())
                        if j == pos and not above[0]:
                            j = end
                        else:
                            score = float(scores_nd[j])
                    else:
                        idf = x[3]
                        tfs = cursor._decoded_tfs
                        j = pos
                        while j < end:
                            tf = tfs[j]
                            score = 0.0 + idf * (tf * k1_plus_1) / (
                                tf + normalizers[ids[j]])
                            if score > cutoff:
                                break
                            j += 1
                    # Postings pos..j-1 were rejected: their identical
                    # iterations collapse into bulk counter additions
                    # (the queue counts the rejected offers).
                    rejected = j - pos
                    docs_evaluated += rejected
                    docs_matched += rejected
                    topk_inserts += rejected
                    topk._inserts += rejected
                    if j == end:
                        merge_ops += rejected - 1
                        if end < size:
                            cursor._position = end
                            x[0] = ids[end]
                        else:
                            cursor._position = size - 1
                            x[0] = _step_slow(cursor)
                        continue
                    merge_ops += rejected
                    docs_evaluated += 1
                    docs_matched += 1
                    topk_inserts += 1
                    offer(ids[j], score)
                    cutoff = (topk_entries[0][0]
                              if len(topk_entries) >= topk_k else 0.0)
                    if j + 1 < size:
                        cursor._position = j + 1
                        x[0] = ids[j + 1]
                    else:
                        cursor._position = j
                        x[0] = _step_slow(cursor)
                alive = [e for e in (x, y, *rest) if e is not None
                         and e[0] is not None]
                continue

            # ---- general iteration ---------------------------------
            pivot_set = alive[: pivot_index + 1]
            exhausted = False
            if et_block:
                bound = 0.0
                min_boundary = _NO_LIMIT
                if interval_blocks == 1:
                    for entry in pivot_set:
                        lasts = entry[5]
                        index = bisect_left(lasts, pivot_doc,
                                            entry[4]._block_index)
                        if index >= len(lasts):
                            continue
                        entry[4]._charge_metadata(index)
                        bound += entry[6][index]
                        block_last = lasts[index]
                        if block_last < min_boundary:
                            min_boundary = block_last
                else:
                    for entry in pivot_set:
                        peek = entry[4].peek_block_at(
                            pivot_doc, window=interval_blocks
                        )
                        if peek is None:
                            continue
                        max_score, block_last = peek
                        bound += max_score
                        if block_last < min_boundary:
                            min_boundary = block_last
                if bound + ET_EPSILON <= cutoff:
                    d = min_boundary + 1
                    if pivot_index + 1 < num_alive:
                        next_doc = alive[pivot_index + 1][0]
                        if next_doc < d:
                            d = next_doc
                    for entry in pivot_set:
                        doc = entry[0] = _advance(entry[4], d)
                        exhausted = exhausted or doc is None
                    if exhausted:
                        alive = [e for e in alive if e[0] is not None]
                    continue

            # (4) Document scheduler.
            if alive[0][0] == pivot_doc:
                score = 0.0
                normalizer = normalizers[pivot_doc]
                for entry in pivot_set:
                    if entry[0] == pivot_doc:
                        tf = _tf(entry[4])
                        score += (entry[3] * (tf * k1_plus_1)
                                  / (tf + normalizer))
                docs_evaluated += 1
                docs_matched += 1
                topk_inserts += 1
                offer(pivot_doc, score)
                cutoff = (topk_entries[0][0]
                          if len(topk_entries) >= topk_k else 0.0)
                for entry in pivot_set:
                    if entry[0] == pivot_doc:
                        doc = entry[0] = _step(entry[4])
                        exhausted = exhausted or doc is None
            else:
                for entry in pivot_set:
                    if entry[0] < pivot_doc:
                        doc = entry[0] = _advance(entry[4], pivot_doc)
                        exhausted = exhausted or doc is None
            if exhausted:
                alive = [e for e in alive if e[0] is not None]
    finally:
        work.merge_ops += merge_ops
        work.docs_evaluated += docs_evaluated
        work.docs_matched += docs_matched
        work.topk_inserts += topk_inserts


def run_grouped_intersection_columnar(groups: Sequence[GroupCursor],
                                      work: WorkCounters):
    """Grouped SvS intersection as a leapfrog over cached docIDs.

    Same matches, counters and cursor side effects as
    :func:`repro.core.intersection.run_grouped_intersection`. A list's
    successor inside its decoded block comes from a bisect over the
    block array; block transitions go through the cursor.
    """
    if not groups:
        raise SimulationError("intersection needs at least one group")
    ordered = sorted(groups, key=lambda g: g.document_frequency)
    if all(len(group.members) == 1 for group in ordered):
        matches, merge_ops = _leapfrog(
            [group.members[0] for group in ordered])
    else:
        matches, merge_ops = _grouped_leapfrog(ordered)
    work.merge_ops += merge_ops
    work.docs_matched += len(matches)
    return matches


def _leapfrog(cursors):
    """Leapfrog over single-list groups: ``(matches, merge_ops)``.

    A group of one list adds no merge operations of its own, so each
    candidate costs one; docIDs live in a local list (-1 = not yet
    primed, None = exhausted).
    """
    driver = cursors[0]
    others = range(1, len(cursors))
    docs = [-1] * len(cursors)
    merge_ops = 0
    matches = []
    doc = driver.current_doc()
    while doc is not None:
        merge_ops += 1
        for k in others:
            landed = docs[k]
            if landed is not None and landed < doc:
                cursor = cursors[k]
                if landed < 0:
                    landed = cursor.current_doc()
                if landed is not None and landed < doc:
                    ids = cursor._decoded_doc_ids
                    if ids is not None and ids[-1] >= doc:
                        pos = bisect_left(ids, doc, cursor._position + 1)
                        cursor._position = pos
                        landed = ids[pos]
                    else:
                        landed = cursor.advance_to(doc)
                docs[k] = landed
            if landed != doc:
                # Jumped past the candidate (or ran out): re-anchor the
                # driver at the jump target.
                doc = None if landed is None else _advance(driver, landed)
                break
        else:
            tfs = {driver.term: _tf(driver)}
            for k in others:
                tfs[cursors[k].term] = _tf(cursors[k])
            matches.append((doc, tfs))
            doc = _step(driver)
    return matches, merge_ops


def _grouped_leapfrog(ordered):
    """Leapfrog over OR-groups: ``(matches, merge_ops)``.

    Each group member is tracked as ``[doc, cursor]`` (doc None =
    exhausted; members are primed lazily, when the reference path first
    asks each group for its docID). A group of ``n`` live members adds
    ``n - 1`` merge operations per head computation, as
    :class:`GroupCursor` does.
    """
    members = [[[None, member] for member in group.members]
               for group in ordered]
    primed = [False] * len(ordered)
    merge_ops = 0
    matches = []

    def head(group: int, target: int) -> Optional[int]:
        """Advance the group's members to ``target``; its new head."""
        nonlocal merge_ops
        entries = members[group]
        if not primed[group]:
            primed[group] = True
            for entry in entries:
                entry[0] = entry[1].current_doc()
        best = None
        live = 0
        for entry in entries:
            doc = entry[0]
            if doc is None:
                continue
            if doc < target:
                doc = entry[0] = _advance(entry[1], target)
                if doc is None:
                    continue
            live += 1
            if best is None or doc < best:
                best = doc
        if live > 1:
            merge_ops += live - 1
        return best

    last = len(ordered) - 1
    doc = head(0, -1)
    while doc is not None:
        merge_ops += 1
        candidate = doc
        group = 1
        while group <= last:
            landed = head(group, candidate)
            if landed != candidate:
                doc = None if landed is None else head(0, landed)
                break
            group += 1
        else:
            # Every group holds the candidate: collect the tfs of each
            # member on it (one head computation per group, as
            # ``GroupCursor.current_tfs`` does), then step the driver.
            tfs = {}
            for group in range(last + 1):
                head(group, -1)
                for entry in members[group]:
                    if entry[0] == candidate:
                        tfs[entry[1].term] = _tf(entry[1])
            matches.append((candidate, tfs))
            head(0, -1)
            for entry in members[0]:
                if entry[0] == candidate:
                    entry[0] = _step(entry[1])
            doc = head(0, -1)
    return matches, merge_ops


def score_matches_columnar(matches: Sequence[Tuple[int, Dict[str, int]]],
                           index, topk: TopKQueue,
                           work: WorkCounters) -> None:
    """Scoring + top-k modules for set-operation outputs.

    When every match carries the same term tuple in the same order (AND
    over plain terms: the group order is df-sorted and every term is
    present at every match) and there are at least
    :data:`_VECTOR_MATCHES` of them, per-doc scores are one vectorized
    BM25 accumulation per term — the same left-to-right float summation
    order as the scalar loop, which scores everything else.
    """
    if not matches:
        return
    scorer = index.scorer
    term_order = tuple(matches[0][1])
    if len(matches) < _VECTOR_MATCHES or not all(
            tuple(tfs) == term_order for _, tfs in matches):
        for doc, tfs in matches:
            score = 0.0
            for term, tf in tfs.items():
                score += scorer.term_score(
                    index.posting_list(term).idf, tf, doc
                )
            work.docs_evaluated += 1
            work.topk_inserts += 1
            topk.offer(doc, score)
        return
    docs = np.array([doc for doc, _ in matches], dtype=np.int64)
    totals = np.zeros(len(matches), dtype=np.float64)
    for term in term_order:
        idf = index.posting_list(term).idf
        tfs_nd = np.array([tfs[term] for _, tfs in matches],
                          dtype=np.float64)
        totals += scorer.score_array(idf, tfs_nd, docs)
    work.docs_evaluated += len(matches)
    work.topk_inserts += len(matches)
    offer = topk.offer
    for i, (doc, _) in enumerate(matches):
        offer(doc, float(totals[i]))
