"""Brute-force BM25 top-k: the benchmark's answer checker.

Independent of every executor the benchmark measures: posting lists are
decoded with the codecs' per-value reference decoders
(``CompressedPostingList.decode_all``), the boolean condition is
evaluated as sorted-array set algebra, and every query term a matching
document contains is scored with the BM25 formula over the index's
stored per-document normalizers. Answers are compared with a score
tolerance, so an executor that sums term scores in another order still
agrees, while a document that does not match, a wrong score or a
missed better document is a mismatch.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import AndNode, QueryNode, TermNode, flatten

#: Relative score tolerance (scores are O(1..50); float64 sums of at
#: most 16 terms in any order agree far inside this).
SCORE_TOLERANCE = 1e-9


class BruteForceBM25:
    """Exhaustive BM25 evaluation over one :class:`InvertedIndex`."""

    def __init__(self, index) -> None:
        self._index = index
        scorer = index.scorer
        self._k1 = scorer.params.k1
        self._normalizers = np.array(
            [scorer.length_normalizer(d) for d in range(scorer.id_space)],
            dtype=np.float64,
        )
        self._lists: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def _term(self, term: str) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted docIDs of ``term`` and their BM25 term scores."""
        cached = self._lists.get(term)
        if cached is None:
            plist = self._index.posting_list(term)
            postings = plist.decode_all()
            docs = np.array([p.doc_id for p in postings], dtype=np.int64)
            tfs = np.array([p.tf for p in postings], dtype=np.float64)
            scores = (plist.idf * (tfs * (self._k1 + 1.0))
                      / (tfs + self._normalizers[docs]))
            cached = (docs, scores)
            self._lists[term] = cached
        return cached

    def _matching(self, node: QueryNode) -> np.ndarray:
        if isinstance(node, TermNode):
            return self._term(node.term)[0]
        parts = [self._matching(child) for child in node.children]
        out = parts[0]
        for part in parts[1:]:
            out = (np.intersect1d(out, part, assume_unique=True)
                   if isinstance(node, AndNode) else np.union1d(out, part))
        return out

    def scored(self, node: QueryNode) -> Tuple[np.ndarray, np.ndarray]:
        """Every matching document and its full BM25 score."""
        node = flatten(node)
        docs = self._matching(node)
        totals = np.zeros(len(docs), dtype=np.float64)
        for term in sorted(set(node.terms())):
            term_docs, term_scores = self._term(term)
            pos = np.searchsorted(term_docs, docs)
            inside = pos < len(term_docs)
            present = np.zeros(len(docs), dtype=bool)
            present[inside] = term_docs[pos[inside]] == docs[inside]
            totals[present] += term_scores[pos[present]]
        return docs, totals


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_TOLERANCE * max(1.0, abs(b))


def check_hits(hits: Sequence[Tuple[int, float]], oracle: BruteForceBM25,
               node: QueryNode, k: int,
               doc_map: Optional[Sequence[int]] = None) -> Optional[str]:
    """``None`` when ``hits`` is a correct top-``k``, else the reason.

    ``doc_map`` translates the oracle index's docIDs (a compact rebuild)
    into the docIDs ``hits`` uses. Rank ``i`` may hold any document
    whose oracle score ties the oracle's rank-``i`` score within
    tolerance, so equal-score ties at the cut are not mismatches.
    """
    docs, scores = oracle.scored(node)
    if doc_map is not None:
        docs = np.asarray(doc_map, dtype=np.int64)[docs]
    expected = np.sort(scores)[::-1][:k]
    if len(hits) != len(expected):
        return f"{len(hits)} hits, oracle has {len(expected)}"
    score_of = dict(zip(docs.tolist(), scores.tolist()))
    seen = set()
    for rank, (doc, score) in enumerate(hits):
        if doc in seen:
            return f"doc {doc} returned twice"
        seen.add(doc)
        truth = score_of.get(doc)
        if truth is None:
            return f"doc {doc} does not match the query"
        if not _close(score, truth):
            return f"doc {doc} scored {score!r}, oracle {truth!r}"
        if not _close(truth, float(expected[rank])):
            return (f"rank {rank} holds doc {doc} ({truth!r}); oracle "
                    f"rank {rank} scores {float(expected[rank])!r}")
    return None
