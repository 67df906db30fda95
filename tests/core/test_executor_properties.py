"""Differential property test: columnar kernels vs the reference oracle.

Hypothesis builds small corpora whose posting lists take the shapes the
serving kernels special-case — lists that end exactly at a block
boundary or fit one block, a short driver list that runs out while the
other lists sit mid-block, twin lists with equal list-max scores (the
sort tie fixes the order in which scores are summed), OR-groups sharing
docIDs — and runs every Table II query shape under every ET ablation,
``k=1`` included. The serving engine must match
:class:`ReferenceAccelerator` on hits (to the last bit), every work
counter, per-bucket traffic, the observability trace and the
``fetch_log`` sequence, cold and with warm caches.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BossAccelerator, BossConfig
from repro.core.engine import ReferenceAccelerator
from repro.index import IndexBuilder
from repro.observability import RecordingObserver
from tests.test_fastpath_equivalence import _assert_results_identical

TERMS = ("a", "b", "c", "d")

#: Document frequencies at and around block boundaries (128 postings).
BOUNDARY_DFS = (1, 2, 127, 128, 129, 255, 256, 257)

SHAPES = (
    '"{0}"',
    '"{0}" OR "{1}"',
    '"{0}" OR "{1}" OR "{2}" OR "{3}"',
    '"{0}" AND "{1}"',
    '"{0}" AND "{1}" AND "{2}" AND "{3}"',
    '"{0}" AND ("{1}" OR "{2}" OR "{3}")',
    '("{0}" OR "{1}") AND ("{2}" OR "{3}")',
    '("{0}" AND "{1}") OR "{2}"',
)

ABLATIONS = {
    "default": BossConfig(),
    "exhaustive": BossConfig().exhaustive(),
    "block_only": BossConfig().block_only(),
    "wand_only": BossConfig(et_block=False, et_wand=True),
    "interval3": BossConfig(et_interval_blocks=3),
}


@st.composite
def corpora(draw):
    """Documents over TERMS (plus a filler) with drawn list shapes."""
    num_docs = draw(st.integers(min_value=1, max_value=520))
    rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 16)))
    dfs = draw(st.lists(
        st.one_of(st.sampled_from(BOUNDARY_DFS),
                  st.integers(min_value=1, max_value=520)),
        min_size=len(TERMS), max_size=len(TERMS),
    ))
    max_tf = draw(st.sampled_from([1, 3, 12]))
    # Tail lists: a term's postings packed at the end of the docID space
    # make a driver that runs out while the others are mid-block.
    tails = draw(st.lists(st.booleans(), min_size=len(TERMS),
                          max_size=len(TERMS)))
    # Lists drawn from a small shared pool overlap heavily: OR-group
    # members share docIDs and union cursors tie on the same docID.
    pool = rng.sample(range(num_docs),
                      draw(st.integers(min_value=1, max_value=num_docs)))
    postings = {}
    for term, df, tail in zip(TERMS, dfs, tails):
        if tail:
            docs = range(num_docs - min(df, num_docs), num_docs)
        else:
            docs = sorted(rng.sample(pool, min(df, len(pool))))
        postings[term] = {doc: rng.randint(1, max_tf) for doc in docs}
    if draw(st.booleans()):
        # Twin lists: identical postings, so equal list-max scores and
        # equal per-document scores.
        postings["b"] = dict(postings["a"])
    documents = []
    for doc in range(num_docs):
        tokens = ["pad"] * rng.randint(1, 4)
        for term in TERMS:
            tokens += [term] * postings[term].get(doc, 0)
        documents.append(tokens)
    return documents


@st.composite
def cases(draw):
    documents = draw(corpora())
    scheme = draw(st.sampled_from([None, "VB", "BP", "S16", "OptPFD"]))
    config = ABLATIONS[draw(st.sampled_from(sorted(ABLATIONS)))]
    k = draw(st.sampled_from([1, 2, 10]))
    order = draw(st.permutations(TERMS))
    return documents, scheme, config, k, order


def _engine(engine_class, index, config):
    observer = RecordingObserver()
    engine = engine_class(index, config, observer=observer)
    engine.fetch_log = []
    return engine, observer


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_serving_kernels_match_reference(case):
    documents, scheme, config, k, order = case
    builder = IndexBuilder(schemes=None if scheme is None else [scheme])
    for tokens in documents:
        builder.add_document(tokens)
    index = builder.build()
    serving, serving_observer = _engine(BossAccelerator, index, config)
    reference, reference_observer = _engine(ReferenceAccelerator, index,
                                            config)
    queries = [shape.format(*order) for shape in SHAPES]
    # The second pass runs on warm decoded-block and block-score caches.
    for pass_number in (1, 2):
        for expression in queries:
            context = (pass_number, expression)
            start = len(serving.fetch_log)
            _assert_results_identical(
                serving.search(expression, k=k),
                reference.search(expression, k=k),
                context,
            )
            assert serving.fetch_log[start:] == \
                reference.fetch_log[start:], context
    assert [trace.to_dict() for trace in serving_observer.traces] == \
        [trace.to_dict() for trace in reference_observer.traces]
