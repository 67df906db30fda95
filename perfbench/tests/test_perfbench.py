"""Self-tests for the repository benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Tiny-sized runs of every workload must emit every metric BENCHMARK.json
names, with its unit; modeled figures must repeat bit for bit for one
seed and move with another; the oracle must catch a wrong hit; and the
span recorder's self-time arithmetic is pinned on a hand-built tree.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from layers import UNITS  # noqa: E402
from oracle import BruteForceBM25, check_hits  # noqa: E402
from scenarios import SCENARIOS  # noqa: E402
from compare import verdict  # noqa: E402
from spans import COUNT, Probe, SpanRecorder, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODELED = ("modeled_qps", "modeled_p50_us", "modeled_p99_us",
           "scm_bytes_per_req", "write_amp")


def tiny(workload, seed=3, trace=False):
    return run.measure(workload, seed, seconds=0, trace=trace, size="tiny")


@pytest.fixture(scope="module")
def records():
    return {(w, trace): tiny(w, trace=trace)
            for w in run.WORKLOADS for trace in (False, True)}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(records, workload,
                                                   trace, section):
    record = records[(workload, trace)]
    assert record["correct"], record["failures"]
    assert record["attempted"] > 0 and record["failed"] == 0
    if not trace:
        metrics = {k: v["value"] for k, v in record["metrics"].items()}
        assert metrics["error_rate"] == 0
        speed = run.REF_LOOP_S * 1e3 / metrics["ref_loop_ms"]
        assert metrics["norm_p50_ms"] == pytest.approx(
            metrics["wall_p50_ms"] * speed)
        assert metrics["norm_qps"] == pytest.approx(
            metrics["wall_qps"] / speed)
    for metric in SPEC[section]:
        emitted = record["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))
    # Nothing is emitted that BENCHMARK.json does not name, apart from
    # error_rate (the driver line's attempted/failed), the raw wall
    # metrics and the reference loop they are normalized by.
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {
        "error_rate", "wall_qps", "wall_p50_ms", "wall_p99_ms",
        "ref_loop_ms"}
    expected = end_to_end if not trace else set(UNITS) - end_to_end
    assert set(record["metrics"]) == expected


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_modeled_metrics_repeat_per_seed_and_move_with_it(records,
                                                          workload):
    def modeled(record):
        return {name: record["metrics"][name]["value"] for name in MODELED}

    first = modeled(records[(workload, False)])
    assert modeled(tiny(workload)) == first
    other = modeled(tiny(workload, seed=4))
    assert other["modeled_qps"] != first["modeled_qps"]
    assert other["scm_bytes_per_req"] != first["scm_bytes_per_req"]


def test_compare_needs_nine_tenths_of_pairs_for_a_gain():
    # Lower is better; base runs 100 +- 1 (spread 0.02 of the median).
    base = [99.0, 100.0, 101.0, 100.0, 99.5, 100.5, 100.0, 99.0, 101.0,
            100.0]
    faster = [b * 0.9 for b in base]
    assert verdict(list(zip(base, faster)), "lower", 0.25) == "better"
    # Nine faster pairs and one slower pair still win 9/10.
    mixed = faster[:9] + [base[9] * 1.05]
    assert verdict(list(zip(base, mixed)), "lower", 0.25) == "better"
    # Two losing pairs: not a gain, and inside the bound.
    mixed = faster[:8] + [b * 1.05 for b in base[8:]]
    assert verdict(list(zip(base, mixed)), "lower", 0.25) == "same"
    slower = [b * 1.3 for b in base]
    assert verdict(list(zip(base, slower)), "lower", 0.25) == "regressed"
    assert verdict(list(zip(base, slower)), "higher", 0.25) == "better"
    # Base runs spreading wider than the bound cannot show a small change.
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert verdict(list(zip(wide, [w * 1.1 for w in wide])), "lower",
                   0.25) == "unresolved"


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def paper_pass():
    scenario = SCENARIOS["paper-batch"](3, "tiny")
    inputs = scenario.inputs(0)
    state = scenario.setup(inputs)
    return scenario, inputs, state, scenario.run(inputs, state)


def test_oracle_accepts_the_engine_answers(paper_pass):
    scenario, inputs, state, result = paper_pass
    assert scenario.check(inputs, state, result) == []


def _tampered(result, position, hits):
    answers = list(result.raw)
    answers[position] = hits
    return type(result)(**{**result.__dict__, "raw": answers})


def test_oracle_flags_an_injected_wrong_hit(paper_pass):
    scenario, inputs, state, result = paper_pass
    corpus, _ = state
    position = next(i for i, hits in enumerate(result.raw)
                    if len(hits) > 1 and hits[0][1] - hits[1][1] > 1e-6)
    hits = list(result.raw[position])
    oracle = BruteForceBM25(corpus.index)
    from repro.core.query import parse_query

    matching, _ = oracle.scored(parse_query(inputs.requests[position]))
    outsider = next(d for d in range(corpus.index.stats.num_docs)
                    if d not in set(matching.tolist()))
    wrong_doc = hits[:-1] + [(outsider, hits[-1][1])]
    wrong_score = hits[:-1] + [(hits[-1][0], hits[-1][1] * 1.01)]
    missing_best = hits[1:] + [hits[0]]
    for bad in (wrong_doc, wrong_score, missing_best):
        failures = scenario.check(inputs, state,
                                  _tampered(result, position, bad))
        assert len(failures) == 1, bad


def test_oracle_accepts_either_tied_document_but_not_duplicates():
    from repro.core.query import parse_query
    from repro.index import IndexBuilder

    builder = IndexBuilder()
    for tokens in (["a", "b"], ["a", "b"], ["a", "c", "c"], ["b"]):
        builder.add_document(tokens)
    oracle = BruteForceBM25(builder.build())
    node = parse_query('"a"')
    docs, scores = oracle.scored(node)
    tied = dict(zip(docs.tolist(), scores.tolist()))
    assert tied[0] == tied[1] > tied[2]
    assert check_hits([(0, tied[0])], oracle, node, 1) is None
    assert check_hits([(1, tied[1])], oracle, node, 1) is None
    assert check_hits([(2, tied[2])], oracle, node, 1) is not None
    assert check_hits([(0, tied[0]), (0, tied[0])], oracle, node,
                      2) is not None


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, 7],
        ["b", 5.0, 9.0, 0, 7],
        ["a", 6.0, 7.0, 2, 7],
    ]
    assert self_times(spans) == {"root": 3.0, "a": 4.0, "b": 3.0}


def leaf(x):
    return x + 1


def branch(x):
    return leaf(x) * leaf(x)


def test_recorder_wraps_call_sites_and_restores_them():
    original = branch
    recorder = SpanRecorder()
    recorder.install([Probe(__name__, "branch", "layer.branch"),
                      Probe(__name__, "leaf", "layer.leaf"),
                      Probe(__name__, "self_times", "counted", COUNT)])
    try:
        recorder.request = 5
        assert branch(2) == 9
    finally:
        recorder.uninstall()
    assert branch is original
    names = [span[0] for span in recorder.spans]
    assert names == ["layer.branch", "layer.leaf", "layer.leaf"]
    assert [span[3] for span in recorder.spans] == [-1, 0, 0]
    assert all(span[4] == 5 for span in recorder.spans)
    assert recorder.counts["layer.leaf.calls"] == 2
    self_seconds = self_times(recorder.spans)
    total = recorder.spans[0][2] - recorder.spans[0][1]
    assert sum(self_seconds.values()) == pytest.approx(total)


def test_every_probe_resolves_to_a_call_site():
    from layers import probes

    recorder = SpanRecorder()
    recorder.install(probes())
    recorder.uninstall()
