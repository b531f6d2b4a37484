"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs all four workloads at ``--scale 0.05`` for one second each, then
one traced run, and checks the harness's own promises: every metric
``BENCHMARK.json`` names comes out with its unit, no span's children
outlast it, and a wrong answer is counted as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

import run as harness  # noqa: E402
from spans import self_times  # noqa: E402

SCALE = 0.05
SECONDS = 1


@pytest.fixture(scope="module")
def contract():
    return harness.contract()


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("perf-out")


def check_metrics(record, wanted):
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    assert set(record["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        metric = record["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], entry["name"]
        assert isinstance(metric["value"], (int, float)), entry["name"]


def test_every_end_to_end_metric_on_every_workload(contract, out):
    for workload in contract["workloads"]:
        record = harness.run_workload(workload["name"], seed=3,
                                      seconds=SECONDS, trace=False,
                                      scale=SCALE, out=out)
        check_metrics(record, contract["end_to_end"])
        for entry in contract["end_to_end"]:
            assert record["metrics"][entry["name"]]["value"] > 0


def test_traced_run_names_every_layer(contract, out):
    record = harness.run_workload("local-uniform", seed=3,
                                  seconds=SECONDS, trace=True,
                                  scale=SCALE, out=out)
    check_metrics(record, contract["per_layer"])
    spans = json.loads((out / "trace.json").read_text())["spans"]
    assert spans
    for span in spans:
        length = span["end"] - span["start"]
        assert length >= 0
        # self time = span - what its children cover: never negative,
        # never more than the span
        assert -1e-6 <= span["self"] <= length + 1e-6, span["name"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"], span["name"]
            assert span["end"] <= parent["end"], span["name"]
    assert self_times([(s["name"], s["start"], s["end"], s["parent"],
                        s["request"]) for s in spans]) == pytest.approx(
        [s["self"] for s in spans])


def test_a_wrong_answer_is_a_failure():
    from fixtures import mix_graph, node_order, request_list
    from oracle import Failure, Oracle
    from repro import CompressedGraph
    from workloads import methods
    import random

    handle = CompressedGraph.compress(*mix_graph(SCALE))
    derived = handle.decompress()
    requests = request_list(random.Random(5), 80, node_order(derived))
    ask = methods(handle)
    answers = [ask[kind](*args) for kind, *args in requests]
    oracle = Oracle(derived, handle.alphabet)
    assert oracle.failures(requests, answers) == 0
    for position, (kind, *_) in enumerate(requests):
        if kind == "reach":
            answers[position] = not answers[position]   # corrupt one
            break
    assert oracle.failures(requests, answers) == 1
    other = 0 if position else 1
    answers[other] = Failure(RuntimeError("boom"))      # and an error
    assert oracle.failures(requests, answers) == 2
