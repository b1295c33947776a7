"""Smoke test of the benchmark itself.

Not collected by tier-1 (whose ``testpaths`` is ``tests/``); run it as
``python -m pytest bench/tests -q``.  Every workload runs at 1/50 of its
usual length, in both modes, and must emit exactly the metric names
``BENCHMARK.json`` lists for it.
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py; bootstraps sys.path for repro)
from etsnbench import admit, core, netdriver, spec  # noqa: E402

BENCHMARK = spec.load()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"] / 50


@pytest.fixture(scope="module")
def records():
    """Every workload, untraced and traced, at 1/50 scale."""
    server_cpu = core.pin_cpus()
    started = time.perf_counter()
    done = {
        (workload, trace): run.run_workload(
            BENCHMARK, workload, seed=3, seconds=SECONDS, trace=trace,
            server_cpu=server_cpu,
        )
        for workload in WORKLOADS
        for trace in (False, True)
    }
    done["wall_s"] = time.perf_counter() - started
    return done


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    names = [m["name"] for m in
             BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert len(BENCHMARK["per_layer"]) <= 128
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"]
    )
    # every per-layer metric says which workloads measure it, and
    # every workload measures something of its own
    assert set(spec.APPLIES) == {m["name"] for m in BENCHMARK["per_layer"]}
    for workloads in spec.APPLIES.values():
        assert set(workloads) <= set(WORKLOADS)
    assert spec.EXACT <= set(spec.APPLIES)


def test_every_workload_is_correct_and_quick(records):
    assert records["wall_s"] < 20, (
        f"the 1/50-scale set took {records['wall_s']:.1f} s"
    )
    for key, record in records.items():
        if key == "wall_s":
            continue
        assert record["correct"], (key, record["problems"])
        assert record["attempted"] >= 1 and record["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_emits_every_named_metric_and_nothing_else(records, workload, trace):
    record = records[(workload, trace)]
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    # the result line carries every listed metric ...
    assert list(record["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = record["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    # ... and the workload measured exactly the ones that apply to it
    assert record["measured"] == sorted(
        spec.expected(BENCHMARK, workload, trace)
    )
    if not trace:
        for name, entry in record["metrics"].items():
            assert entry["value"] > 0, f"{name} must never read 0"
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_file_parses_and_parents_resolve(records, workload):
    path = core.OUT_DIR / f"trace-{workload}.jsonl"
    spans = [json.loads(line) for line in open(path)]
    assert spans
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans)
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        assert span["parent"] == 0 or span["parent"] in ids
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", span["name"])
    assert any(span["name"] == "op" for span in spans)
    coverage = records[(workload, True)]["metrics"]["trace.coverage_frac"]
    assert coverage["value"] >= 0.9


def test_a_wrong_verdict_counts_as_failed():
    """The oracle is live: a decision that contradicts the workload's
    design shows up in ``failed`` (and so in ``failed_frac``)."""
    outcome = core.Outcome()

    class Accepted:
        accepted, reason, attempts, stream = True, None, {}, "x"

    outcome.attempted += 1
    admit._judge(admit.DESIGNED_REJECT, Accepted, outcome)
    assert outcome.failed == 1 and outcome.problems

    accepted_read = {"ok": True, "decision": {"accepted": True}}
    assert not netdriver.good_verdict(netdriver.READ, accepted_read)
    refused = {"ok": False, "error": "server_busy"}
    assert not netdriver.good_verdict(netdriver.ADMIT, refused)
    floor_reject = {"ok": True, "decision": {
        "accepted": False, "reason": "e2e-floor: needs more wire time",
    }}
    assert netdriver.good_verdict(netdriver.READ, floor_reject)
    assert not netdriver.good_verdict(netdriver.REMOVE, floor_reject)


def test_span_recorder_self_time_and_coverage():
    spans = core.SpanRecorder()
    spans.next_op()
    with spans.span("op"):
        with spans.span("layer.a"):
            with spans.span("layer.b"):
                pass
        with spans.span("layer.shadow", shadow=True):
            pass
    own = spans.self_times_ns()
    by_name = {row[3]: row for row in spans.rows}
    a, b = by_name["layer.a"], by_name["layer.b"]
    assert own[a[0]] == (a[5] - a[4]) - (b[5] - b[4])
    assert 0 < spans.coverage("op") <= 1
    assert spans.shadow_ns() == (
        by_name["layer.shadow"][5] - by_name["layer.shadow"][4]
    )
