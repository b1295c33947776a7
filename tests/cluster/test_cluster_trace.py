"""Trace propagation through the cluster coordinator.

ONE cluster admission batch — the coordinator's batch span, the
admission batch, its requests, rungs and solves — yields ONE trace tree
under a single ``trace_id``, and ``repro trace cluster`` renders it
byte-stably (pinned by a golden file).  Regenerate the golden with::

    PYTHONPATH=src python -m repro trace cluster \
        > tests/cluster/golden_cluster_trace.txt
"""

import pathlib

import pytest

from repro.cli import main
from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import simulation_topology
from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.obs import Tracer, render_trace_tree
from repro.service import AdmitTct

GOLDEN = pathlib.Path(__file__).parent / "golden_cluster_trace.txt"


def _tct(name, src, dst):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(8), length_bytes=1000,
        priority=Priorities.NSH_PH,
    ))


@pytest.fixture
def traced_coordinator():
    tracer = Tracer()
    partition = partition_topology(
        simulation_topology(), 2, seeds=["SW1", "SW4"]
    )
    coordinator = ClusterCoordinator(partition=partition, tracer=tracer)
    return coordinator, tracer


class TestSingleTraceTree:
    def test_batch_fanout_shares_one_trace_id(self, traced_coordinator):
        """Every span of a two-shard batch — batch, admission batch,
        rung, solve — carries the coordinator's trace."""
        coordinator, tracer = traced_coordinator
        decisions = coordinator.submit_many([
            _tct("a", "D1", "D4"),        # shard0-local
            _tct("b", "D10", "D12"),      # shard1-local
        ])
        assert all(d.accepted for d in decisions)
        spans = tracer.spans()
        assert {s.trace_id for s in spans} == {spans[0].trace_id}
        names = {s.name for s in spans}
        assert "cluster.batch" in names
        assert "admission.batch" in names
        assert "admission.rung" in names

    def test_cross_shard_admit_joins_the_same_trace(self, traced_coordinator):
        """A cross-shard admit is an ordinary admit inside the batch's
        trace."""
        coordinator, tracer = traced_coordinator
        decision = coordinator.submit(_tct("x", "D1", "D12"))
        assert decision.accepted
        spans = tracer.spans()
        assert len({s.trace_id for s in spans}) == 1
        names = {s.name for s in spans}
        for required in ("cluster.batch", "admission.batch",
                         "admission.request", "admission.rung", "solve"):
            assert required in names, f"missing span {required!r}"
        batch = next(s for s in spans if s.name == "cluster.batch")
        assert batch.attributes["cross"] == 1

    def test_every_span_parents_inside_the_trace(self, traced_coordinator):
        """No orphans: each span's parent_id is another recorded span
        (except the single root)."""
        coordinator, tracer = traced_coordinator
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        spans = tracer.spans()
        ids = {s.span_id for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "cluster.batch"
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in ids


class TestDeterministicRendering:
    def _render(self, capsys):
        assert main(["trace", "cluster"]) == 0
        return capsys.readouterr().out

    def test_matches_golden(self, capsys):
        assert self._render(capsys) == GOLDEN.read_text(), (
            "cluster trace tree drifted from the golden file; if the "
            "change is intentional, regenerate it (see module docstring)"
        )

    def test_rendering_is_reproducible(self, capsys):
        assert self._render(capsys) == self._render(capsys)

    def test_golden_is_one_trace(self):
        text = GOLDEN.read_text()
        assert text.count("trace ") == 1
        assert "(orphaned)" not in text

    def test_out_flag_writes_replayable_spans(self, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        assert main(["trace", "cluster", "--out", str(out)]) == 0
        rendered = capsys.readouterr().out
        from repro.serialization import load_trace

        spans = load_trace(str(out))
        assert render_trace_tree(spans) + "\n" == rendered


class TestDisabledTracerStaysFree:
    def test_null_tracer_cluster_records_nothing(self):
        partition = partition_topology(
            simulation_topology(), 2, seeds=["SW1", "SW4"]
        )
        coordinator = ClusterCoordinator(partition=partition)
        assert coordinator.submit(_tct("x", "D1", "D12")).accepted
        assert coordinator.tracer.spans() == []
