"""CLI tests (in-process, via main())."""

import json

import pytest

from repro.cli import main
from repro.model.units import milliseconds
from repro.serialization import schedule_to_dict, topology_to_dict


@pytest.fixture
def state_file(tmp_path, star_topology):
    """A persisted schedule with one stream already admitted."""
    from repro.core.baselines import schedule_etsn
    from repro.model.stream import Priorities, Stream

    period = milliseconds(8)
    schedule = schedule_etsn(star_topology, [Stream(
        name="base", path=tuple(star_topology.shortest_path("D1", "D3")),
        e2e_ns=period, priority=Priorities.NSH_PL,
        length_bytes=1500, period_ns=period,
    )], [])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(schedule_to_dict(schedule)))
    return path


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo", "--width", "50"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "legend" in out
        assert "s2#ps5" in out

    def test_fig12_short(self, capsys):
        assert main(["fig12", "--duration-ms", "200"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 12" in out
        assert "period_x8" in out

    def test_fig15_short(self, capsys):
        assert main(["fig15", "--duration-ms", "200"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 15" in out
        assert "non-shared" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["bench", "diff", "a", "b"],
        ["loadgen", "--port", "1", "--endpoint", "D1:D2"],
        ["events", "tail", "x.jsonl"],
    ], ids=["bench", "loadgen", "events"])
    def test_bench_verb_is_gone(self, capsys, argv):
        """``bench/run.py`` is the one benchmark command and the one
        load generator; the span trace is the one admission record."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_check_flow_verb_is_gone(self, capsys):
        """Lock order is declared once and checked on every acquire
        (``repro.check.locks``); there is no static lock-order verb."""
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "flow", "src/repro"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'flow'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["serve"], ["cluster", "serve"]],
                             ids=["serve", "cluster-serve"])
    def test_events_flag_is_gone(self, capsys, command):
        """Admission decisions are recorded by ``--trace`` alone."""
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--topology", "topo.json", "--events", "x"])
        assert exit_info.value.code == 2
        assert "--events" in capsys.readouterr().err


class TestAdmitCommand:
    def test_accept_prints_decision_json(self, capsys, tmp_path, state_file):
        out_path = tmp_path / "updated.json"
        code = main([
            "admit", "--state", str(state_file), "--out", str(out_path),
            "--name", "newcomer", "--source", "D2", "--dest", "D3",
            "--period-us", "8000",
        ])
        assert code == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["accepted"] is True
        assert decision["stream"] == "newcomer"
        assert decision["rung"] == "fastpath"
        # the updated state round-trips and contains the newcomer
        from repro.serialization import schedule_from_dict
        updated = schedule_from_dict(json.loads(out_path.read_text()))
        assert any(s.name == "newcomer" for s in updated.streams)

    def test_reject_exits_nonzero(self, capsys, state_file):
        code = main([
            "admit", "--state", str(state_file),
            "--name", "hog", "--source", "D2", "--dest", "D3",
            "--period-us", "4000", "--length", str(40 * 1500),
        ])
        assert code == 1
        decision = json.loads(capsys.readouterr().out)
        assert decision["accepted"] is False
        assert decision["reason"]

    def test_remove(self, capsys, state_file):
        code = main(["admit", "--state", str(state_file), "--remove", "base"])
        assert code == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["op"] == "remove"
        assert decision["accepted"] is True

    def test_missing_flags_rejected(self, state_file):
        with pytest.raises(SystemExit):
            main(["admit", "--state", str(state_file), "--name", "x"])


class TestServeCommand:
    def _requests_file(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        return path

    def _topology_file(self, tmp_path, topology):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topology_to_dict(topology)))
        return path

    def test_serves_request_stream(self, capsys, tmp_path, star_topology):
        topo_path = self._topology_file(tmp_path, star_topology)
        requests = self._requests_file(tmp_path, [
            {"op": "admit-tct", "name": "a", "source": "D1",
             "destination": "D3", "period_ns": milliseconds(8),
             "length_bytes": 1500},
            {"op": "admit-ect", "name": "e", "source": "D2",
             "destination": "D3", "min_interevent_ns": milliseconds(16),
             "length_bytes": 512, "possibilities": 2},
            {"op": "remove", "name": "a"},
        ])
        metrics_path = tmp_path / "metrics.json"
        state_path = tmp_path / "final.json"
        code = main([
            "serve", "--topology", str(topo_path),
            "--requests", str(requests),
            "--metrics-out", str(metrics_path),
            "--save-state", str(state_path),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        decisions = [json.loads(line) for line in lines]
        assert [d["op"] for d in decisions] == [
            "admit-tct", "admit-ect", "remove"]
        assert all(d["accepted"] for d in decisions)
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["requests.total"] == 3
        # the saved final state reloads and revalidates
        from repro.serialization import schedule_from_dict
        final = schedule_from_dict(json.loads(state_path.read_text()))
        assert [e.name for e in final.ect_streams] == ["e"]

    def test_fail_on_reject(self, capsys, tmp_path, star_topology):
        topo_path = self._topology_file(tmp_path, star_topology)
        requests = self._requests_file(tmp_path, [
            {"op": "remove", "name": "ghost"},
        ])
        code = main([
            "serve", "--topology", str(topo_path),
            "--requests", str(requests), "--fail-on-reject",
        ])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        decision = json.loads(lines[0])
        assert decision["accepted"] is False
        # metrics land on stdout when no --metrics-out is given
        assert "metrics" in json.loads(lines[-1])

    def test_malformed_request_line_is_a_clean_error(
        self, capsys, tmp_path, star_topology
    ):
        topo_path = self._topology_file(tmp_path, star_topology)
        requests = self._requests_file(tmp_path, [
            {"op": "admit-tct", "name": "x", "source": "D1"},
        ])
        code = main([
            "serve", "--topology", str(topo_path), "--requests", str(requests),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "requests line 1" in err
        assert "destination" in err

    def test_serve_from_state(self, capsys, tmp_path, state_file):
        requests = self._requests_file(tmp_path, [
            {"op": "admit-tct", "name": "b", "source": "D2",
             "destination": "D3", "period_ns": milliseconds(16),
             "length_bytes": 800},
        ])
        code = main([
            "serve", "--state", str(state_file), "--requests", str(requests),
        ])
        assert code == 0
        decisions = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert decisions[0]["accepted"] is True
        assert decisions[0]["store_version"] == 1

    def test_name_clash_reject_leaves_the_saved_store_alone(
        self, capsys, tmp_path
    ):
        """A TCT named like an ECT's first possibility, then that ECT,
        one request per batch: the screen refuses the ECT, and the state
        saved afterwards holds the TCT alone and revalidates on load.  A
        rejected admit once wrote its slots into the published
        snapshot."""
        from repro.experiments import line_of_rings
        from repro.serialization import schedule_from_dict

        topo_path = self._topology_file(
            tmp_path, line_of_rings(rings=1, ring_size=3,
                                    devices_per_switch=1),
        )
        route = {"source": "R0S0D0", "destination": "R0S1D0",
                 "length_bytes": 300}
        requests = self._requests_file(tmp_path, [
            {"op": "admit-tct", "name": "e1#ps1",
             "period_ns": milliseconds(16), **route},
            {"op": "admit-ect", "name": "e1", "possibilities": 4,
             "min_interevent_ns": milliseconds(16), **route},
        ])
        state_path = tmp_path / "state.json"
        code = main([
            "serve", "--topology", str(topo_path),
            "--requests", str(requests), "--max-batch", "1",
            "--save-state", str(state_path),
            "--metrics-out", str(tmp_path / "metrics.json"),
        ])
        assert code == 0
        admitted, clash = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert admitted["accepted"]
        assert not clash["accepted"] and clash["attempts"] == {}
        assert clash["reason"] == "stream name 'e1#ps1' already in use"
        state = schedule_from_dict(json.loads(state_path.read_text()))
        assert [s.name for s in state.streams] == ["e1#ps1"]


class TestTraceFlag:
    def _serve_traced(self, capsys, tmp_path, star_topology):
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(topology_to_dict(star_topology)))
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(json.dumps(line) for line in [
            {"op": "admit-tct", "name": "a", "source": "D1",
             "destination": "D3", "period_ns": milliseconds(8),
             "length_bytes": 1500},
            {"op": "admit-ect", "name": "e", "source": "D2",
             "destination": "D3", "min_interevent_ns": milliseconds(16),
             "length_bytes": 512, "possibilities": 2},
        ]) + "\n")
        trace_path = tmp_path / "out.jsonl"
        assert main([
            "serve", "--topology", str(topo_path),
            "--requests", str(requests), "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        return trace_path

    def test_serve_trace_emits_request_rung_solve_spans(
        self, capsys, tmp_path, star_topology
    ):
        trace_path = self._serve_traced(capsys, tmp_path, star_topology)
        from repro.serialization import load_trace

        spans = load_trace(trace_path)
        names = {span.name for span in spans}
        assert {"admission.batch", "admission.request",
                "admission.rung", "solve"} <= names
        requests = [s for s in spans if s.name == "admission.request"]
        assert sorted(s.attributes["stream"] for s in requests) == ["a", "e"]
        assert all(s.attributes["accepted"] for s in requests)
        # rung spans parent the solves
        rung_ids = {s.span_id for s in spans if s.name == "admission.rung"}
        assert all(s.parent_id in rung_ids
                   for s in spans if s.name == "solve")

    def test_trace_summarize_reports_per_rung_latency(
        self, capsys, tmp_path, star_topology
    ):
        trace_path = self._serve_traced(capsys, tmp_path, star_topology)
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "admission.request" in out
        assert "per-rung solve latency:" in out
        assert "fastpath" in out

    def test_trace_summarize_json(self, capsys, tmp_path, star_topology):
        trace_path = self._serve_traced(capsys, tmp_path, star_topology)
        assert main(["trace", "summarize", str(trace_path),
                     "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rungs"]["fastpath"]["count"] >= 1
        assert "p99_ms" in summary["rungs"]["fastpath"]

    def test_admit_trace_flag(self, capsys, tmp_path, state_file):
        trace_path = tmp_path / "admit.jsonl"
        code = main([
            "admit", "--state", str(state_file),
            "--name", "b", "--source", "D2", "--dest", "D3",
            "--period-us", "16000", "--length", "800",
            "--trace", str(trace_path),
        ])
        assert code == 0
        from repro.serialization import load_trace

        spans = load_trace(trace_path)
        assert any(span.name == "admission.request" for span in spans)

    def test_corrupt_trace_file_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(ValueError, match="trace line 1"):
            from repro.serialization import load_trace

            load_trace(bad)


class TestMetricsCommand:
    def test_json_format(self, capsys):
        assert main(["metrics", "--format", "json",
                     "--deterministic"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counters"]["requests.total"] == 3
        assert data["counters"]["requests.admitted"] == 2
        assert data["gauges"]["store.version"] == 2

    def test_prometheus_format(self, capsys):
        assert main(["metrics", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total_total counter" in out
        assert "repro_latency_decision_ms_count" in out

    def test_rerenders_saved_metrics_json(self, capsys, tmp_path):
        assert main(["metrics", "--format", "json",
                     "--deterministic"]) == 0
        saved = tmp_path / "metrics.json"
        saved.write_text(capsys.readouterr().out)
        assert main(["metrics", "--input", str(saved),
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_requests_total_total 3" in out
        assert "repro_store_version 2" in out


def _bucketless_metrics(tmp_path):
    """A saved metrics JSON whose decision-latency summary has a count
    and a max far over any objective, but no bucket table."""
    path = tmp_path / "bucketless.json"
    path.write_text(json.dumps({"histograms": {"latency.decision_ms": {
        "count": 100, "sum": 10998.0, "mean": 109.98,
        "min": 1.0, "max": 9999.0,
    }}}))
    return path


class TestBucketlessSummary:
    """A summary whose buckets do not account for its count cannot be
    evaluated: restoring it would find no violations at any objective."""

    def test_slo_exits_2_naming_the_histogram(self, capsys, tmp_path):
        code = main(["slo", "--metrics", str(_bucketless_metrics(tmp_path)),
                     "--target", "latency.decision_ms:0.99:500"])
        assert code == 2
        captured = capsys.readouterr()
        assert "latency.decision_ms" in captured.err
        assert "ok" not in captured.out

    def test_metrics_input_exits_2_naming_the_histogram(
        self, capsys, tmp_path
    ):
        code = main(["metrics", "--input",
                     str(_bucketless_metrics(tmp_path))])
        assert code == 2
        assert "latency.decision_ms" in capsys.readouterr().err
