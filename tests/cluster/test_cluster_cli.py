"""`repro cluster` CLI (in-process, via main())."""

import json

import pytest

from repro.cli import main
from repro.experiments import simulation_topology
from repro.serialization import topology_to_dict


@pytest.fixture
def topology_file(tmp_path):
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(topology_to_dict(simulation_topology())))
    return path


def _cluster_args(topology_file, *extra):
    return ["--topology", str(topology_file), "--shards", "2",
            "--seeds", "SW1,SW4", *extra]


class TestClusterCli:
    def test_status_prints_partition_and_shards(self, topology_file, capsys):
        assert main(["cluster", "status",
                     *_cluster_args(topology_file)]) == 0
        out = capsys.readouterr().out
        assert "Partition: 2 shards" in out
        assert '"shard0"' in out and '"shard1"' in out

    def test_admit_cross_shard_stream(self, topology_file, capsys):
        assert main(["cluster", "admit", *_cluster_args(topology_file),
                     "--name", "x", "--source", "D1", "--dest", "D12",
                     "--period-us", "8000"]) == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["accepted"]
        assert decision["rung"] == "fastpath"

    def test_admit_cross_shard_ect(self, topology_file, capsys):
        assert main(["cluster", "admit", *_cluster_args(topology_file),
                     "--ect", "--name", "alarm", "--source", "D1",
                     "--dest", "D12", "--period-us", "16000"]) == 0
        assert json.loads(capsys.readouterr().out)["accepted"]

    def test_admit_rejection_exits_nonzero(self, topology_file, capsys):
        # a 1 ns budget is a structured rejection -> exit 1
        assert main(["cluster", "admit", *_cluster_args(topology_file),
                     "--name", "x", "--source", "D1", "--dest", "D12",
                     "--period-us", "8000", "--e2e-us", "0.001"]) == 1
        decision = json.loads(capsys.readouterr().out)
        assert decision["reason"].startswith("e2e-floor")

    def test_serve_storm_with_audit_and_metrics(
        self, topology_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(json.dumps(r) for r in [
            {"op": "admit-tct", "name": "a0", "source": "D1",
             "destination": "D4", "period_ns": 8_000_000,
             "length_bytes": 1000},
            {"op": "admit-tct", "name": "a1", "source": "D10",
             "destination": "D12", "period_ns": 8_000_000,
             "length_bytes": 1000},
            {"op": "admit-tct", "name": "x", "source": "D1",
             "destination": "D12", "period_ns": 8_000_000,
             "length_bytes": 500},
            {"op": "remove", "name": "a0"},
        ]))
        metrics_out = tmp_path / "metrics.json"
        assert main(["cluster", "serve", *_cluster_args(topology_file),
                     "--requests", str(requests),
                     "--metrics-out", str(metrics_out),
                     "--audit", "--fail-on-reject"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        decisions = [json.loads(line) for line in lines[:4]]
        assert all(d["accepted"] for d in decisions)
        assert json.loads(lines[-1]) == {"audit": "ok"}
        metrics = json.loads(metrics_out.read_text())
        counters = metrics["metrics"]["counters"]
        assert counters["cluster.requests_total"] == 4
        assert counters["cluster.requests_cross"] == 1

    def test_serve_fail_on_reject(self, topology_file, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(
            {"op": "admit-tct", "name": "x", "source": "D1",
             "destination": "D12", "period_ns": 8_000_000,
             "length_bytes": 512, "e2e_ns": 1}
        ))
        assert main(["cluster", "serve", *_cluster_args(topology_file),
                     "--requests", str(requests),
                     "--fail-on-reject"]) == 1

    def test_serve_malformed_request_is_error(
        self, topology_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"op": "admit-tct"}')
        assert main(["cluster", "serve", *_cluster_args(topology_file),
                     "--requests", str(requests)]) == 2
        assert "requests line 1" in capsys.readouterr().err
