"""The server's per-read allocation must stay off malloc's mmap path.

asyncio's selector transport reads with ``sock.recv(256 KiB)``: a fresh
256 KiB ``bytes`` per request, a size at glibc malloc's mmap/trim
thresholds, so depending on the heap layout start-up left behind every
request page-faults twice (and a cache hit's round trip goes from 0.13
to 0.20 ms).  ``repro.frontend.server`` bounds the read size instead;
this test counts the served child's minor faults over a few thousand
cache-hit reads.
"""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import simulation_topology
from repro.frontend import protocol
from repro.model.stream import TctRequirement
from repro.model.units import microseconds, milliseconds
from repro.serialization import topology_to_dict
from repro.service import AdmitTct

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)

SRC = Path(__file__).resolve().parents[2] / "src"
READS = 3000
MAX_FAULTS_PER_READ = 0.05


def _minor_faults(pid: int) -> int:
    stat = Path(f"/proc/{pid}/stat").read_text()
    # field 2 (comm) may hold spaces; fields 3.. follow its closing paren
    return int(stat.rsplit(")", 1)[1].split()[7])  # field 10: minflt


def _infeasible(name: str) -> AdmitTct:
    """Below the e2e wire-time floor: a deterministic, cacheable reject."""
    return AdmitTct(TctRequirement(
        name=name, source="D1", destination="D12",
        period_ns=milliseconds(8), length_bytes=800,
        e2e_ns=microseconds(10),
    ))


@pytest.mark.parametrize("malloc_env", [
    pytest.param({}, id="default-heap"),
    # pins glibc's mmap threshold, so an allocation of the transport's
    # default read size is mmap'd and unmapped on every single request
    pytest.param({"MALLOC_MMAP_THRESHOLD_": "65536"}, id="mmap-at-64KiB"),
])
def test_cache_hit_reads_do_not_page_fault(tmp_path, malloc_env):
    topology = tmp_path / "topo.json"
    topology.write_text(json.dumps(topology_to_dict(simulation_topology())))
    env = {**os.environ, **malloc_env, "PYTHONPATH": str(SRC)}
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "frontend", "serve",
         "--topology", str(topology), "--port", "0"],
        stdout=subprocess.PIPE, env=env,
    )
    try:
        announced = json.loads(child.stdout.readline())["frontend"]
        with socket.create_connection(
            (announced["host"], announced["port"]), timeout=30
        ) as sock, sock.makefile("rb") as replies:

            def read(i: int) -> dict:
                sock.sendall(protocol.encode_request(_infeasible(f"s{i}")))
                return protocol.decode_response(replies.readline())

            for i in range(200):  # the first decides, the rest warm up
                reply = read(i)
            assert reply["cached"] and not reply["decision"]["accepted"]
            before = _minor_faults(child.pid)
            for i in range(200, 200 + READS):
                assert read(i)["cached"]
            faults = _minor_faults(child.pid) - before
    finally:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()
    assert child.returncode == 0
    assert faults / READS < MAX_FAULTS_PER_READ, (
        f"{faults} minor faults over {READS} cache-hit reads"
    )
