"""Same-behaviour pin for the simulation plane.

One SHA-256 per scenario over everything a simulation run observably
produces — per-stream latency lists, injected / delivered counts, FRER
duplicate eliminations, every port's counters, the event count, frames
lost, the sync error — and over every gate window the GCL synthesis
emitted.  A rewrite of :mod:`repro.sim`, :mod:`repro.core.gcl` or
:mod:`repro.core.gcl_audit` for speed must leave each digest unchanged:
same callbacks at the same instants in the same order, same windows.

The tracer-enabled scenario also hashes the per-hop frame events,
without ``frame_id`` (it comes from a process-global counter, so it
depends on what ran before in the process).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.baselines import build_schedule
from repro.core.frer import schedule_etsn_frer
from repro.core.gcl import build_gcl
from repro.core.gcl_audit import audit_gcl
from repro.experiments import ring_workload, simulation_workload
from repro.obs import Tracer
from repro.sim import BeTrafficSpec, SimConfig, SyncConfig, TsnSimulation

SIM_NS = 100_000_000


def _digest(schedule, gcl, report, config, tracer=None) -> str:
    recorder = report.recorder
    names = sorted(
        {s.name for s in schedule.streams}
        | {e.name for e in schedule.ect_streams}
        | set((schedule.meta.get("frer_members") or {}).values())
        | {spec.name for spec in config.be_traffic}
        | set(recorder.streams())
    )
    body = {
        "latencies": {n: recorder.latencies(n) for n in recorder.streams()},
        "injected": {n: recorder.injected(n) for n in names},
        "delivered": {n: recorder.delivered(n) for n in names},
        "duplicates": recorder.duplicates_eliminated,
        "ports": {
            f"{key[0]}->{key[1]}": sorted(vars(stats).items())
            for key, stats in sorted(report.port_stats.items())
        },
        "events": report.num_events,
        "lost": report.frames_lost,
        "sync_error_ns": report.sync_error_ns,
        "windows": [
            (f"{key[0]}->{key[1]}", queue, w.start_ns, w.end_ns, w.owner)
            for key, port in sorted(gcl.ports.items())
            for queue, windows in sorted(port.windows.items())
            for w in windows
        ],
    }
    if tracer is not None:
        body["hops"] = [
            (span.name, span.start_ns, sorted(
                (k, v) for k, v in span.attributes.items() if k != "frame_id"
            ))
            for span in tracer.spans()
        ]
    text = json.dumps(body, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _run(schedule, mode, tracer=None, **config_kwargs):
    gcl = build_gcl(schedule, mode=mode,
                    ect_proxies=schedule.meta.get("ect_proxies"))
    audit_gcl(schedule, gcl)
    config = SimConfig(duration_ns=SIM_NS, tracer=tracer, **config_kwargs)
    report = TsnSimulation(schedule, gcl, config).run()
    return _digest(schedule, gcl, report, config, tracer)


def _fig13(method, load=0.5, seed=1, **workload_kwargs):
    workload = simulation_workload(load, seed, **workload_kwargs)
    return build_schedule(workload.topology, workload.tct_streams,
                          workload.ect_streams, method)


def scenario_fig13(load, seed):
    schedule, mode = _fig13("etsn", load, seed)
    return _run(schedule, mode, seed=seed)


def scenario_strict():
    schedule, mode = _fig13("etsn-strict")
    return _run(schedule, mode, seed=1)


def scenario_period():
    schedule, mode = _fig13("period", load=0.25)
    return _run(schedule, mode, seed=1)


def scenario_avb():
    # multi-frame events on three ECT streams, so the shaper blocks
    schedule, mode = _fig13("avb", ect_length_bytes=4500, num_ect=3)
    return _run(schedule, mode, seed=1, cbs_on_ect=True)


def scenario_drift():
    schedule, mode = _fig13("etsn")
    drift = {"D1": 40_000, "SW1": -25_000, "SW2": 15_000, "D12": 5_000}
    offsets = {"D1": -7, "SW2": 3}
    return _run(schedule, mode, seed=1, clock_drift_ppb=drift,
                clock_offset_ns=offsets,
                sync=SyncConfig(sync_interval_ns=5_000_000,
                                residual_error_ns=10))


def scenario_loss():
    schedule, mode = _fig13("etsn")
    lossy = {link.key: 0.05 for link in schedule.streams[0].path}
    return _run(schedule, mode, seed=1, link_loss=lossy)


def scenario_be():
    schedule, mode = _fig13("etsn", load=0.25)
    be = [BeTrafficSpec(name="bulk", source="D1", destination="D12",
                        load_fraction=0.2)]
    return _run(schedule, mode, seed=1, be_traffic=be)


def scenario_frer():
    workload = ring_workload(0.5, 1)
    schedule = schedule_etsn_frer(workload.topology, workload.tct_streams,
                                  workload.ect_streams)
    return _run(schedule, "etsn", seed=5)


def scenario_traced():
    schedule, mode = _fig13("etsn", load=0.25)
    return _run(schedule, mode, tracer=Tracer(max_spans=1_000_000), seed=3)


SCENARIOS = {
    **{
        f"fig13-{load}-s{seed}": (lambda load=load, seed=seed:
                                  scenario_fig13(load, seed))
        for load in (0.25, 0.5, 0.75)
        for seed in (1, 2)
    },
    "etsn-strict": scenario_strict,
    "period": scenario_period,
    "avb-cbs": scenario_avb,
    "drift-sync": scenario_drift,
    "link-loss": scenario_loss,
    "be-background": scenario_be,
    "frer-ring": scenario_frer,
    "traced": scenario_traced,
}

#: recorded before the hot-path rewrite of sim / gcl / gcl_audit
PINS = {
    'avb-cbs': 'f42dec2172091837a064f72ad602d38ed771a514e0208389365844c6415434cd',
    'be-background': '019857067527c685d44b6e49b39a919d5cabf1705a6586cc6a6e31922b03d329',
    'drift-sync': 'e2f2e771d94279d765834478dd373b75ad761c93680a0ff848ffada5b865486a',
    'etsn-strict': '11dd2bad07d4e25f79e62f458d650888bceec0fee7b16b2b372250a1df7ff2dd',
    'fig13-0.25-s1': 'a010850f07a46a37a56899380b7c5a13bd4d2fd9d64ad16c030511f81b98c436',
    'fig13-0.25-s2': 'cadb6595a3c30a29b681d5fe1e4cc01f42aa772013f23e73e146a5e0c9aaccd7',
    'fig13-0.5-s1': 'c1dce85e6c7511edf32bd7c9666ed4fb89134000f515e41ff862dd1a0f10b1a4',
    'fig13-0.5-s2': '7d9f1f3b53760e3f43fd64353f8561bbeae3974bb4cca8d7d237b9f9bf453c3d',
    'fig13-0.75-s1': '3f22d2db428a7e305e392ad984b4d088578c6bfc8597da4e4c5c0c701b677c4a',
    'fig13-0.75-s2': '37f2920335d86fb10638ce389b62d35b487642ebf1edf2c5ebbe45ec7eb21aa8',
    'frer-ring': 'afdc95ad62bbec7d0400295415cc55673880f910e9482e0b5249f0ce5db57c97',
    'link-loss': 'fce8d7e5cddef9871f4c77e2dda252d13226e4b74e7b4c878f47d7d61a84d74e',
    'period': '732a553bb4dd9c5ccbbdaa92fcf328ef5027970f8c25bbc64d81b452d062010f',
    'traced': 'fea5333d03d984d0c416134237b3f092b3338de43611af6dff9d07964022350b',
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulation_digest_is_pinned(name):
    assert SCENARIOS[name]() == PINS[name]


if __name__ == "__main__":  # print the digests to (re)record PINS
    for name in sorted(SCENARIOS):
        print(f"    {name!r}: {SCENARIOS[name]()!r},")
