"""What the benchmark promises to print: ``BENCHMARK.json`` plus, for
every per-layer metric, the workloads whose runs exercise that layer.

``BENCHMARK.json`` lists each metric once for all workloads.  A traced
run prints every per-layer metric; one whose layer the workload does
not touch reads 0 — which is itself the statement "this layer does
nothing here".
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from etsnbench.core import ROOT

FIG13, SMT = "offline_fig13", "offline_smt"
FASTPATH, LADDER = "admit_fastpath", "admit_ladder"
READS, WRITES = "frontend_reads", "frontend_writes"
OFFLINE = (FIG13, SMT)
ADMIT = (FASTPATH, LADDER)
FRONTEND = (READS, WRITES)
EVERY = OFFLINE + ADMIT + FRONTEND

_RUNGS = ("fastpath", "incremental", "full", "heuristic", "rejected")

#: per-layer metric -> workloads that measure it.
APPLIES: Dict[str, Tuple[str, ...]] = {
    # demoted from the end-to-end list: the driver's contract wants
    # every end-to-end metric from every workload, never zero, and
    # these exist (or are non-zero) on some workloads only
    "failed_frac": EVERY,
    # the tail of the latency distribution: too unsteady on this
    # machine for an end-to-end bound.  ``latency_tail_ms`` is the
    # binned, capped tail of every workload; ``latency_p99_ms`` the
    # plain whole-phase p99 where a run has the 1000 samples for it
    "latency_tail_ms": EVERY,
    "latency_p99_ms": (LADDER,) + FRONTEND,
    "slo_miss_frac": FRONTEND,
    "accept_frac": ADMIT + (FIG13,),
    "ect_latency_max_us": (FIG13,),
    "sim_events_per_s": (FIG13,),
    "traffic.generate_ms_p50": (FIG13,),
    "core.schedule_heuristic_ms_p50": (FIG13, LADDER),
    "core.validate_ms_p50": (FIG13,) + ADMIT,
    "core.build_gcl_ms_p50": (FIG13,),
    "core.audit_gcl_ms_p50": (FIG13,),
    "core.prudent_reservation_us_p50": OFFLINE,
    "core.add_tct_us_p50": ADMIT,
    "core.add_shared_tct_us_p50": ADMIT,
    "core.add_ect_us_p50": ADMIT,
    "core.remove_us_p50": ADMIT,
    "core.validate_delta_us_p50": ADMIT,
    "core.add_tct_growth_ratio": (FASTPATH,),
    "smt.solve_s_p50": (SMT,),
    "smt.build_constraints_ms_p50": (SMT,),
    "smt.conflicts": (SMT,),
    "smt.decisions": (SMT,),
    "smt.propagations": (SMT,),
    "smt.theory_checks": (SMT,),
    "smt.learned_clauses": (SMT,),
    "smt.proof_overhead_ratio": (SMT,),
    "smt.proof_check_ms": (SMT,),
    "sim.build_ms_p50": (FIG13,),
    "sim.run_s": (FIG13,),
    "sim.events": (FIG13,),
    "sim.frames_lost": (FIG13,),
    "cnc.deployment_ms_p50": (FIG13,),
    "serialization.schedule_roundtrip_ms_p50": FRONTEND,
    "service.fastpath_evaluate_us_p50": ADMIT,
    "service.screen_route_us_p50": ADMIT,
    "service.canonical_shape_us_p50": ADMIT + FRONTEND,
    "service.store_publish_us_p50": ADMIT,
    **{f"service.rung_share.{rung}": ADMIT for rung in _RUNGS},
    **{f"service.rung_ms_p50.{rung}": ADMIT for rung in _RUNGS},
    **{f"service.rung_wall_share.{rung}": ADMIT for rung in _RUNGS},
    "service.reject_climb_s_max": ADMIT,
    "service.cas_retries": ADMIT,
    "cluster.partition_ms": FRONTEND,
    "cluster.submit_local_us_p50": (WRITES,),
    "cluster.submit_cross_us_p50": (WRITES,),
    "cluster.requests_local": FRONTEND,
    "cluster.requests_cross": FRONTEND,
    "cluster.global_schedule_ms": FRONTEND,
    "cluster.audit_ms": FRONTEND,
    "frontend.encode_request_us_p50": FRONTEND,
    "frontend.decode_request_us_p50": FRONTEND,
    "frontend.encode_decision_us_p50": FRONTEND,
    "frontend.decode_response_us_p50": FRONTEND,
    "frontend.cache_lookup_us_p50": FRONTEND,
    "frontend.cache_store_us_p50": FRONTEND,
    "frontend.cache_invalidate_us_p50": (WRITES,),
    "frontend.cache_hit_rate": FRONTEND,
    "frontend.cache_invalidations": FRONTEND,
    "frontend.batch_size_mean": FRONTEND,
    "frontend.queue_ms_p50": FRONTEND,
    "frontend.busy_frac": FRONTEND,
    "frontend.connect_ms": FRONTEND,
    "loadgen.late_ms_p99": FRONTEND,
    "loadgen.cpu_share": FRONTEND,
    "loadgen.rate_at_limit_rps": (READS,),
    "loadgen.latency_p50_ms.r2000": (READS,),
    "loadgen.latency_p50_ms.r6000": (READS,),
    "loadgen.latency_p50_ms.r12000": (READS,),
    "loadgen.latency_p50_ms.r18000": (READS,),
    "obs.tracing_overhead_frac": EVERY,
    "trace.coverage_frac": EVERY,
}

#: metrics that must repeat bit for bit when the same code runs the
#: same seed again (``--aa`` checks them): counts, not times.
EXACT = frozenset(
    ["accept_frac", "ect_latency_max_us", "failed_frac", "sim.events",
     "sim.frames_lost", "smt.conflicts", "smt.decisions",
     "smt.propagations", "smt.theory_checks", "smt.learned_clauses",
     "service.cas_retries", "cluster.requests_local",
     "cluster.requests_cross"]
    + [f"service.rung_share.{rung}" for rung in _RUNGS]
)


def load() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def expected(spec: Dict, workload: str, trace: bool) -> List[str]:
    """The metric names a run of ``workload`` must produce itself."""
    if not trace:
        return [metric["name"] for metric in spec["end_to_end"]]
    return [metric["name"] for metric in spec["per_layer"]
            if workload in APPLIES[metric["name"]]]
