"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Schedule and render the paper's Fig. 6 example (ASCII Gantt) and run
    a short simulation of it.
``fig11`` / ``fig12`` / ``fig14`` / ``fig15`` / ``fig16``
    Regenerate one figure of the paper's evaluation and print its rows.
``figures``
    All of the above, sequentially.
``admit``
    Decide one admit/remove request against a persisted schedule and
    print the decision as JSON; exit 1 on rejection.
``serve``
    Run the online admission service over a JSON-lines request stream
    (file or stdin), printing one decision JSON per line.
``metrics``
    Run a small demo admission and export the service metrics as JSON
    or Prometheus text exposition (``--input`` re-exports a saved
    metrics JSON instead).
``trace``
    Inspect a span trace written by ``--trace``:
    ``repro trace summarize out.jsonl`` prints per-span-name and
    per-rung latency distributions (count / mean / p50 / p99),
    ``repro trace tree out.jsonl`` renders the trace forest as an
    indented tree, and ``repro trace cluster`` runs a deterministic
    2-shard admission batch (one local stream per shard, one crossing
    the border) and renders its single trace (coordinator batch →
    admission batch → requests → rungs → solves).
``slo``
    Evaluate latency SLO targets (p-quantile ≤ objective with an error
    budget) against a live demo run or a saved metrics JSON; exit 1 on
    violation.
``check``
    Static analysis: ``check lint`` runs the repo-invariant AST linter,
    ``check proof`` / ``check model`` verify saved solver certificates
    and ``check units`` is the time-unit dimensional analysis (see
    :mod:`repro.check`).
``cluster``
    Partitioned admission (:mod:`repro.cluster`):
    ``cluster status`` prints the switch-cluster partition,
    ``cluster admit`` decides one request against a fresh cluster, and
    ``cluster serve`` drives a JSONL request stream through it
    (``--audit`` validates and gcl-audits the global schedule
    afterwards).
``campaign``
    Monte Carlo robustness campaigns (:mod:`repro.campaign`):
    ``campaign run`` fans a loss x clock-error x load x FRER matrix
    across a process pool (resumable), ``campaign status`` prints
    per-cell completion, ``campaign report`` emits the scenario-matrix
    report with deadline-miss probabilities (Wilson 95 % CIs) and
    latency percentiles, and ``campaign example-spec`` prints a
    ready-to-edit spec.
``frontend``
    ``frontend serve`` runs the asyncio JSONL socket server over one
    admission service or a cluster (:mod:`repro.frontend`).

``serve`` and ``admit`` accept ``--trace FILE`` to record admission
spans (request -> rung -> solve) as JSON-lines, and ``--certify`` to
machine-check every solver verdict (SMT backend only).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import legend, render_link_gantt
from repro.experiments import fig11, fig12, fig14, fig15, fig16
from repro.model.units import milliseconds, ns_to_us

FIGURES = {
    "fig11": (fig11, lambda d, s: fig11.Fig11Config(duration_ns=d, seed=s)),
    "fig12": (fig12, lambda d, s: fig12.Fig12Config(duration_ns=d, seed=s)),
    "fig14": (fig14, lambda d, s: fig14.Fig14Config(duration_ns=d, seed=s)),
    "fig15": (fig15, lambda d, s: fig15.Fig15Config(duration_ns=d, seed=s)),
    "fig16": (fig16, lambda d, s: fig16.Fig16Config(duration_ns=d, seed=s)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E-TSN reproduction (Zhao et al., ICDCS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo", help="schedule + render the Fig. 6 example")
    demo.add_argument("--width", type=int, default=72, help="gantt width")
    for name in FIGURES:
        figure = sub.add_parser(name, help=f"regenerate the paper's {name}")
        figure.add_argument("--duration-ms", type=int, default=2000,
                            help="simulated milliseconds per configuration")
        figure.add_argument("--seed", type=int, default=1)
    everything = sub.add_parser("figures", help="regenerate every figure")
    everything.add_argument("--duration-ms", type=int, default=2000)
    everything.add_argument("--seed", type=int, default=1)

    admit = sub.add_parser(
        "admit", help="decide one admission request against a schedule file"
    )
    admit.add_argument("--state", required=True,
                       help="schedule JSON (see repro.serialization)")
    admit.add_argument("--out", help="write the updated schedule JSON here")
    admit.add_argument("--remove", metavar="NAME",
                       help="retire a stream instead of admitting one")
    admit.add_argument("--ect", action="store_true",
                       help="admit an event-triggered stream")
    admit.add_argument("--name", help="stream name")
    admit.add_argument("--source", help="talker device")
    admit.add_argument("--dest", help="listener device")
    admit.add_argument("--period-us", type=float,
                       help="TCT period / ECT minimum inter-event time")
    admit.add_argument("--length", type=int, default=1500,
                       help="message length in bytes")
    admit.add_argument("--e2e-us", type=float,
                       help="end-to-end budget (default: the period)")
    admit.add_argument("--share", action="store_true",
                       help="TCT stream shares its slots with ECT")
    admit.add_argument("--possibilities", type=int, default=4,
                       help="probabilistic possibilities N for --ect")
    admit.add_argument("--backend", default="heuristic",
                       choices=("heuristic", "smt"),
                       help="backend for the full re-solve rung")
    admit.add_argument("--trace", metavar="FILE",
                       help="write admission spans here as JSON-lines")
    admit.add_argument("--certify", action="store_true",
                       help="verify every solver verdict with the "
                            "repro.check certificate checker "
                            "(requires --backend smt)")

    serve = sub.add_parser(
        "serve", help="serve a JSON-lines admission request stream"
    )
    state_source = serve.add_mutually_exclusive_group(required=True)
    state_source.add_argument("--state", help="initial schedule JSON")
    state_source.add_argument("--topology",
                              help="topology JSON; starts from an empty schedule")
    serve.add_argument("--requests", default="-",
                       help="JSONL request file, or '-' for stdin")
    serve.add_argument("--metrics-out",
                       help="write the metrics JSON here instead of stdout")
    serve.add_argument("--save-state",
                       help="write the final schedule JSON here")
    serve.add_argument("--fail-on-reject", action="store_true",
                       help="exit 1 if any request was rejected")
    serve.add_argument("--emit-deployments", action="store_true",
                       help="build a Qcc deployment per accepted batch")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="largest request batch validated in one pass")
    serve.add_argument("--backend", default="heuristic",
                       choices=("heuristic", "smt"),
                       help="backend for the full re-solve rung")
    serve.add_argument("--trace", metavar="FILE",
                       help="write admission spans here as JSON-lines")
    serve.add_argument("--certify", action="store_true",
                       help="verify every solver verdict with the "
                            "repro.check certificate checker "
                            "(requires --backend smt)")

    metrics = sub.add_parser(
        "metrics", help="run a demo admission and export its metrics"
    )
    metrics.add_argument("--format", default="json",
                         choices=("json", "prometheus"),
                         help="export format")
    metrics.add_argument("--input", metavar="FILE",
                         help="re-export this saved metrics JSON instead "
                              "of running the demo admission")
    metrics.add_argument("--deterministic", action="store_true",
                         help="drive the demo with a fake 1ms-per-call "
                              "clock so the output is reproducible")

    cluster = sub.add_parser(
        "cluster", help="partitioned admission (repro.cluster)"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    def _cluster_common(p) -> None:
        p.add_argument("--topology", required=True,
                       help="topology JSON (see repro.serialization)")
        p.add_argument("--shards", type=int, default=4,
                       help="number of switch-cluster shards")
        p.add_argument("--seeds", metavar="SW[,SW...]",
                       help="comma-separated seed switches to pin regions")

    cstatus = cluster_sub.add_parser(
        "status", help="print the partition and per-shard summary"
    )
    _cluster_common(cstatus)

    cadmit = cluster_sub.add_parser(
        "admit", help="decide one request against a fresh cluster"
    )
    _cluster_common(cadmit)
    cadmit.add_argument("--remove", metavar="NAME",
                        help="retire a stream instead of admitting one")
    cadmit.add_argument("--name", help="stream name")
    cadmit.add_argument("--source", help="talker device")
    cadmit.add_argument("--dest", help="listener device")
    cadmit.add_argument("--period-us", type=float,
                        help="TCT period / ECT minimum inter-event time")
    cadmit.add_argument("--length", type=int, default=1500,
                        help="message length in bytes")
    cadmit.add_argument("--e2e-us", type=float,
                        help="end-to-end budget (default: the period)")
    cadmit.add_argument("--share", action="store_true",
                        help="TCT stream shares its slots with ECT")
    cadmit.add_argument("--ect", action="store_true",
                        help="admit an event-triggered stream")
    cadmit.add_argument("--possibilities", type=int, default=4,
                        help="probabilistic possibilities N for --ect")

    cserve = cluster_sub.add_parser(
        "serve", help="serve a JSONL request stream through the cluster"
    )
    _cluster_common(cserve)
    cserve.add_argument("--requests", default="-",
                        help="JSONL request file, or '-' for stdin")
    cserve.add_argument("--backend", default="heuristic",
                        choices=("heuristic", "smt"),
                        help="backend for the full re-solve rung")
    cserve.add_argument("--metrics-out",
                        help="write the cluster metrics JSON here")
    cserve.add_argument("--audit", action="store_true",
                        help="validate and gcl-audit the global schedule "
                             "after the run")
    cserve.add_argument("--fail-on-reject", action="store_true",
                        help="exit 1 if any request was rejected")
    cserve.add_argument("--trace", metavar="FILE",
                        help="write the distributed admission spans here "
                             "as JSON-lines")
    cserve.add_argument("--prometheus-out", metavar="FILE",
                        help="write the cluster's Prometheus text "
                             "exposition here after the run")

    trace = sub.add_parser("trace", help="inspect a span trace (JSONL)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="per-span-name and per-rung latency distributions"
    )
    summarize.add_argument("file", help="JSONL trace from --trace")
    summarize.add_argument("--format", default="table",
                           choices=("table", "json"))
    tree = trace_sub.add_parser(
        "tree", help="render the trace forest as an indented tree"
    )
    tree.add_argument("file", help="JSONL trace from --trace")
    tree.add_argument("--durations", action="store_true",
                      help="append each span's duration in ms")
    tcluster = trace_sub.add_parser(
        "cluster",
        help="run a deterministic 2-shard admission batch and render "
             "its single trace tree",
    )
    tcluster.add_argument("--durations", action="store_true",
                          help="append each span's duration in ms "
                               "(fake-clock ticks; still deterministic)")
    tcluster.add_argument("--out", metavar="FILE",
                          help="also write the raw spans here as JSONL")

    slo = sub.add_parser(
        "slo", help="evaluate latency SLO targets against metrics"
    )
    slo.add_argument("--metrics", metavar="FILE",
                     help="saved metrics JSON (default: run the "
                          "deterministic demo admission)")
    slo.add_argument("--target", action="append", metavar="SPEC",
                     help="metric:quantile:objective_ms, e.g. "
                          "latency.decision_ms:0.99:250 (repeatable; "
                          "default: the built-in admission targets)")
    slo.add_argument("--require-all", action="store_true",
                     help="treat a missing histogram as a violation")
    slo.add_argument("--format", default="table",
                     choices=("table", "json"))

    from repro.check.cli import add_check_parser

    add_check_parser(sub)

    from repro.campaign.cli import add_campaign_parser

    add_campaign_parser(sub)

    from repro.frontend.cli import add_frontend_parser

    add_frontend_parser(sub)
    return parser


def _run_demo(width: int) -> None:
    from repro import (EctStream, Priorities, SimConfig, Stream, Topology,
                       TsnSimulation, build_gcl, schedule_etsn)
    from repro.model.units import MBPS_100, transmission_time_ns, wire_bytes

    topo = Topology()
    topo.add_switch("SW1")
    for device in ("D1", "D2", "D3"):
        topo.add_device(device)
        topo.add_link(device, "SW1", bandwidth_bps=MBPS_100)
    frame_time = transmission_time_ns(wire_bytes(1500), MBPS_100)
    period = 5 * frame_time
    s1 = Stream(name="s1", path=tuple(topo.shortest_path("D1", "D3")),
                e2e_ns=period, priority=Priorities.SH_PL,
                length_bytes=3 * 1500, period_ns=period, share=True)
    s2 = EctStream(name="s2", source="D2", destination="D3",
                   min_interevent_ns=period, length_bytes=1500,
                   possibilities=5)
    schedule = schedule_etsn(topo, [s1], [s2], backend="smt")
    print("The paper's Fig. 6 example, scheduled by the SMT backend:\n")
    for link_key in (("D1", "SW1"), ("D2", "SW1"), ("SW1", "D3")):
        print(render_link_gantt(schedule, link_key, width=width))
        print()
    print(legend())
    gcl = build_gcl(schedule, mode="etsn")
    report = TsnSimulation(
        schedule, gcl, SimConfig(duration_ns=500 * period, seed=1)
    ).run()
    print()
    for name in ("s1", "s2"):
        stats = report.recorder.stats(name)
        print(f"{name}: avg {ns_to_us(stats.average_ns):8.1f} us   "
              f"worst {ns_to_us(stats.maximum_ns):8.1f} us   "
              f"jitter {ns_to_us(stats.jitter_ns):6.1f} us   "
              f"({stats.count} messages)")


def _run_figure(name: str, duration_ms: int, seed: int) -> None:
    module, make_config = FIGURES[name]
    config = make_config(milliseconds(duration_ms), seed)
    result = module.run(config)
    print(module.format_result(result))


def _admit_request(args) -> "object":
    from repro.model.stream import EctStream, Priorities, TctRequirement
    from repro.model.units import microseconds
    from repro.service import AdmitEct, AdmitTct, Remove

    if args.remove:
        return Remove(name=args.remove)
    missing = [flag for flag, value in (
        ("--name", args.name), ("--source", args.source),
        ("--dest", args.dest), ("--period-us", args.period_us),
    ) if value is None]
    if missing:
        raise SystemExit(f"admit: missing {', '.join(missing)}")
    if args.period_us <= 0:
        raise SystemExit("admit: --period-us must be positive")
    if args.ect:
        return AdmitEct(EctStream(
            name=args.name, source=args.source, destination=args.dest,
            min_interevent_ns=microseconds(args.period_us),
            length_bytes=args.length,
            e2e_ns=microseconds(args.e2e_us) if args.e2e_us else None,
            possibilities=args.possibilities,
        ))
    return AdmitTct(TctRequirement(
        name=args.name, source=args.source, destination=args.dest,
        period_ns=microseconds(args.period_us), length_bytes=args.length,
        e2e_ns=microseconds(args.e2e_us) if args.e2e_us else None,
        priority=Priorities.SH_PL if args.share else Priorities.NSH_PH,
        share=args.share,
    ))


def _check_certify(args) -> None:
    if args.certify and args.backend != "smt":
        raise SystemExit("--certify requires --backend smt")


def _make_tracer(path):
    """A ring-buffered tracer when ``--trace`` was given, else None."""
    if not path:
        return None
    from repro.obs import Tracer

    return Tracer()


def _dump_trace(path, tracer) -> None:
    if not path or tracer is None:
        return
    from repro.serialization import save_trace

    save_trace(path, tracer.spans())


def _serve_requests(path: str, submit_many, chunk_size: int):
    """Decide the JSONL requests at ``path`` (``-`` is stdin), printing
    one decision JSON per line.

    Reads line by line and hands ``submit_many`` chunks of
    ``chunk_size`` requests, so a piped producer gets answers per chunk
    and an unbounded stream never accumulates in memory.  Blank lines
    and ``#`` comments are skipped but still numbered.  Returns the
    decisions, or ``None`` after reporting a malformed line on stderr
    (the caller exits 2).
    """
    from repro.serialization import decision_to_dict
    from repro.service import request_from_dict

    decisions = []
    chunk = []

    def flush() -> None:
        for decision in submit_many(chunk):
            decisions.append(decision)
            print(json.dumps(decision_to_dict(decision)))
        chunk.clear()

    handle = sys.stdin if path == "-" else open(path)
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                chunk.append(request_from_dict(json.loads(line)))
            except (ValueError, json.JSONDecodeError) as exc:
                print(f"error: requests line {lineno}: {exc}",
                      file=sys.stderr)
                return None
            if len(chunk) >= chunk_size:
                flush()
        if chunk:
            flush()
    finally:
        if handle is not sys.stdin:
            handle.close()
    return decisions


def _run_admit(args) -> int:
    from repro.serialization import decision_to_dict, schedule_to_dict
    from repro.service import AdmissionService, ScheduleStore, ServiceConfig

    store = ScheduleStore(_load_schedule(args.state))
    tracer = _make_tracer(args.trace)
    _check_certify(args)
    service = AdmissionService(
        store,
        config=ServiceConfig(backend=args.backend, certify=args.certify),
        tracer=tracer,
    )
    decision = service.submit(_admit_request(args))
    print(json.dumps(decision_to_dict(decision)))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(schedule_to_dict(store.schedule), handle)
    _dump_trace(args.trace, tracer)
    return 0 if decision.accepted else 1


def _run_serve(args) -> int:
    from repro.serialization import (
        metrics_to_dict,
        schedule_to_dict,
        topology_from_dict,
    )
    from repro.service import (
        AdmissionService,
        ScheduleStore,
        ServiceConfig,
        empty_schedule,
    )

    if args.state:
        schedule = _load_schedule(args.state)
    else:
        with open(args.topology) as handle:
            schedule = empty_schedule(topology_from_dict(json.load(handle)))
    store = ScheduleStore(schedule)
    tracer = _make_tracer(args.trace)
    _check_certify(args)
    service = AdmissionService(store, config=ServiceConfig(
        backend=args.backend,
        max_batch=args.max_batch,
        emit_deployments=args.emit_deployments,
        certify=args.certify,
    ), tracer=tracer)
    # one chunk per max_batch: each chunk is at most one ladder batch
    decisions = _serve_requests(
        args.requests, service.submit_many, args.max_batch
    )
    if decisions is None:
        return 2
    metrics = metrics_to_dict(service.metrics)
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(metrics, handle)
    else:
        print(json.dumps({"metrics": metrics}))
    if args.save_state:
        with open(args.save_state, "w") as handle:
            json.dump(schedule_to_dict(store.schedule), handle)
    _dump_trace(args.trace, tracer)
    if args.fail_on_reject and any(not d.accepted for d in decisions):
        return 1
    return 0


def _demo_metrics(deterministic: bool):
    """The admission run behind ``repro metrics``: three requests (one
    infeasible) on the paper's Fig. 2 star network."""
    import itertools

    from repro.model.stream import EctStream, Priorities, TctRequirement
    from repro.model.topology import Topology
    from repro.model.units import MBPS_100, milliseconds
    from repro.service import (
        AdmissionService,
        AdmitEct,
        AdmitTct,
        ScheduleStore,
        empty_schedule,
    )

    topo = Topology()
    topo.add_switch("SW1")
    for device in ("D1", "D2", "D3"):
        topo.add_device(device)
        topo.add_link(device, "SW1", bandwidth_bps=MBPS_100)
    store = ScheduleStore(empty_schedule(topo))
    kwargs = {}
    if deterministic:
        ticks = itertools.count()
        kwargs["clock"] = lambda: next(ticks) * 1e-3  # 1 ms per reading
    service = AdmissionService(store, **kwargs)
    service.submit_many([
        AdmitTct(TctRequirement(
            name="tct-a", source="D1", destination="D3",
            period_ns=milliseconds(8), length_bytes=1500,
            priority=Priorities.NSH_PH,
        )),
        AdmitEct(EctStream(
            name="ect-a", source="D2", destination="D3",
            min_interevent_ns=milliseconds(16), length_bytes=512,
            possibilities=2,
        )),
        AdmitTct(TctRequirement(
            name="hog", source="D2", destination="D3",
            period_ns=milliseconds(4), length_bytes=40 * 1500,
            priority=Priorities.NSH_PH,
        )),
    ])
    return service.metrics


def _run_metrics(args) -> int:
    from repro.obs import to_prometheus
    from repro.serialization import metrics_to_dict

    if args.input:
        with open(args.input) as handle:
            data = json.load(handle)
        data.pop("version", None)
        try:
            registry = _registry_from_dict(data)
        except ValueError as exc:
            print(f"metrics: {exc}", file=sys.stderr)
            return 2
    else:
        registry = _demo_metrics(args.deterministic)
    if args.format == "prometheus":
        sys.stdout.write(to_prometheus(registry))
    else:
        print(json.dumps(metrics_to_dict(registry), indent=2))
    return 0


def _registry_from_dict(data):
    """Rehydrate a saved metrics JSON for lossless re-export.

    Counters and gauges restore exactly.  Histogram summaries carry
    their full bucket table, so :meth:`MetricsRegistry.restore_histogram`
    rebuilds the distribution bit-for-bit, and rejects a summary whose
    buckets do not add up to its count with a :class:`ValueError`.
    """
    from repro.service.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for name, value in data.get("counters", {}).items():
        registry.counter(name).inc(int(value))
    for name, value in data.get("gauges", {}).items():
        registry.gauge(name).set(value)
    for name, summary in data.get("histograms", {}).items():
        registry.restore_histogram(name, summary)
    return registry


def _load_cluster(args, tracer=None):
    """A ClusterCoordinator over the topology/shard arguments."""
    from repro.cluster import ClusterCoordinator, partition_topology
    from repro.serialization import topology_from_dict

    with open(args.topology) as handle:
        topology = topology_from_dict(json.load(handle))
    seeds = args.seeds.split(",") if args.seeds else None
    partition = partition_topology(topology, args.shards, seeds=seeds)
    from repro.service import ServiceConfig

    config = ServiceConfig(backend=getattr(args, "backend", "heuristic"))
    return ClusterCoordinator(
        partition=partition,
        config=config,
        tracer=tracer,
    )


def _run_cluster(args) -> int:
    if args.cluster_command == "status":
        coordinator = _load_cluster(args)
        print(coordinator.partition.describe())
        print(json.dumps(coordinator.status(), indent=2))
        return 0
    if args.cluster_command == "admit":
        from repro.serialization import decision_to_dict

        coordinator = _load_cluster(args)
        decision = coordinator.submit(_admit_request(args))
        print(json.dumps(decision_to_dict(decision)))
        coordinator.audit()
        return 0 if decision.accepted else 1
    return _run_cluster_serve(args)


#: `cluster serve` submits streamed requests in chunks of this many:
#: big enough to amortize the per-call batch span and metrics, small
#: enough that an unbounded pipe never accumulates in memory.
_CLUSTER_SERVE_CHUNK = 256


def _run_cluster_serve(args) -> int:
    tracer = _make_tracer(args.trace)
    coordinator = _load_cluster(args, tracer=tracer)
    decisions = _serve_requests(
        args.requests, coordinator.submit_many, _CLUSTER_SERVE_CHUNK
    )
    if decisions is None:
        return 2
    metrics = coordinator.status()
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(metrics, handle)
    else:
        print(json.dumps({"cluster": metrics["metrics"]}))
    if args.audit:
        coordinator.audit()  # raises GclAuditError on inconsistency
        print(json.dumps({"audit": "ok"}))
    if args.prometheus_out:
        with open(args.prometheus_out, "w") as handle:
            handle.write(coordinator.prometheus())
    _dump_trace(args.trace, tracer)
    if args.fail_on_reject and any(not d.accepted for d in decisions):
        return 1
    return 0


def _run_trace(args) -> int:
    if args.trace_command == "cluster":
        return _run_trace_cluster(args)
    from repro.obs import (
        format_span_summary,
        render_trace_tree,
        summarize_spans,
    )
    from repro.serialization import load_trace

    spans = load_trace(args.file)
    if args.trace_command == "tree":
        print(render_trace_tree(spans, durations=args.durations))
        return 0
    summary = summarize_spans(spans)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"{len(spans)} spans from {args.file}")
        print(format_span_summary(summary))
    return 0


def _run_trace_cluster(args) -> int:
    """One deterministic 2-shard admission batch, rendered as a tree.

    Three requests — one local to each shard, one crossing the border —
    under a fixed tick clock, so the rendered forest is byte-stable (the
    CI golden check diffs it).  One ``trace_id`` spans the coordinator
    batch, the admission batch, its requests, rungs and solves; the
    cross-shard request is an ordinary admit inside it.
    """
    import itertools

    from repro.cluster import ClusterCoordinator, partition_topology
    from repro.experiments import simulation_topology
    from repro.model.stream import Priorities, TctRequirement
    from repro.model.units import milliseconds
    from repro.obs import Tracer, render_trace_tree
    from repro.service import AdmitTct

    ticks = itertools.count()
    tracer = Tracer(clock=lambda: next(ticks) * 1_000_000)  # 1 ms per read
    partition = partition_topology(
        simulation_topology(), 2, seeds=["SW1", "SW4"]
    )
    coordinator = ClusterCoordinator(
        partition=partition,
        tracer=tracer,
        clock=lambda: 0.0,      # latency histograms stay deterministic
    )

    def tct(name, src, dst):
        return AdmitTct(TctRequirement(
            name=name, source=src, destination=dst,
            period_ns=milliseconds(8), length_bytes=1000,
            priority=Priorities.NSH_PH,
        ))

    coordinator.submit_many([
        tct("local-a", "D1", "D4"),       # stays inside shard0
        tct("local-b", "D10", "D12"),     # stays inside shard1
        tct("cross-x", "D1", "D12"),      # spans both shards
    ])
    spans = tracer.spans()
    if args.out:
        from repro.serialization import save_trace

        save_trace(args.out, spans)
    print(render_trace_tree(spans, durations=args.durations))
    return 0


def _run_slo(args) -> int:
    from repro.obs import (
        DEFAULT_TARGETS,
        SloTarget,
        evaluate_slos,
        format_slo_report,
    )
    from repro.serialization import metrics_to_dict

    if args.metrics:
        with open(args.metrics) as handle:
            data = json.load(handle)
        data.pop("version", None)
    else:
        data = metrics_to_dict(_demo_metrics(deterministic=True))
        data.pop("version", None)
    try:
        targets = (
            tuple(SloTarget.parse(spec) for spec in args.target)
            if args.target else DEFAULT_TARGETS
        )
    except ValueError as exc:
        raise SystemExit(f"slo: {exc}")
    try:
        results = evaluate_slos(data, targets, require_all=args.require_all)
    except ValueError as exc:
        print(f"slo: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        print(format_slo_report(results))
    return 0 if all(r.met for r in results) else 1


def _load_schedule(path: str):
    from repro.serialization import schedule_from_dict

    with open(path) as handle:
        return schedule_from_dict(json.load(handle))


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        _run_demo(args.width)
    elif args.command == "figures":
        for name in FIGURES:
            _run_figure(name, args.duration_ms, args.seed)
            print()
    elif args.command == "admit":
        return _run_admit(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "cluster":
        return _run_cluster(args)
    elif args.command == "metrics":
        return _run_metrics(args)
    elif args.command == "trace":
        return _run_trace(args)
    elif args.command == "slo":
        return _run_slo(args)
    elif args.command == "check":
        from repro.check.cli import run_check

        return run_check(args)
    elif args.command == "campaign":
        from repro.campaign.cli import run_campaign_cli

        return run_campaign_cli(args)
    elif args.command == "frontend":
        from repro.frontend.cli import run_frontend

        return run_frontend(args)
    else:
        _run_figure(args.command, args.duration_ms, args.seed)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
