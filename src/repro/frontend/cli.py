"""``repro frontend serve`` and ``repro loadgen`` — the network surface.

``frontend serve`` hosts an :class:`~repro.frontend.server.Frontend`
over a single admission service (``--state``/``--topology``) or a
sharded cluster (``--cluster --shards N``), announces the bound
address as one JSON line on stdout (so scripts can use ``--port 0``),
and drains gracefully on SIGTERM/SIGINT.

``loadgen`` drives a running frontend with a seeded shape-mixed
request stream (:mod:`repro.frontend.loadgen`) and prints the measured
report; ``--fail-on-drops`` and ``--slo`` turn it into a CI gate.
"""

from __future__ import annotations

import asyncio
import json
import sys

__all__ = ["add_frontend_parser", "add_loadgen_parser",
           "run_frontend", "run_loadgen_cli"]


def add_frontend_parser(subparsers) -> None:
    """Attach the ``frontend`` subcommand to the top-level CLI parser."""
    frontend = subparsers.add_parser(
        "frontend",
        help="async network admission frontend (repro.frontend)",
    )
    frontend_sub = frontend.add_subparsers(
        dest="frontend_command", required=True
    )
    serve = frontend_sub.add_parser(
        "serve", help="serve admission decisions over a JSONL socket"
    )
    backend_source = serve.add_mutually_exclusive_group(required=True)
    backend_source.add_argument("--state", help="initial schedule JSON")
    backend_source.add_argument(
        "--topology",
        help="topology JSON; starts from an empty schedule",
    )
    serve.add_argument("--cluster", action="store_true",
                       help="shard the topology and serve through a "
                            "ClusterCoordinator (requires --topology)")
    serve.add_argument("--shards", type=int, default=4,
                       help="number of shards with --cluster")
    serve.add_argument("--seeds", metavar="SW[,SW...]",
                       help="comma-separated seed switches with --cluster")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port and "
                            "announces it on stdout")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="intake queue bound; a full queue answers "
                            "server_busy instead of buffering")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="requests coalesced per backend call, "
                            "per shard")
    serve.add_argument("--max-pipeline", type=int, default=1024,
                       help="per-connection pipelined responses "
                            "awaiting write before the reader pauses")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="decision cache capacity")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the decision cache")
    serve.add_argument("--drain-grace-s", type=float, default=10.0,
                       help="graceful-drain budget on shutdown")
    serve.add_argument("--backend", default="heuristic",
                       choices=("heuristic", "smt"),
                       help="backend for the full re-solve rung")
    serve.add_argument("--metrics-out", metavar="FILE",
                       help="write the frontend+backend metrics JSON "
                            "here on shutdown")
    serve.add_argument("--trace", metavar="FILE",
                       help="write admission spans here as JSON-lines")


def add_loadgen_parser(subparsers) -> None:
    """Attach the ``loadgen`` subcommand to the top-level CLI parser."""
    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a running frontend with shape-mixed admission load",
    )
    loadgen.add_argument("--host", default="127.0.0.1",
                         help="frontend address")
    loadgen.add_argument("--port", type=int, required=True,
                         help="frontend port")
    loadgen.add_argument("--requests", type=int, default=10_000,
                         help="total requests to send")
    loadgen.add_argument("--connections", type=int, default=4,
                         help="concurrent client connections")
    loadgen.add_argument("--window", type=int, default=64,
                         help="closed loop: outstanding requests per "
                              "connection")
    loadgen.add_argument("--mode", default="closed",
                         choices=("closed", "open"),
                         help="closed loop (windowed) or open loop "
                              "(fixed rate)")
    loadgen.add_argument("--rate", type=float, default=10_000.0,
                         help="open loop: aggregate requests per second")
    loadgen.add_argument("--endpoint", action="append", required=True,
                         metavar="SRC:DST", dest="endpoints",
                         help="talker:listener device pair the shape "
                              "mix draws routes from (repeatable)")
    loadgen.add_argument("--distinct", type=int, default=8,
                         help="distinct stream profiles in the mix")
    loadgen.add_argument("--infeasible-fraction", type=float, default=1.0,
                         help="fraction of profiles with an impossible "
                              "deadline (deterministic, cacheable "
                              "rejections)")
    loadgen.add_argument("--seed", type=int, default=7,
                         help="shape-mix RNG seed")
    loadgen.add_argument("--timeout-s", type=float, default=120.0,
                         help="per-connection response timeout")
    loadgen.add_argument("--out", metavar="FILE",
                         help="write the report JSON here (in addition "
                              "to stdout)")
    loadgen.add_argument("--fail-on-drops", action="store_true",
                         help="exit 1 when any request was dropped "
                              "(server_busy, drain, or transport)")
    loadgen.add_argument("--slo", action="store_true",
                         help="evaluate the frontend SLO targets "
                              "against the measured round trips; "
                              "exit 1 on violation")


def run_frontend(args) -> int:
    if args.frontend_command != "serve":  # pragma: no cover - argparse
        raise SystemExit(f"unknown frontend command {args.frontend_command}")
    return _run_frontend_serve(args)


def _run_frontend_serve(args) -> int:
    from repro.cli import _load_schedule, _make_tracer
    from repro.frontend.server import (
        ClusterBackend,
        Frontend,
        FrontendConfig,
        ServiceBackend,
        serve_until_stopped,
    )
    from repro.serialization import topology_from_dict
    from repro.service import (
        AdmissionService,
        ScheduleStore,
        ServiceConfig,
        empty_schedule,
    )

    tracer = _make_tracer(args.trace)
    config = ServiceConfig(backend=args.backend)
    if args.cluster:
        if not args.topology:
            print("error: --cluster requires --topology", file=sys.stderr)
            return 2
        from repro.cluster import ClusterCoordinator, partition_topology

        with open(args.topology) as handle:
            topology = topology_from_dict(json.load(handle))
        seeds = args.seeds.split(",") if args.seeds else None
        backend = ClusterBackend(ClusterCoordinator(
            partition=partition_topology(topology, args.shards, seeds=seeds),
            config=config,
            tracer=tracer,
        ))
    else:
        if args.state:
            schedule = _load_schedule(args.state)
        else:
            with open(args.topology) as handle:
                schedule = empty_schedule(topology_from_dict(json.load(handle)))
        service = AdmissionService(
            ScheduleStore(schedule), config=config, tracer=tracer
        )
        backend = ServiceBackend(service)

    frontend = Frontend(
        backend,
        config=FrontendConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            max_pipeline=args.max_pipeline,
            cache_size=0 if args.no_cache else args.cache_size,
            drain_grace_s=args.drain_grace_s,
        ),
        tracer=tracer,
    )

    def announce(started: Frontend) -> None:
        host, port = started.address
        print(json.dumps({"frontend": {
            "host": host, "port": port, "backend": backend.kind,
        }}), flush=True)

    try:
        asyncio.run(serve_until_stopped(frontend, on_started=announce))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    if args.metrics_out:
        payload = frontend.metrics.to_dict()
        backend_metrics = backend.metrics.to_dict()
        payload["backend"] = backend_metrics
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle)
    if args.trace:
        from repro.cli import _dump_trace

        _dump_trace(args.trace, tracer)
    return 0


def run_loadgen_cli(args) -> int:
    from repro.frontend.loadgen import (
        LoadgenConfig,
        make_profiles,
        run_loadgen_sync,
    )

    endpoints = []
    for spec in args.endpoints:
        source, sep, destination = spec.partition(":")
        if not sep or not source or not destination:
            print(f"error: --endpoint must be SRC:DST, got {spec!r}",
                  file=sys.stderr)
            return 2
        endpoints.append((source, destination))
    profiles = make_profiles(
        endpoints,
        distinct=args.distinct,
        infeasible_fraction=args.infeasible_fraction,
        seed=args.seed,
    )
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        total_requests=args.requests,
        connections=args.connections,
        window=args.window,
        mode=args.mode,
        rate_per_sec=args.rate,
        seed=args.seed,
        timeout_s=args.timeout_s,
    )
    try:
        report = run_loadgen_sync(config, profiles)
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach frontend at "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(report.to_json())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
    failed = False
    if args.fail_on_drops and report.dropped:
        print(f"loadgen: {report.dropped} requests dropped",
              file=sys.stderr)
        failed = True
    if args.slo:
        from repro.obs import FRONTEND_TARGETS, evaluate_slos, format_slo_report

        results = evaluate_slos(
            report.metrics.to_dict(), targets=FRONTEND_TARGETS
        )
        print(format_slo_report(results), file=sys.stderr)
        if any(not result.met for result in results):
            failed = True
    return 1 if failed else 0
