#!/usr/bin/env python3
"""The one benchmark command of this repository.

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
    generates workload ``W`` from seed ``S``, drives the unmodified
    program under ``src/`` through it, checks every output, prints every
    metric with its unit and sample count, and ends with one JSON line:
    the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
    traced run (``--trace 1``).  Exit code 1 when any output check
    failed (the line then says ``"correct": false``).

``python3 bench/run.py``
    runs every workload, untraced then traced, each in a process of its
    own, and prints every metric.

``python3 bench/run.py --aa N``
    runs that whole set ``N`` times on the same code and reports, per
    metric and workload, how far the runs are apart and whether that is
    inside the metric's own bound.

See ``bench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from etsnbench import core  # noqa: E402

core.bootstrap()

from etsnbench import admit, frontend, offline, spec  # noqa: E402

DEFAULT_SEED = 1


def _workloads(server_cpu: Optional[int]):
    return {
        spec.FIG13: offline.offline_fig13,
        spec.SMT: offline.offline_smt,
        spec.FASTPATH: admit.admit_fastpath,
        spec.LADDER: admit.admit_ladder,
        spec.READS: lambda *a: frontend.frontend_reads(*a, server_cpu),
        spec.WRITES: lambda *a: frontend.frontend_writes(*a, server_cpu),
    }


def run_workload(benchmark: Dict, workload: str, seed: int, seconds: float,
                 trace: bool, server_cpu: Optional[int] = None) -> Dict:
    """Run one workload in this process; returns the result record
    (the JSON line's content plus ``counts``/``notes``/``problems``).
    ``server_cpu`` is what :func:`etsnbench.core.pin_cpus` returned."""
    outcome = _workloads(server_cpu)[workload](seed, seconds, trace)

    wanted = spec.expected(benchmark, workload, trace)
    missing = sorted(set(wanted) - set(outcome.metrics))
    unnamed = sorted(set(outcome.metrics) - set(wanted))
    outcome.check(not missing, f"metrics not measured: {missing}")
    outcome.check(not unnamed, f"metrics nobody named: {unnamed}")
    outcome.check(outcome.attempted >= 1, "no operation was attempted")
    outcome.check(outcome.failed == 0,
                  f"{outcome.failed} of {outcome.attempted} operations "
                  f"failed")

    listed = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {
        metric["name"]: {
            # a layer this workload does not exercise reads 0
            "value": outcome.metrics.get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
        for metric in listed
    }
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "counts": outcome.counts,
        "notes": outcome.notes,
        "problems": outcome.problems,
        "measured": sorted(outcome.metrics),
    }


def print_record(workload: str, trace: bool, record: Dict) -> None:
    mode = "traced, per layer" if trace else "end to end"
    print(f"== {workload} ({mode}) ==")
    for name, metric in record["metrics"].items():
        if name not in record["measured"]:
            continue
        count = record["counts"].get(name)
        samples = f"  n={count}" if count is not None else ""
        print(f"  {name:<42} {metric['value']:>16.6g} "
              f"{metric['unit']}{samples}")
    for key, value in record["notes"].items():
        print(f"  note {key}: {value}")
    for problem in record["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")


def result_line(record: Dict) -> str:
    return json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


def _one(benchmark: Dict, args) -> int:
    trace = bool(args.trace)
    record = run_workload(benchmark, args.workload, args.seed,
                          args.seconds, trace, core.pin_cpus())
    print_record(args.workload, trace, record)
    out = core.OUT_DIR / (
        f"{args.workload}-{'layers' if trace else 'end_to_end'}.json"
    )
    if record["correct"]:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as handle:
            json.dump(record, handle, indent=1)
    elif out.exists():
        out.unlink()
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# the whole set, and A/A
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int):
    """One workload run in a process of its own; returns the parsed
    result line, or ``None`` when the run failed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_set(benchmark: Dict, seed: int, seconds: float):
    """Every workload, untraced then traced.  Returns
    ``{(workload, metric): value}`` of the measured metrics, and
    whether every run was correct."""
    values: Dict = {}
    ok = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            line = _child(workload, seed, seconds, trace)
            if line is None or not line["correct"]:
                ok = False
                continue
            for name in spec.expected(benchmark, workload, bool(trace)):
                values[(workload, name)] = line["metrics"][name]["value"]
    return values, ok


def _aa(benchmark: Dict, args) -> int:
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    sets = []
    ok = True
    for index in range(args.aa):
        print(f"#### A/A set {index + 1} of {args.aa} ####", flush=True)
        values, set_ok = run_set(benchmark, args.seed, args.seconds)
        sets.append(values)
        ok &= set_ok
    rows = []
    for key in sorted(set().union(*sets)):
        workload, name = key
        seen = [s[key] for s in sets if key in s]
        low, high = min(seen), max(seen)
        gap = (high - low) / abs(low) if low else float(high != low)
        if name in spec.EXACT:
            verdict = "exact" if high == low else "NOT EXACT"
            ok &= high == low
        elif name in bounds:
            inside = gap <= bounds[name]["bound"]
            verdict = "inside bound" if inside else "OUTSIDE BOUND"
            ok &= inside
        else:
            verdict = "-"
        rows.append({"workload": workload, "metric": name, "values": seen,
                     "relative_gap": gap, "verdict": verdict})
    print("#### A/A report ####")
    for row in rows:
        shown = " ".join(f"{v:.6g}" for v in row["values"])
        print(f"{row['workload']:<16} {row['metric']:<42} {shown}  "
              f"gap {row['relative_gap']:.3f}  {row['verdict']}")
    core.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(core.OUT_DIR / "aa.json", "w") as handle:
        json.dump({"sets": args.aa, "seed": args.seed,
                   "seconds": args.seconds, "ok": ok, "rows": rows},
                  handle, indent=1)
    print("A/A:", "agrees" if ok else "DISAGREES")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = spec.load()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--aa", type=int, nargs="?", const=2, default=0,
                        metavar="N", help="run the whole set N times on "
                        "the same code and compare (default 2)")
    args = parser.parse_args(argv)
    if args.aa:
        return _aa(benchmark, args)
    if args.workload:
        return _one(benchmark, args)
    _, ok = run_set(benchmark, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
