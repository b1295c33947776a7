"""Shared benchmark scaffolding.

Each benchmark module regenerates one table/figure of the paper: it runs
the full experiment (schedule -> GCL -> simulation), prints the rows the
paper reports, saves them under ``benchmarks/results/``, asserts the
paper's *shape* claims (who wins, by roughly what factor), and feeds one
representative computation to pytest-benchmark for timing.

Environment knobs:

REPRO_BENCH_MS
    Simulated milliseconds per configuration (default 2000; the paper's
    shapes are stable from a few hundred events on).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.model.units import milliseconds

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="session")
def bench_duration_ns() -> int:
    return milliseconds(int(os.environ.get("REPRO_BENCH_MS", "2000")))


@pytest.fixture(scope="session")
def emit():
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def bench_record():
    """Persist machine-readable headline numbers as BENCH_<name>.json
    at the repo root.

    Deliberately timestamp-free: the files are meant to be diffable
    across runs, so they carry only the measured figures and the
    workload metadata that identifies what was measured.
    """

    def _record(name: str, data: dict, merge: bool = False) -> Path:
        """``merge`` keeps the file's other top-level keys, and the
        other keys of a block it adds to: a second benchmark adding its
        block, or its curve, to a file another one owns."""
        path = REPO_ROOT / f"BENCH_{name}.json"
        if merge and path.exists():
            kept = json.loads(path.read_text())
            for key, value in data.items():
                if isinstance(value, dict) and isinstance(kept.get(key), dict):
                    value = {**kept[key], **value}
                kept[key] = value
            data = kept
        path.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
        return path

    return _record
