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

import os
from pathlib import Path

import pytest

from repro.model.units import milliseconds

RESULTS_DIR = Path(__file__).parent / "results"


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
