"""Shared helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper on its smoke
grid (the full paper grid is available through the CLI: ``python -m repro
<figure> [--workers N]``), times it with pytest-benchmark, writes the
resulting rows to ``benchmarks/output/`` and prints them so the series can be
compared with the paper's.  The timing harnesses (``test_bench_engine`` and
friends) write their JSON reports to the git-ignored ``benchmarks/out/``
through :func:`emit_report` instead, so running the suite leaves every
tracked file untouched.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.io import format_table, write_csv

OUTPUT_DIR = Path(__file__).parent / "output"
REPORT_DIR = Path(__file__).parent / "out"


@pytest.fixture
def emit_rows():
    """Return a callable that persists and pretty-prints benchmark rows."""

    def _emit(rows: list[dict], name: str, title: str | None = None) -> list[dict]:
        OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
        write_csv(rows, OUTPUT_DIR / f"{name}.csv")
        print()
        print(format_table(rows, title=title or name))
        return rows

    return _emit


@pytest.fixture
def emit_report():
    """Return a callable that writes ``benchmarks/out/<name>.json`` and prints it."""

    def _emit(report: dict, name: str) -> dict:
        REPORT_DIR.mkdir(parents=True, exist_ok=True)
        text = json.dumps(report, indent=2)
        (REPORT_DIR / f"{name}.json").write_text(text + "\n")
        print()
        print(text)
        return report

    return _emit


def run_once(benchmark, func, *args, **kwargs):
    """Run an expensive harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
