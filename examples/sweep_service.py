"""Walkthrough: orchestrated, journaled, resumable sweeps.

Usage::

    python examples/sweep_service.py [n] [workers]

Builds a small RunSpec grid where four (alpha, k) cells share each random
instance, runs it three ways and shows what the sweep orchestration
service (``repro.service``) adds over the throwaway pool:

1. each spec run on its own with ``run_single`` (the ground truth);
2. the orchestrated sweep — the cells handed out heaviest instance first,
   each to whichever warm worker is idle, an instance built at most once
   per worker — whose results must be identical;
3. a journaled sweep that gets "killed" halfway (we truncate the journal
   to simulate the SIGKILL) and resumed with ``resume=True``: the completed
   half is served from the journal, only the rest is recomputed, and the
   final row set is identical again.

The CLI equivalent of step 3 is::

    python -m repro sweep --workers 4 --journal out/store          # killed...
    python -m repro sweep --workers 4 --journal out/store --resume # ...resumed
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.experiments.config import SweepSettings
from repro.experiments.runner import RunSpec, run_single, run_sweep
from repro.service.api import ServiceConfig, run_spec_sweep
from repro.service.journal import SweepJournal


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    specs = [
        RunSpec(family="tree", n=n, alpha=alpha, k=k, seed=seed, solver="greedy")
        for alpha in (0.5, 2.0)
        for k in (2, 3)
        for seed in range(2)
    ]
    print(f"grid: {len(specs)} runs, 4 (alpha, k) cells per instance, n={n}")

    serial = [run_single(spec) for spec in specs]
    print(f"one run per spec   : {sum(r.converged for r in serial)}/{len(serial)} converged")

    orchestrated = run_spec_sweep(specs, ServiceConfig(workers=workers))
    print(f"orchestrated sweep : identical results = {orchestrated == serial}")

    with tempfile.TemporaryDirectory() as tmp:
        run_sweep(
            specs,
            SweepSettings(num_seeds=2, solver="greedy", workers=workers),
            journal=tmp,
        )
        log = Path(tmp) / "sweep" / SweepJournal.LOG_NAME
        lines = log.read_text().splitlines(True)
        log.write_text("".join(lines[: len(lines) // 2]))  # the "kill"
        print(f"killed mid-sweep   : {len(lines) // 2}/{len(lines)} tasks journaled")
        resumed = run_sweep(
            specs,
            SweepSettings(num_seeds=2, solver="greedy", workers=workers),
            journal=tmp,
            resume=True,
        )
        print(f"resumed sweep      : identical results = {resumed == serial}")


if __name__ == "__main__":
    main()
