"""Large-n memory smoke: one blocked metric sweep, with a hard memory gate.

Run by the CI ``scaling-smoke`` job (and usable locally)::

    PYTHONPATH=src python benchmarks/scaling_smoke.py --n 5000

Builds a Barabási–Albert instance at ``n`` players, runs the blocked
:func:`repro.core.metrics.compute_profile_metrics` sweep under
``tracemalloc`` and fails loudly if the peak allocation comes anywhere near
the ``4 n^2`` bytes a dense ``(n, n)`` int32 distance matrix would cost —
the regression this job exists to catch.  Prints a one-line JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

from repro.core.games import MaxNCG
from repro.core.metrics import compute_profile_metrics
from repro.core.strategies import StrategyProfile
from repro.graphs.generators.smallworld import owned_barabasi_albert
from repro.kernels import resolve_backend


def run_smoke(
    n: int,
    block_size: int,
    alpha: float,
    k: int,
    backend: str | None = None,
) -> dict:
    profile = StrategyProfile.from_owned_graph(owned_barabasi_albert(n, 2, seed=0))
    game = MaxNCG(alpha, k=k)
    kernel = resolve_backend(backend)
    profile.graph()  # warm the profile's graph cache outside the traced window
    tracemalloc.start()
    start = time.perf_counter()
    metrics = compute_profile_metrics(profile, game, block_size=block_size, backend=kernel)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_bytes = 4 * n * n
    report = {
        "n": n,
        "block_size": block_size,
        "backend": kernel.name,
        "seconds": round(elapsed, 2),
        "peak_mb": round(peak / 2**20, 1),
        "dense_matrix_mb": round(dense_bytes / 2**20, 1),
        "peak_fraction_of_dense": round(peak / dense_bytes, 3),
        "diameter": metrics.diameter,
        "social_cost": metrics.social_cost,
        "ok": peak < dense_bytes / 2,
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--block-size", type=int, default=128)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument(
        "--backend",
        default=None,
        help="kernel backend for the BFS sweep (see repro.kernels); "
        "default follows the REPRO_KERNEL_BACKEND/auto-detect chain",
    )
    args = parser.parse_args(argv)
    report = run_smoke(args.n, args.block_size, args.alpha, args.k, backend=args.backend)
    print(json.dumps(report))
    if not report["ok"]:
        print(
            f"FAIL: peak {report['peak_mb']} MB is not clearly below the "
            f"dense (n, n) matrix ({report['dense_matrix_mb']} MB)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
