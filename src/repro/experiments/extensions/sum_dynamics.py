"""SumNCG dynamics on small instances (the experiment the paper skips).

Section 5 restricts the simulations to MaxNCG because computing an exact
SumNCG best response is not practical at n = 100-200.  At small n the
exhaustive SumNCG solver *is* exact, so this study runs the identical
round-robin protocol for the sum game on small random trees and reports the
same statistics (convergence, quality, view sizes, fairness).  Two findings
worth comparing against the MaxNCG figures:

* convergence stays fast (a handful of rounds), and
* the conservative Proposition 2.2 rule makes small-k players extremely
  reluctant to restructure, so the quality of equilibrium tracks the initial
  network much more closely than in MaxNCG.

Every run rides the incremental engine
(:func:`repro.core.dynamics.best_response_dynamics` →
:class:`repro.engine.DynamicsEngine`): sum best responses go through the
pruned exhaustive / local-search dispatch of
:func:`repro.core.best_response.best_response` and are memoised per
(view token, strategy), so the quiet certifying rounds of every converged
run are cache hits rather than fresh ``2^m`` enumerations
(``benchmarks/test_bench_sum.py`` times exactly this).  The per-cell
``certified_fraction`` reports how many runs carry an equilibrium
certificate behind their convergence flag, and ``certified_exact_fraction``
how many of those certificates are *exact* — below the exhaustive-dispatch
limit every sum best response is solved exactly, above it the local search
answers and the certificate is honest-but-heuristic
(:attr:`repro.core.dynamics.DynamicsResult.certified_exact`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.statistics import summarize
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, SumNCG
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings

__all__ = ["SumDynamicsConfig", "run_sum_task", "generate_sum_dynamics"]


@dataclass(frozen=True)
class SumDynamicsConfig:
    """Parameter grid of the SumNCG small-scale study."""

    sizes: tuple[int, ...] = (10, 14, 18)
    alphas: tuple[float, ...] = (0.5, 1.5, 3.0)
    ks: tuple[int, ...] = (2, 3, FULL_KNOWLEDGE_K)
    settings: SweepSettings = field(default_factory=SweepSettings.paper)

    def __post_init__(self) -> None:
        # A grid that execution would refuse raises here, before any of its
        # work starts.
        for n in self.sizes:
            if n < 1:
                raise ValueError(f"sizes must be positive, got {n!r}")
        for alpha in self.alphas:
            for k in self.ks:
                _sum_game(alpha, k)

    @classmethod
    def paper(cls, workers: int = 1) -> "SumDynamicsConfig":
        return cls(settings=SweepSettings.paper(workers=workers))

    @classmethod
    def smoke(cls, workers: int = 1) -> "SumDynamicsConfig":
        return cls(
            sizes=(10,),
            alphas=(1.5,),
            ks=(2, FULL_KNOWLEDGE_K),
            settings=SweepSettings.smoke(workers=workers),
        )


def _sum_game(alpha: float, k: int) -> SumNCG:
    """The game of one grid cell (``k >= FULL_KNOWLEDGE_K`` is full knowledge)."""
    return SumNCG(alpha=alpha, k=FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k)


def run_sum_task(task: tuple[int, float, int, int, int], initial, view_store=None) -> dict:
    """One SumNCG run on a pre-built initial instance (sweep work item).

    ``initial`` is the random owned tree of the task's ``(n, seed)`` — or
    the equivalent :class:`~repro.core.strategies.StrategyProfile` from a
    sweep worker's cache; the result is identical either way.
    """
    n, alpha, k, seed, max_rounds = task
    result = best_response_dynamics(
        initial, _sum_game(alpha, k), max_rounds=max_rounds, view_store=view_store
    )
    metrics = result.final_metrics
    return {
        "n": n,
        "alpha": alpha,
        "k": k,
        "seed": seed,
        "converged": result.converged,
        "certified": result.certified,
        "certified_exact": result.certified_exact,
        "cycled": result.cycled,
        "rounds": result.rounds,
        "total_changes": result.total_changes,
        "quality": metrics.quality,
        "diameter": metrics.diameter,
        "max_bought_edges": metrics.max_bought_edges,
        "mean_view_size": metrics.mean_view_size,
        "unfairness": metrics.unfairness,
    }


def generate_sum_dynamics(
    config: SumDynamicsConfig | None = None,
    journal: str | None = None,
    resume: bool = False,
) -> list[dict]:
    """One aggregated row per (n, α, k) cell of the SumNCG sweep.

    The per-run grid (:func:`repro.service.tasks.compile_sum_tasks`) runs
    through the orchestration service on ``settings.workers``
    instance-affine workers (1 = in the calling process); a ``journal``
    directory makes it crash-safe and enables ``resume``.
    """
    from repro.service.api import ServiceConfig, sum_sweep

    cfg = config if config is not None else SumDynamicsConfig.paper()
    raw = sum_sweep(
        cfg,
        ServiceConfig(
            workers=cfg.settings.workers,
            journal_dir=journal,
            experiment="sum-dynamics",
            resume=resume,
        ),
    )

    groups: dict[tuple, list[dict]] = {}
    for row in raw:
        groups.setdefault((row["n"], row["alpha"], row["k"]), []).append(row)

    rows: list[dict] = []
    for (n, alpha, k), bucket in sorted(groups.items()):
        aggregated: dict = {"n": n, "alpha": alpha, "k": k, "num_runs": len(bucket)}
        aggregated["converged_fraction"] = sum(r["converged"] for r in bucket) / len(bucket)
        aggregated["certified_fraction"] = sum(r["certified"] for r in bucket) / len(bucket)
        aggregated["certified_exact_fraction"] = sum(
            r["certified_exact"] for r in bucket
        ) / len(bucket)
        aggregated["cycled_fraction"] = sum(r["cycled"] for r in bucket) / len(bucket)
        for metric in ("rounds", "total_changes", "quality", "diameter", "max_bought_edges", "mean_view_size", "unfairness"):
            finite = [float(r[metric]) for r in bucket if r[metric] == r[metric] and abs(r[metric]) != float("inf")]
            summary = summarize(finite)
            aggregated[f"{metric}_mean"] = summary.mean
            aggregated[f"{metric}_ci"] = summary.half_width
        rows.append(aggregated)
    return rows
