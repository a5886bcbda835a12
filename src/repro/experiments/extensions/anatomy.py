"""Anatomy study: how the structure of stable networks changes with (α, k).

Figures 8-9 track two coarse statistics of the stable networks (max degree
and unfairness).  This study records the full structural report of
:mod:`repro.analysis.structure` for every equilibrium of a (α, k) sweep on
random trees, answering three questions the coarse statistics cannot:

* how tree-like the equilibria stay (bridge fraction, cyclomatic number);
* how concentrated the hub structure becomes as knowledge grows (degree and
  betweenness Gini, top-10 % degree share, hub-vs-center overlap);
* how the social cost splits between building and usage, and how unevenly
  each part is carried across players.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.statistics import summarize
from repro.analysis.structure import structure_report
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, MaxNCG
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.graphs.generators.trees import random_owned_tree

__all__ = ["AnatomyStudyConfig", "generate_anatomy_study"]

#: Structure metrics aggregated per cell (name -> StructureReport attribute).
_STRUCTURE_METRICS: tuple[str, ...] = (
    "bridge_fraction",
    "cyclomatic_number",
    "num_articulation_points",
    "degree_gini",
    "degree_top10_share",
    "betweenness_gini",
    "building_cost_share",
    "building_gini",
    "usage_gini",
)


@dataclass(frozen=True)
class AnatomyStudyConfig:
    """Parameter grid of the equilibrium-anatomy study."""

    n: int = 50
    alphas: tuple[float, ...] = (0.5, 2.0, 5.0)
    ks: tuple[int, ...] = (2, 3, 5, FULL_KNOWLEDGE_K)
    settings: SweepSettings = field(default_factory=SweepSettings.paper)

    @classmethod
    def paper(cls, workers: int = 1) -> "AnatomyStudyConfig":
        return cls(settings=SweepSettings.paper(workers=workers))

    @classmethod
    def smoke(cls, workers: int = 1) -> "AnatomyStudyConfig":
        return cls(
            n=16,
            alphas=(2.0,),
            ks=(2, FULL_KNOWLEDGE_K),
            settings=SweepSettings.smoke(workers=workers),
        )


def _run_one(task: tuple[int, float, int, int, str, int]) -> dict:
    n, alpha, k, seed, solver, max_rounds = task
    owned = random_owned_tree(n, seed=seed)
    k_value = FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k
    game = MaxNCG(alpha=alpha, k=k_value)
    result = best_response_dynamics(owned, game, solver=solver, max_rounds=max_rounds)
    report = structure_report(result.final_profile, game)
    row: dict = {
        "n": n,
        "alpha": alpha,
        "k": k,
        "seed": seed,
        "converged": result.converged,
        "quality": result.final_metrics.quality,
        "hubs_in_center": report.hubs_in_center,
    }
    for metric in _STRUCTURE_METRICS:
        row[metric] = float(getattr(report, metric))
    return row


def generate_anatomy_study(config: AnatomyStudyConfig | None = None) -> list[dict]:
    """One aggregated row per (α, k) cell with the mean structural statistics."""
    from repro.service.api import map_calls  # deferred: import cycle

    cfg = config if config is not None else AnatomyStudyConfig.paper()
    tasks = [
        (cfg.n, alpha, k, cfg.settings.base_seed + seed, cfg.settings.solver, cfg.settings.max_rounds)
        for alpha in cfg.alphas
        for k in cfg.ks
        for seed in range(cfg.settings.num_seeds)
    ]
    raw = map_calls(_run_one, tasks, cfg.settings.workers)

    groups: dict[tuple, list[dict]] = {}
    for row in raw:
        groups.setdefault((row["alpha"], row["k"]), []).append(row)

    rows: list[dict] = []
    for (alpha, k), bucket in sorted(groups.items()):
        aggregated: dict = {"alpha": alpha, "k": k, "n": cfg.n, "num_runs": len(bucket)}
        aggregated["converged_fraction"] = sum(r["converged"] for r in bucket) / len(bucket)
        aggregated["hubs_in_center_fraction"] = sum(r["hubs_in_center"] for r in bucket) / len(bucket)
        for metric in ("quality",) + _STRUCTURE_METRICS:
            summary = summarize([float(r[metric]) for r in bucket])
            aggregated[f"{metric}_mean"] = summary.mean
            aggregated[f"{metric}_ci"] = summary.half_width
        rows.append(aggregated)
    return rows
