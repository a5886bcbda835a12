"""Move-set ablation: unrestricted best responses vs greedy vs swap moves.

Figures 6-7 measure the quality of equilibria reached by *unrestricted* best
responses.  The related-work models of Alon et al. and Lenzner restrict each
step to a single edge swap or a single add/delete/swap; this study runs all
three dynamics from identical starting networks (same seeds) and reports,
per (α, k) cell, the quality, convergence time and hub statistics of the
stable networks each move set produces — quantifying how much of the
equilibrium structure is driven by the richness of the strategy space rather
than by the knowledge radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.statistics import summarize
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, MaxNCG
from repro.core.swap import local_move_dynamics
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.graphs.generators.trees import random_owned_tree

__all__ = ["MoveSetStudyConfig", "generate_move_set_study"]

#: The three dynamics variants compared by the study.
MOVE_SETS: tuple[str, ...] = ("best_response", "greedy", "swap")


@dataclass(frozen=True)
class MoveSetStudyConfig:
    """Parameter grid of the move-set ablation."""

    n: int = 40
    alphas: tuple[float, ...] = (0.5, 2.0, 5.0)
    ks: tuple[int, ...] = (2, 3, FULL_KNOWLEDGE_K)
    move_sets: tuple[str, ...] = MOVE_SETS
    settings: SweepSettings = field(default_factory=SweepSettings.paper)

    @classmethod
    def paper(cls, workers: int = 1) -> "MoveSetStudyConfig":
        return cls(settings=SweepSettings.paper(workers=workers))

    @classmethod
    def smoke(cls, workers: int = 1) -> "MoveSetStudyConfig":
        return cls(
            n=14,
            alphas=(2.0,),
            ks=(2, FULL_KNOWLEDGE_K),
            settings=SweepSettings.smoke(workers=workers),
        )


def _run_one(task: tuple[str, int, float, int, int, str, int]) -> dict:
    move_set, n, alpha, k, seed, solver, max_rounds = task
    owned = random_owned_tree(n, seed=seed)
    k_value = FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k
    game = MaxNCG(alpha=alpha, k=k_value)
    if move_set == "best_response":
        result = best_response_dynamics(owned, game, solver=solver, max_rounds=max_rounds)
        moves_by_kind: dict[str, int] = {}
    else:
        result = local_move_dynamics(owned, game, move_set=move_set, max_rounds=max_rounds)
        moves_by_kind = result.moves_by_kind
    metrics = result.final_metrics
    return {
        "move_set": move_set,
        "n": n,
        "alpha": alpha,
        "k": k,
        "seed": seed,
        "converged": result.converged,
        "cycled": result.cycled,
        "rounds": result.rounds,
        "total_changes": result.total_changes,
        "quality": metrics.quality,
        "diameter": metrics.diameter,
        "max_degree": metrics.max_degree,
        "max_bought_edges": metrics.max_bought_edges,
        "swap_moves": moves_by_kind.get("swap", 0),
        "add_moves": moves_by_kind.get("add", 0),
        "delete_moves": moves_by_kind.get("delete", 0),
    }


def generate_move_set_study(config: MoveSetStudyConfig | None = None) -> list[dict]:
    """One aggregated row per (move set, α, k) cell."""
    from repro.service.api import map_calls  # deferred: import cycle

    cfg = config if config is not None else MoveSetStudyConfig.paper()
    unknown = set(cfg.move_sets) - set(MOVE_SETS)
    if unknown:
        raise ValueError(f"unknown move sets: {sorted(unknown)}")
    tasks = [
        (move_set, cfg.n, alpha, k, cfg.settings.base_seed + seed, cfg.settings.solver, cfg.settings.max_rounds)
        for move_set in cfg.move_sets
        for alpha in cfg.alphas
        for k in cfg.ks
        for seed in range(cfg.settings.num_seeds)
    ]
    raw = map_calls(_run_one, tasks, cfg.settings.workers)

    groups: dict[tuple, list[dict]] = {}
    for row in raw:
        groups.setdefault((row["move_set"], row["alpha"], row["k"]), []).append(row)

    rows: list[dict] = []
    for (move_set, alpha, k), bucket in sorted(groups.items()):
        aggregated: dict = {
            "move_set": move_set,
            "alpha": alpha,
            "k": k,
            "n": cfg.n,
            "num_runs": len(bucket),
        }
        aggregated["converged_fraction"] = sum(r["converged"] for r in bucket) / len(bucket)
        for metric in ("rounds", "total_changes", "quality", "diameter", "max_degree", "max_bought_edges"):
            summary = summarize([float(r[metric]) for r in bucket])
            aggregated[f"{metric}_mean"] = summary.mean
            aggregated[f"{metric}_ci"] = summary.half_width
        rows.append(aggregated)
    return rows
