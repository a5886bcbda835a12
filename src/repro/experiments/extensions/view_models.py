"""View-model comparison: how much information regimes change the game.

For each (α, k) cell the study runs the paper's dynamics (k-neighbourhood
views), takes the resulting stable network, and asks two questions about the
query-based discovery models of :mod:`repro.discovery`:

* how much of the network does each model reveal to the players
  (the Figure 5 statistic, generalised), and
* does the stable network *stay* stable when the players' knowledge comes
  from the alternative model?

Because the traceroute and union-of-balls views generally reveal more than
the radius-k ball, a network that was stable under scarce information can
stop being stable under richer information — the study reports how often
that happens, which is the experimental counterpart of the paper's
observation that the LKE set shrinks towards the NE set as knowledge grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.statistics import summarize
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, MaxNCG
from repro.discovery.analysis import view_size_statistics, improving_players_under_model
from repro.discovery.models import KNeighborhoodModel, TracerouteModel, UnionOfBallsModel
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.graphs.generators.trees import random_owned_tree

__all__ = ["ViewModelStudyConfig", "generate_view_model_study"]


def _default_models(k: float):
    """The three models compared for a given baseline radius ``k``."""
    radius = 1 if k == FULL_KNOWLEDGE else max(int(k) // 2, 1)
    return [
        KNeighborhoodModel(k=k),
        UnionOfBallsModel(radius=radius, include_neighbors=True),
        TracerouteModel(),
    ]


@dataclass(frozen=True)
class ViewModelStudyConfig:
    """Parameter grid of the view-model comparison."""

    n: int = 40
    alphas: tuple[float, ...] = (1.0, 3.0)
    ks: tuple[int, ...] = (2, 3, FULL_KNOWLEDGE_K)
    settings: SweepSettings = field(default_factory=SweepSettings.paper)

    @classmethod
    def paper(cls, workers: int = 1) -> "ViewModelStudyConfig":
        return cls(settings=SweepSettings.paper(workers=workers))

    @classmethod
    def smoke(cls, workers: int = 1) -> "ViewModelStudyConfig":
        return cls(
            n=14,
            alphas=(2.0,),
            ks=(2,),
            settings=SweepSettings.smoke(workers=workers),
        )


def _run_one(task: tuple[int, float, int, int, str, int]) -> list[dict]:
    n, alpha, k, seed, solver, max_rounds = task
    owned = random_owned_tree(n, seed=seed)
    k_value = FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k
    game = MaxNCG(alpha=alpha, k=k_value)
    dynamics = best_response_dynamics(owned, game, solver=solver, max_rounds=max_rounds)
    profile = dynamics.final_profile

    rows: list[dict] = []
    for model in _default_models(k_value):
        mean_size, min_size, mean_frontier = view_size_statistics(profile, model)
        improving = improving_players_under_model(profile, game, model, solver=solver)
        rows.append(
            {
                "model": model.label(),
                "n": n,
                "alpha": alpha,
                "k": k,
                "seed": seed,
                "baseline_converged": dynamics.converged,
                "mean_view_size": mean_size,
                "min_view_size": min_size,
                "mean_frontier_size": mean_frontier,
                "stable": not improving,
                "num_improving_players": len(improving),
            }
        )
    return rows


def generate_view_model_study(config: ViewModelStudyConfig | None = None) -> list[dict]:
    """One aggregated row per (model, α, k) cell."""
    from repro.service.api import map_calls  # deferred: import cycle

    cfg = config if config is not None else ViewModelStudyConfig.paper()
    tasks = [
        (cfg.n, alpha, k, cfg.settings.base_seed + seed, cfg.settings.solver, cfg.settings.max_rounds)
        for alpha in cfg.alphas
        for k in cfg.ks
        for seed in range(cfg.settings.num_seeds)
    ]
    nested = map_calls(_run_one, tasks, cfg.settings.workers)
    raw = [row for rows in nested for row in rows]

    groups: dict[tuple, list[dict]] = {}
    for row in raw:
        groups.setdefault((row["model"], row["alpha"], row["k"]), []).append(row)

    rows: list[dict] = []
    for (model, alpha, k), bucket in sorted(groups.items()):
        aggregated: dict = {
            "model": model,
            "alpha": alpha,
            "k": k,
            "n": cfg.n,
            "num_runs": len(bucket),
        }
        aggregated["stable_fraction"] = sum(r["stable"] for r in bucket) / len(bucket)
        for metric in ("mean_view_size", "min_view_size", "mean_frontier_size", "num_improving_players"):
            summary = summarize([float(r[metric]) for r in bucket])
            aggregated[f"{metric}_mean"] = summary.mean
            aggregated[f"{metric}_ci"] = summary.half_width
        rows.append(aggregated)
    return rows
