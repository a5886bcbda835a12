"""Family-robustness study: the MaxNCG sweep on structurally different instances.

The paper's qualitative findings — fast convergence, hub formation (max
degree far above the max number of bought edges), quality degradation at
small k, saturation once the views cover the network — are measured on
random trees and Erdős–Rényi graphs only.  This study re-runs the same
round-robin best-response protocol on the families of
:mod:`repro.experiments.extensions.instances` and reports the same
statistics, so a reader can check that none of the findings is an artefact
of the two original families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.statistics import summarize
from repro.analysis.structure import structure_report
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, MaxNCG
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.experiments.extensions.instances import build_extension_instance

__all__ = ["FamilyStudyConfig", "generate_family_study"]


@dataclass(frozen=True)
class FamilyStudyConfig:
    """Parameter grid of the family-robustness study."""

    families: tuple[str, ...] = (
        "tree",
        "gnp",
        "watts-strogatz",
        "barabasi-albert",
        "random-regular",
        "caterpillar",
        "spider",
    )
    n: int = 60
    alphas: tuple[float, ...] = (0.5, 2.0, 5.0)
    ks: tuple[int, ...] = (2, 3, FULL_KNOWLEDGE_K)
    settings: SweepSettings = field(default_factory=SweepSettings.paper)

    @classmethod
    def paper(cls, workers: int = 1) -> "FamilyStudyConfig":
        return cls(settings=SweepSettings.paper(workers=workers))

    @classmethod
    def smoke(cls, workers: int = 1) -> "FamilyStudyConfig":
        return cls(
            families=("tree", "watts-strogatz", "barabasi-albert"),
            n=18,
            alphas=(2.0,),
            ks=(2, FULL_KNOWLEDGE_K),
            settings=SweepSettings.smoke(workers=workers),
        )


def _run_one(task: tuple[str, int, float, int, int, str, int]) -> dict:
    """One dynamics run, flattened to a plain row (picklable work item)."""
    family, n, alpha, k, seed, solver, max_rounds = task
    owned = build_extension_instance(family, n, seed)
    k_value = FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k
    game = MaxNCG(alpha=alpha, k=k_value)
    result = best_response_dynamics(
        owned, game, solver=solver, max_rounds=max_rounds
    )
    metrics = result.final_metrics
    anatomy = structure_report(result.final_profile, game)
    return {
        "family": family,
        "n": metrics.num_players,
        "alpha": alpha,
        "k": k,
        "seed": seed,
        "converged": result.converged,
        "cycled": result.cycled,
        "rounds": result.rounds,
        "quality": metrics.quality,
        "diameter": metrics.diameter,
        "max_degree": metrics.max_degree,
        "max_bought_edges": metrics.max_bought_edges,
        "mean_view_size": metrics.mean_view_size,
        "unfairness": metrics.unfairness,
        "bridge_fraction": anatomy.bridge_fraction,
        "degree_gini": anatomy.degree_gini,
    }


def generate_family_study(config: FamilyStudyConfig | None = None) -> list[dict]:
    """One aggregated row per (family, α, k) cell.

    Mirrors the statistics of Figures 6-10 so the per-family rows are
    directly comparable with the paper's tree / G(n, p) numbers.
    """
    from repro.service.api import map_calls  # deferred: import cycle

    cfg = config if config is not None else FamilyStudyConfig.paper()
    tasks = [
        (family, cfg.n, alpha, k, cfg.settings.base_seed + seed, cfg.settings.solver, cfg.settings.max_rounds)
        for family in cfg.families
        for alpha in cfg.alphas
        for k in cfg.ks
        for seed in range(cfg.settings.num_seeds)
    ]
    raw = map_calls(_run_one, tasks, cfg.settings.workers)

    groups: dict[tuple, list[dict]] = {}
    for row in raw:
        groups.setdefault((row["family"], row["alpha"], row["k"]), []).append(row)

    rows: list[dict] = []
    for (family, alpha, k), bucket in sorted(groups.items(), key=lambda kv: tuple(map(repr, kv[0]))):
        aggregated: dict = {"family": family, "alpha": alpha, "k": k, "num_runs": len(bucket)}
        aggregated["converged_fraction"] = sum(r["converged"] for r in bucket) / len(bucket)
        for metric in (
            "rounds",
            "quality",
            "diameter",
            "max_degree",
            "max_bought_edges",
            "mean_view_size",
            "unfairness",
            "bridge_fraction",
            "degree_gini",
        ):
            finite = [float(r[metric]) for r in bucket if r[metric] == r[metric] and abs(r[metric]) != float("inf")]
            summary = summarize(finite)
            aggregated[f"{metric}_mean"] = summary.mean
            aggregated[f"{metric}_ci"] = summary.half_width
        rows.append(aggregated)
    return rows
