"""Belief study: do worst-case equilibria survive Bayesian scrutiny?

The conclusions of the paper propose relaxing the maximin deviation rule
into a Bayesian one.  This study takes the LKEs produced by the standard
dynamics (small random trees, MaxNCG or SumNCG) and checks, for each of the
canonical beliefs of :mod:`repro.core.bayesian`, whether some player would
deviate once she reasons in expectation instead of in the worst case:

* under :class:`~repro.core.bayesian.EmptyWorldBelief` a MaxNCG LKE always
  survives (Proposition 2.1 says worst case = view, and the empty-world
  expectation *is* the view), which the study uses as a sanity row;
* under heavier beliefs the SumNCG players start seeing expected gains from
  edges towards the frontier, and the fraction of surviving equilibria
  drops — the experimental signature of the gap between the LKE concept and
  its Bayesian relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.statistics import summarize
from repro.core.bayesian import (
    EmptyWorldBelief,
    GeometricGrowthBelief,
    PessimisticBelief,
    is_bayesian_equilibrium,
)
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, MaxNCG, SumNCG
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.graphs.generators.trees import random_owned_tree

__all__ = ["BeliefStudyConfig", "generate_belief_study", "BELIEF_FACTORIES"]

#: belief label -> zero-argument factory.
BELIEF_FACTORIES = {
    "empty-world": EmptyWorldBelief,
    "pessimistic-small": lambda: PessimisticBelief(eta=2.0, extra_distance=1.0),
    "pessimistic-heavy": lambda: PessimisticBelief(eta=25.0, extra_distance=1.0),
    "geometric": lambda: GeometricGrowthBelief(depth=3),
}


@dataclass(frozen=True)
class BeliefStudyConfig:
    """Parameter grid of the belief study."""

    n: int = 14
    alphas: tuple[float, ...] = (1.0, 3.0)
    ks: tuple[int, ...] = (2, 3)
    usages: tuple[str, ...] = ("max", "sum")
    beliefs: tuple[str, ...] = tuple(BELIEF_FACTORIES)
    settings: SweepSettings = field(default_factory=SweepSettings.paper)

    @classmethod
    def paper(cls, workers: int = 1) -> "BeliefStudyConfig":
        return cls(settings=SweepSettings.paper(workers=workers))

    @classmethod
    def smoke(cls, workers: int = 1) -> "BeliefStudyConfig":
        return cls(
            n=10,
            alphas=(2.0,),
            ks=(2,),
            usages=("max", "sum"),
            beliefs=("empty-world", "pessimistic-heavy"),
            settings=SweepSettings.smoke(workers=workers),
        )


def _run_one(task: tuple[int, float, int, str, int, str, int, tuple[str, ...]]) -> list[dict]:
    n, alpha, k, usage, seed, solver, max_rounds, belief_labels = task
    owned = random_owned_tree(n, seed=seed)
    k_value = FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k
    game = MaxNCG(alpha=alpha, k=k_value) if usage == "max" else SumNCG(alpha=alpha, k=k_value)
    dynamics = best_response_dynamics(owned, game, solver=solver, max_rounds=max_rounds)
    profile = dynamics.final_profile

    rows: list[dict] = []
    for label in belief_labels:
        belief = BELIEF_FACTORIES[label]()
        survives = is_bayesian_equilibrium(profile, game, belief, max_candidates=n)
        rows.append(
            {
                "belief": label,
                "usage": usage,
                "n": n,
                "alpha": alpha,
                "k": k,
                "seed": seed,
                "baseline_converged": dynamics.converged,
                "survives": survives,
            }
        )
    return rows


def generate_belief_study(config: BeliefStudyConfig | None = None) -> list[dict]:
    """One aggregated row per (belief, usage, α, k) cell."""
    from repro.service.api import map_calls  # deferred: import cycle

    cfg = config if config is not None else BeliefStudyConfig.paper()
    unknown = set(cfg.beliefs) - set(BELIEF_FACTORIES)
    if unknown:
        raise ValueError(f"unknown beliefs: {sorted(unknown)}")
    tasks = [
        (cfg.n, alpha, k, usage, cfg.settings.base_seed + seed, cfg.settings.solver, cfg.settings.max_rounds, tuple(cfg.beliefs))
        for alpha in cfg.alphas
        for k in cfg.ks
        for usage in cfg.usages
        for seed in range(cfg.settings.num_seeds)
    ]
    nested = map_calls(_run_one, tasks, cfg.settings.workers)
    raw = [row for rows in nested for row in rows]

    groups: dict[tuple, list[dict]] = {}
    for row in raw:
        groups.setdefault((row["belief"], row["usage"], row["alpha"], row["k"]), []).append(row)

    rows: list[dict] = []
    for (belief, usage, alpha, k), bucket in sorted(groups.items()):
        survive_fraction = sum(r["survives"] for r in bucket) / len(bucket)
        converged_fraction = sum(r["baseline_converged"] for r in bucket) / len(bucket)
        summary = summarize([float(r["survives"]) for r in bucket])
        rows.append(
            {
                "belief": belief,
                "usage": usage,
                "alpha": alpha,
                "k": k,
                "n": cfg.n,
                "num_runs": len(bucket),
                "baseline_converged_fraction": converged_fraction,
                "survives_fraction": survive_fraction,
                "survives_ci": summary.half_width,
            }
        )
    return rows
