"""Equilibria, best responses and comparisons under alternative view models.

The LKE machinery of :mod:`repro.core` is parameterised by a
:class:`~repro.core.views.View`; this module re-exposes the equilibrium and
best-response entry points with the view supplied by an arbitrary
:class:`~repro.discovery.models.ViewModel`, and adds the summary statistics
used by the view-model comparison experiment (how much of the network each
model reveals, and whether the same starting network is stable under
different information regimes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.best_response import (
    ENGINE_DEFAULT_SOLVER,
    SUM_EXHAUSTIVE_LIMIT,
    BestResponse,
    best_response,
)
from repro.core.deviations import COST_EPS
from repro.core.games import GameSpec
from repro.core.strategies import StrategyProfile
from repro.discovery.models import ViewModel
from repro.graphs.graph import Node

__all__ = [
    "ModelComparison",
    "best_response_under_model",
    "improving_players_under_model",
    "is_equilibrium_under_model",
    "compare_view_models",
    "view_size_statistics",
]


def best_response_under_model(
    profile: StrategyProfile,
    player: Node,
    game: GameSpec,
    model: ViewModel,
    solver: str = ENGINE_DEFAULT_SOLVER,
    sum_exhaustive_limit: int = SUM_EXHAUSTIVE_LIMIT,
) -> BestResponse:
    """Best response of ``player`` when her knowledge comes from ``model``.

    The :func:`repro.core.best_response.best_response` dispatch on the
    model's view: MaxNCG uses the constrained-dominating-set reduction,
    SumNCG is exact for strategy spaces of at most ``sum_exhaustive_limit``
    nodes and hill-climbs otherwise.
    """
    view = model.observe(profile, player)
    return best_response(
        profile, player, game, solver=solver,
        sum_exhaustive_limit=sum_exhaustive_limit, view=view,
    )


def improving_players_under_model(
    profile: StrategyProfile,
    game: GameSpec,
    model: ViewModel,
    solver: str = ENGINE_DEFAULT_SOLVER,
) -> list[Node]:
    """Players that hold a worst-case improving deviation under ``model``."""
    result: list[Node] = []
    for player in profile:
        response = best_response_under_model(profile, player, game, model, solver=solver)
        if response.improvement > COST_EPS:
            result.append(player)
    return result


def is_equilibrium_under_model(
    profile: StrategyProfile,
    game: GameSpec,
    model: ViewModel,
    solver: str = ENGINE_DEFAULT_SOLVER,
) -> bool:
    """Whether ``profile`` is stable when every player observes via ``model``."""
    for player in profile:
        response = best_response_under_model(profile, player, game, model, solver=solver)
        if response.improvement > COST_EPS:
            return False
    return True


@dataclass(frozen=True)
class ModelComparison:
    """Per-model summary for one strategy profile.

    Attributes
    ----------
    model_label:
        The model's :meth:`~repro.discovery.models.ViewModel.label`.
    mean_view_size / min_view_size:
        Number of nodes the players discover (the Figure 5 statistic,
        generalised to arbitrary view models).
    mean_frontier_size:
        Average number of frontier (uncertain) vertices per player.
    stable:
        Whether the profile is an equilibrium under the model, or ``None``
        when the check was skipped.
    improving_players:
        How many players hold an improving deviation (``0`` iff ``stable``),
        or ``None`` when the check was skipped.
    """

    model_label: str
    mean_view_size: float
    min_view_size: int
    mean_frontier_size: float
    stable: bool | None
    improving_players: int | None


def view_size_statistics(
    profile: StrategyProfile, model: ViewModel
) -> tuple[float, int, float]:
    """Return ``(mean view size, min view size, mean frontier size)``."""
    sizes: list[int] = []
    frontier_sizes: list[int] = []
    for player in profile:
        view = model.observe(profile, player)
        sizes.append(view.size)
        frontier_sizes.append(len(view.frontier))
    if not sizes:
        return 0.0, 0, 0.0
    return (
        sum(sizes) / len(sizes),
        min(sizes),
        sum(frontier_sizes) / len(frontier_sizes),
    )


def compare_view_models(
    profile: StrategyProfile,
    game: GameSpec,
    models: list[ViewModel],
    check_stability: bool = True,
    solver: str = ENGINE_DEFAULT_SOLVER,
) -> list[ModelComparison]:
    """Summarise what each model reveals (and whether the profile is stable).

    ``check_stability=False`` skips the (expensive) best-response sweep and
    reports only the knowledge statistics.
    """
    comparisons: list[ModelComparison] = []
    for model in models:
        mean_size, min_size, mean_frontier = view_size_statistics(profile, model)
        if check_stability:
            improving = improving_players_under_model(profile, game, model, solver=solver)
            stable: bool | None = not improving
            improving_count: int | None = len(improving)
        else:
            stable = None
            improving_count = None
        comparisons.append(
            ModelComparison(
                model_label=model.label(),
                mean_view_size=mean_size,
                min_view_size=min_size if not math.isinf(mean_size) else 0,
                mean_frontier_size=mean_frontier,
                stable=stable,
                improving_players=improving_count,
            )
        )
    return comparisons
