"""Round-robin best-response dynamics (the simulation protocol of Section 5.1).

Starting from an initial owned network, the players are considered one at a
time following a round-robin policy; whenever the considered player has a
strategy that is strictly better *according to her local knowledge of the
network* the profile is updated, and the process continues until a full
round passes with no change (an equilibrium — an LKE, or a NE under full
knowledge) or a previously seen end-of-round profile repeats (a best-response
cycle: the dynamics provably diverges under the deterministic round-robin
schedule, so the run is aborted and flagged).

Since the incremental-engine refactor this module is a thin front-end:
:func:`best_response_dynamics` builds a
:class:`repro.engine.DynamicsEngine` (versioned network state + incremental
view cache + pluggable scheduler) and runs it.  The original
rebuild-everything loop is kept verbatim as
:func:`best_response_dynamics_reference` — it is the ground truth the
engine is equivalence-tested against, and the slow baseline the benchmark
harness times the engine against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: engine imports core
    from repro.engine.views import ViewStore

from repro.core.best_response import ENGINE_DEFAULT_SOLVER, best_response
from repro.core.games import GameSpec
from repro.core.metrics import ProfileMetrics, compute_profile_metrics
from repro.core.strategies import StrategyProfile
from repro.graphs.generators.base import OwnedGraph
from repro.graphs.graph import Node

__all__ = [
    "RoundRecord",
    "DynamicsResult",
    "best_response_dynamics",
    "best_response_dynamics_reference",
]


@dataclass(frozen=True)
class RoundRecord:
    """Summary of one round of the dynamics."""

    round_index: int
    num_changes: int
    metrics: ProfileMetrics


@dataclass
class DynamicsResult:
    """Outcome of a best-response dynamics run.

    ``certified`` records whether the reported convergence is backed by an
    equilibrium certificate — a full no-improving-deviation sweep over the
    players (the quiet round itself for round-robin schedules, an explicit
    :meth:`repro.engine.DynamicsEngine.certify` pass for randomized ones).
    It is ``True`` exactly when ``converged`` is: a run that cycles or hits
    the round cap never claims an equilibrium, and a quiet round under a
    non-certifying scheduler is not believed until the sweep confirms it.

    A certificate is only as strong as the best responses behind it:
    ``certified_exact`` is ``True`` when every player in the certifying
    sweep was answered by an *exact* solver, and ``False`` when any answer
    was heuristic — a greedy MaxNCG solve, or a SumNCG strategy space above
    the exhaustive limit where only the local search speaks (mirroring
    :attr:`repro.core.equilibria.EquilibriumReport.all_exact`).  A
    heuristic certificate still means "no improving move *was found*",
    never "none exists".
    """

    game: GameSpec
    initial_profile: StrategyProfile
    final_profile: StrategyProfile
    converged: bool
    cycled: bool
    rounds: int
    total_changes: int
    certified: bool = False
    certified_exact: bool = False
    round_records: list[RoundRecord] = field(default_factory=list)
    initial_metrics: ProfileMetrics | None = None
    final_metrics: ProfileMetrics | None = None

    def quality_of_equilibrium(self) -> float:
        """Social cost of the final profile over the benchmark optimum."""
        if self.final_metrics is None:
            raise ValueError("final metrics were not collected")
        return self.final_metrics.quality


def _initial_profile(initial: StrategyProfile | OwnedGraph) -> StrategyProfile:
    if isinstance(initial, StrategyProfile):
        return initial
    if isinstance(initial, OwnedGraph):
        return StrategyProfile.from_owned_graph(initial)
    raise TypeError(
        "initial must be a StrategyProfile or an OwnedGraph, "
        f"got {type(initial).__name__}"
    )


def best_response_dynamics(
    initial: StrategyProfile | OwnedGraph,
    game: GameSpec,
    solver: str = ENGINE_DEFAULT_SOLVER,
    max_rounds: int = 100,
    collect_round_metrics: bool = False,
    ordering: str = "fixed",
    seed: int | None = None,
    player_order: list[Node] | None = None,
    sum_exhaustive_limit: int | None = None,
    sum_restarts: int = 1,
    kernel_backend: str | None = None,
    view_store: "ViewStore | None" = None,
    telemetry=None,
) -> DynamicsResult:
    """Run the best-response dynamics until convergence.

    Parameters
    ----------
    initial:
        Starting strategy profile (or generator output carrying ownership).
    game:
        Game specification (α, usage kind, knowledge radius k).
    solver:
        Best-response solver for MaxNCG: ``"branch_and_bound"`` (the
        default — the only exact solver that consumes the warm-start
        machinery), ``"milp"`` (opt-in cross-check; warns because warm
        starts die on it) or ``"greedy"`` (approximate); SumNCG ignores it
        and uses the exhaustive / local-search dispatcher.
    max_rounds:
        Hard cap on the number of rounds; hitting the cap without
        convergence yields ``converged=False, cycled=False``.
    collect_round_metrics:
        Record a :class:`ProfileMetrics` snapshot after every round
        (the initial and final snapshots are always recorded).
    ordering:
        Activation scheduler: ``"fixed"`` (paper) keeps the same player
        order in every round; ``"shuffled"`` re-samples the order per round
        (ablation); ``"random_sequential"``, ``"max_improvement"`` and
        ``"parallel_batch"`` are the engine's additional scenario modes
        (see :mod:`repro.engine.schedulers`).
    seed:
        Seed for the randomised schedulers.
    player_order:
        Explicit fixed order of play; defaults to the profile's player order.
    sum_exhaustive_limit:
        SumNCG exact/heuristic dispatch threshold (``None`` keeps
        :data:`repro.core.best_response.SUM_EXHAUSTIVE_LIMIT`); ignored by
        MaxNCG games.
    sum_restarts:
        Multi-seed climbs of the heuristic SumNCG local search above the
        exhaustive limit (``1`` = single incumbent climb; ignored by MaxNCG
        games and by the exact dispatch).
    kernel_backend:
        Kernel backend running the BFS / cover-search hot loops (see
        :mod:`repro.kernels`); ``None`` follows the
        ``REPRO_KERNEL_BACKEND``/auto-detect chain.  Backends are
        bit-identical, so trajectories never depend on this.
    telemetry:
        Optional :class:`repro.obs.Telemetry` handle for the engine's
        metrics and trace spans (``None`` uses the process-wide handle,
        whose tracer is off).  Trajectories are bit-identical with or
        without tracing.
    """
    from repro.core.best_response import SUM_EXHAUSTIVE_LIMIT
    from repro.engine.core import DynamicsEngine
    from repro.engine.schedulers import SCHEDULERS

    if ordering not in SCHEDULERS:
        raise ValueError(
            f"ordering must be one of {sorted(SCHEDULERS)}, got {ordering!r}"
        )
    engine = DynamicsEngine(
        initial,
        game,
        solver=solver,
        scheduler=ordering,
        max_rounds=max_rounds,
        collect_round_metrics=collect_round_metrics,
        seed=seed,
        player_order=player_order,
        sum_exhaustive_limit=(
            SUM_EXHAUSTIVE_LIMIT if sum_exhaustive_limit is None else sum_exhaustive_limit
        ),
        sum_restarts=sum_restarts,
        kernel_backend=kernel_backend,
        view_store=view_store,
        telemetry=telemetry,
    )
    return engine.run()


def best_response_dynamics_reference(
    initial: StrategyProfile | OwnedGraph,
    game: GameSpec,
    solver: str = ENGINE_DEFAULT_SOLVER,
    max_rounds: int = 100,
    collect_round_metrics: bool = False,
    ordering: str = "fixed",
    seed: int | None = None,
    player_order: list[Node] | None = None,
) -> DynamicsResult:
    """The seed rebuild-from-scratch dynamics loop (ground-truth baseline).

    Re-extracts every view and recomputes every best response from a fresh
    profile on each activation.  Only the paper's two orderings are
    supported.  Kept for the engine equivalence tests and the
    ``benchmarks/test_bench_engine.py`` speed-up measurement; production
    callers should use :func:`best_response_dynamics`.
    """
    if ordering not in {"fixed", "shuffled"}:
        raise ValueError("ordering must be 'fixed' or 'shuffled'")
    profile = _initial_profile(initial)
    rng = random.Random(seed)
    base_order = list(player_order) if player_order is not None else profile.players()
    if set(base_order) != set(profile.players()):
        raise ValueError("player_order must be a permutation of the players")

    initial_metrics = compute_profile_metrics(profile, game)
    round_records: list[RoundRecord] = []
    seen_profiles: dict[tuple, int] = {profile.canonical_key(): 0}
    total_changes = 0
    converged = False
    cycled = False
    rounds_run = 0

    certified_exact = False
    for round_index in range(1, max_rounds + 1):
        rounds_run = round_index
        order = list(base_order)
        if ordering == "shuffled":
            rng.shuffle(order)
        changes_this_round = 0
        round_all_exact = True
        for player in order:
            response = best_response(profile, player, game, solver=solver)
            round_all_exact = round_all_exact and response.exact
            if response.is_improving:
                profile = profile.with_strategy(player, response.strategy)
                changes_this_round += 1
        total_changes += changes_this_round
        if collect_round_metrics:
            round_records.append(
                RoundRecord(
                    round_index=round_index,
                    num_changes=changes_this_round,
                    metrics=compute_profile_metrics(profile, game),
                )
            )
        if changes_this_round == 0:
            converged = True
            # The quiet round is the certificate; its strength is its
            # weakest answer.
            certified_exact = round_all_exact
            # The equilibrium was reached at the end of the *previous*
            # round; the paper counts rounds needed to reach the stable
            # network, so the certifying all-quiet round is not counted.
            # (The loop starts at round_index = 1, so this is simply
            # round_index - 1 — an ``if round_index > 0`` guard here would
            # be dead code.)
            rounds_run = round_index - 1
            break
        key = profile.canonical_key()
        if key in seen_profiles:
            cycled = True
            break
        seen_profiles[key] = round_index

    final_metrics = compute_profile_metrics(profile, game)
    return DynamicsResult(
        game=game,
        initial_profile=_initial_profile(initial),
        final_profile=profile,
        converged=converged,
        cycled=cycled,
        rounds=rounds_run,
        total_changes=total_changes,
        # A quiet round of the full round-robin pass *is* the certificate.
        certified=converged,
        certified_exact=converged and certified_exact,
        round_records=round_records,
        initial_metrics=initial_metrics,
        final_metrics=final_metrics,
    )
