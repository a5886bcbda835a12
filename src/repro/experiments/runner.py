"""Single-run and sweep execution of the best-response dynamics.

A :class:`RunSpec` fully describes one independent simulation: the instance
family (random tree or Erdős–Rényi graph), its size/parameter/seed, the game
parameters (α, k) and the execution options.  Because it is a frozen,
picklable dataclass, sweeps distribute naturally over the sweep service's
worker processes (:mod:`repro.service`); the per-spec seed makes every run
reproducible in isolation.

Every run executes on the incremental :class:`repro.engine.DynamicsEngine`
(via :func:`repro.core.dynamics.best_response_dynamics`), so all
figure/table/extension pipelines built on this module get the versioned
state + view-cache speedup transparently; ``ordering`` accepts any
registered scheduler (``fixed``, ``shuffled``, ``random_sequential``,
``max_improvement``, ``parallel_batch``), opening activation-ordering
scenarios beyond the paper's two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.best_response import ENGINE_DEFAULT_SOLVER
from repro.core.cost_models import resolve_cost_model
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, GameSpec, MaxNCG, SumNCG
from repro.core.metrics import ProfileMetrics
from repro.engine.schedulers import SCHEDULERS
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.graphs.generators.base import OwnedGraph
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.trees import random_owned_tree
from repro.solvers.set_cover import SOLVERS

__all__ = [
    "RUN_SPEC_FAMILIES",
    "RunSpec",
    "RunResult",
    "build_instance",
    "run_single",
    "run_spec_on_instance",
    "run_sweep",
]

#: Instance families :func:`build_instance` accepts for ``RunSpec.family``.
RUN_SPEC_FAMILIES: tuple[str, ...] = ("tree", "gnp")

#: Edge-ownership rules :func:`build_instance` accepts for ``RunSpec.ownership``.
OWNERSHIP_RULES: tuple[str, ...] = ("fair_coin", "smaller_endpoint")


@dataclass(frozen=True)
class RunSpec:
    """One independent dynamics run.

    ``family`` is one of :data:`RUN_SPEC_FAMILIES` (``"tree"`` or
    ``"gnp"``); ``p`` is only meaningful for the latter.  ``k`` uses the
    paper's convention: values ``>= FULL_KNOWLEDGE_K`` are mapped to
    genuine full knowledge.  ``ordering`` names any scheduler
    registered in :data:`repro.engine.schedulers.SCHEDULERS`.

    Every field changes the result, so the spec's content hash identifies
    the work.  The kernel backend is not a field: it is process state
    (:mod:`repro.kernels`), and backends are bit-identical.

    A spec that execution would refuse raises ``ValueError`` when it is
    built, so a malformed sweep fails before any of its work starts.
    """

    family: str
    n: int
    alpha: float
    k: int
    seed: int
    p: float | None = None
    usage: str = "max"
    solver: str = ENGINE_DEFAULT_SOLVER  # the warm-start-capable engine default
    max_rounds: int = 60
    ordering: str = "fixed"
    ownership: str = "fair_coin"
    #: Disconnection semantics ("strict" — the paper — or "tolerant");
    #: ``penalty_beta`` is the tolerant per-unreachable-node penalty
    #: (``None`` defaults to ``2n``, above any realisable distance).
    cost_model: str = "strict"
    penalty_beta: float | None = None

    def __post_init__(self) -> None:
        self.game()  # alpha, k, usage and the cost model
        if self.family not in RUN_SPEC_FAMILIES:
            raise ValueError(f"unknown instance family {self.family!r}")
        if self.family == "gnp" and (self.p is None or not 0.0 <= self.p <= 1.0):
            raise ValueError(f"gnp runs need an edge probability p in [0, 1], got {self.p!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n!r}")
        for what, name, known in (
            ("solver", self.solver, SOLVERS),
            ("ordering", self.ordering, SCHEDULERS),
            ("ownership rule", self.ownership, OWNERSHIP_RULES),
        ):
            if name not in known:
                raise ValueError(f"unknown {what} {name!r} (expected one of {sorted(known)})")

    def game(self) -> GameSpec:
        k_value = FULL_KNOWLEDGE if self.k >= FULL_KNOWLEDGE_K else self.k
        beta = self.penalty_beta if self.penalty_beta is not None else 2.0 * self.n
        model = resolve_cost_model(self.cost_model, beta=beta)
        if self.usage == "max":
            return MaxNCG(alpha=self.alpha, k=k_value, cost_model=model)
        if self.usage == "sum":
            return SumNCG(alpha=self.alpha, k=k_value, cost_model=model)
        raise ValueError(f"unknown usage kind {self.usage!r}")


@dataclass(frozen=True)
class RunResult:
    """Flattened outcome of one dynamics run (cheap to aggregate / serialise)."""

    spec: RunSpec
    converged: bool
    cycled: bool
    rounds: int
    total_changes: int
    initial_metrics: ProfileMetrics
    final_metrics: ProfileMetrics
    #: Convergence backed by a full no-improving-deviation sweep (see
    #: :attr:`repro.core.dynamics.DynamicsResult.certified`);
    #: ``certified_exact`` records whether every certifying answer came
    #: from an exact solver.
    certified: bool = False
    certified_exact: bool = False

    def as_row(self) -> dict:
        """Flatten into a CSV-friendly dictionary."""
        row: dict = {
            "family": self.spec.family,
            "n": self.spec.n,
            "p": self.spec.p,
            "alpha": self.spec.alpha,
            "k": self.spec.k,
            "seed": self.spec.seed,
            "usage": self.spec.usage,
            "cost_model": self.spec.cost_model,
            "solver": self.spec.solver,
            "converged": self.converged,
            "cycled": self.cycled,
            "certified": self.certified,
            "certified_exact": self.certified_exact,
            "rounds": self.rounds,
            "total_changes": self.total_changes,
        }
        row.update({f"initial_{key}": value for key, value in self.initial_metrics.as_dict().items()})
        row.update({f"final_{key}": value for key, value in self.final_metrics.as_dict().items()})
        return row


def build_instance(spec: RunSpec) -> OwnedGraph:
    """Materialise the initial owned network described by ``spec``."""
    if spec.family == "tree":
        owned = random_owned_tree(spec.n, seed=spec.seed)
    else:
        owned = owned_connected_gnp_graph(spec.n, spec.p, seed=spec.seed)
    if spec.ownership == "fair_coin":
        return owned
    from repro.graphs.generators.base import assign_ownership_to_smaller

    return OwnedGraph(
        graph=owned.graph,
        ownership=assign_ownership_to_smaller(owned.graph),
        metadata={**owned.metadata, "ownership": "smaller_endpoint"},
    )


def run_spec_on_instance(
    spec: RunSpec,
    initial,
    collect_round_metrics: bool = False,
    view_store=None,
) -> RunResult:
    """Execute ``spec``'s dynamics on a pre-built initial instance.

    ``initial`` is the instance :func:`build_instance` would produce for
    ``spec`` — an :class:`OwnedGraph` or the equivalent
    :class:`~repro.core.strategies.StrategyProfile` (e.g. a sweep worker's
    cached copy); the result is identical either way.
    ``view_store`` optionally shares refreshed BFS views across runs over
    the same instance (an α-grid) — trajectories are bit-identical with or
    without it.  Tracing (the process-wide :func:`repro.obs.get_telemetry`
    handle) never changes trajectories either.
    """
    game = spec.game()
    result = best_response_dynamics(
        initial,
        game,
        solver=spec.solver,
        max_rounds=spec.max_rounds,
        collect_round_metrics=collect_round_metrics,
        ordering=spec.ordering,
        seed=spec.seed,
        view_store=view_store,
    )
    return RunResult(
        spec=spec,
        converged=result.converged,
        cycled=result.cycled,
        rounds=result.rounds,
        total_changes=result.total_changes,
        initial_metrics=result.initial_metrics,
        final_metrics=result.final_metrics,
        certified=result.certified,
        certified_exact=result.certified_exact,
    )


def run_single(spec: RunSpec, collect_round_metrics: bool = False) -> RunResult:
    """Execute one dynamics run and return its flattened outcome."""
    return run_spec_on_instance(spec, build_instance(spec), collect_round_metrics)


def run_sweep(
    specs: list[RunSpec],
    settings: SweepSettings | None = None,
    journal: str | None = None,
    resume: bool = False,
    telemetry: bool = False,
) -> list[RunResult]:
    """Run many independent specs through the orchestration service.

    Equivalent to ``[run_single(spec) for spec in specs]``.  The sweep
    runs on ``settings.workers`` warm workers (1 = in the
    calling process) via :func:`repro.service.api.run_spec_sweep`; a
    ``journal`` directory makes it crash-safe and enables ``resume``.

    ``telemetry=True`` traces every task; with a ``journal`` the per-task
    span summaries land as additive telemetry records next to the results
    (``python -m repro trace`` renders them).  Rows are bit-identical.
    """
    from repro.service.api import ServiceConfig, run_spec_sweep

    return run_spec_sweep(
        list(specs),
        ServiceConfig(
            workers=settings.workers if settings is not None else 1,
            journal_dir=journal,
            experiment="sweep",
            resume=resume,
            telemetry=telemetry,
        ),
    )

