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

import cProfile
import io
import pstats
from dataclasses import dataclass

from repro.core.best_response import ENGINE_DEFAULT_SOLVER
from repro.core.cost_models import resolve_cost_model
from repro.core.dynamics import best_response_dynamics
from repro.core.games import FULL_KNOWLEDGE, GameSpec, MaxNCG, SumNCG
from repro.core.metrics import ProfileMetrics
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings, resolve_workers
from repro.graphs.generators.base import OwnedGraph
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.trees import random_owned_tree

__all__ = [
    "RUN_SPEC_FAMILIES",
    "RunSpec",
    "RunResult",
    "build_instance",
    "run_single",
    "run_spec_on_instance",
    "run_sweep",
    "profile_run",
]


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


#: Instance families :func:`build_instance` accepts for ``RunSpec.family``.
RUN_SPEC_FAMILIES: tuple[str, ...] = ("tree", "gnp")


def build_instance(spec: RunSpec) -> OwnedGraph:
    """Materialise the initial owned network described by ``spec``."""
    if spec.family not in RUN_SPEC_FAMILIES:
        raise ValueError(f"unknown instance family {spec.family!r}")
    if spec.family == "tree":
        owned = random_owned_tree(spec.n, seed=spec.seed)
    else:
        if spec.p is None:
            raise ValueError("gnp runs need the edge probability p")
        owned = owned_connected_gnp_graph(spec.n, spec.p, seed=spec.seed)
    if spec.ownership == "fair_coin":
        return owned
    if spec.ownership == "smaller_endpoint":
        from repro.graphs.generators.base import assign_ownership_to_smaller

        return OwnedGraph(
            graph=owned.graph,
            ownership=assign_ownership_to_smaller(owned.graph),
            metadata={**owned.metadata, "ownership": "smaller_endpoint"},
        )
    raise ValueError(f"unknown ownership rule {spec.ownership!r}")


def run_spec_on_instance(
    spec: RunSpec,
    initial,
    collect_round_metrics: bool = False,
    view_store=None,
    telemetry=None,
) -> RunResult:
    """Execute ``spec``'s dynamics on a pre-built initial instance.

    ``initial`` is the instance :func:`build_instance` would produce for
    ``spec`` — an :class:`OwnedGraph` or the equivalent
    :class:`~repro.core.strategies.StrategyProfile` (e.g. a sweep worker's
    cached or shared-memory copy); the result is identical either way.
    ``view_store`` optionally shares refreshed BFS views across runs over
    the same instance (an α-grid) — trajectories are bit-identical with or
    without it.  ``telemetry`` is an optional :class:`repro.obs.Telemetry`
    handle; tracing never changes trajectories either.
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
        telemetry=telemetry,
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
    """Run many independent specs, optionally across processes.

    With more than one worker (or a ``journal`` directory) the sweep is
    submitted through the orchestration service (:mod:`repro.service`):
    persistent workers with instance-affine sharding, shared-memory
    instances above the size threshold, and a crash-safe journal enabling
    ``resume``.  Results are bit-identical to the ``workers=1`` serial
    loop, which remains the zero-overhead default for serial sweeps.

    ``telemetry=True`` routes through the service regardless of worker
    count and traces every task; with a ``journal`` the per-task span
    summaries land as additive telemetry records next to the results
    (``python -m repro trace`` renders them).  Rows are bit-identical.
    """
    workers = settings.workers if settings is not None else 1
    if journal is not None or resolve_workers(workers) > 1 or telemetry:
        from repro.service.api import ServiceConfig, run_spec_sweep

        return run_spec_sweep(
            list(specs),
            ServiceConfig(
                workers=workers,
                journal_dir=journal,
                experiment="sweep",
                resume=resume,
                telemetry=telemetry,
            ),
        )
    return [run_single(spec) for spec in specs]


def profile_run(spec: RunSpec, top: int = 25) -> str:
    """Profile a single run with :mod:`cProfile` and return the hot-spot table.

    Follows the "no optimisation without measuring" workflow of the HPC
    guides; used by developers, not by the experiment pipeline.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    run_single(spec)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(top)
    return buffer.getvalue()


def specs_for_cell(
    family: str,
    n: int,
    alpha: float,
    k: int,
    settings: SweepSettings,
    p: float | None = None,
    usage: str = "max",
    ordering: str = "fixed",
    ownership: str = "fair_coin",
) -> list[RunSpec]:
    """The ``num_seeds`` independent specs of one parameter cell."""
    return [
        RunSpec(
            family=family,
            n=n,
            p=p,
            alpha=alpha,
            k=k,
            seed=settings.base_seed + seed,
            usage=usage,
            solver=settings.solver,
            max_rounds=settings.max_rounds,
            ordering=ordering,
            ownership=ownership,
        )
        for seed in range(settings.num_seeds)
    ]


def run_cell(
    family: str,
    n: int,
    alpha: float,
    k: int,
    settings: SweepSettings,
    p: float | None = None,
    usage: str = "max",
) -> list[RunResult]:
    """Convenience wrapper: build and run all specs of one parameter cell."""
    specs = specs_for_cell(family, n, alpha, k, settings, p=p, usage=usage)
    return run_sweep(specs, settings)
