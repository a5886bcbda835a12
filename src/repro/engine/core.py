"""The incremental best-response dynamics engine.

:class:`DynamicsEngine` replaces the legacy rebuild-the-world inner loop of
:func:`repro.core.dynamics.best_response_dynamics` with stateful,
incremental machinery:

* a :class:`~repro.engine.state.NetworkState` applies strategy changes as
  edge deltas on one live graph (no per-activation profile/graph rebuild);
* an :class:`~repro.engine.views.IncrementalViewCache` re-extracts only the
  views inside the dirty region of each delta;
* best responses are memoised per ``(view token, strategy)`` — a player
  whose neighbourhood did not change since her last activation is skipped
  at ~zero cost, which is where the bulk of the speed-up comes from (the
  certifying final round of every converged run, and most activations of
  the quiet late rounds, become cache hits);
* the intra-round activation policy is delegated to a pluggable
  :class:`~repro.engine.schedulers.Scheduler`.

For the ``fixed`` and ``shuffled`` schedulers the engine reproduces the
legacy trajectories *exactly* (same final profile, rounds, cycled flag,
total changes) — this is enforced by the equivalence suite in
``tests/engine/test_equivalence.py``.
"""

from __future__ import annotations

import random
import warnings

from repro.core.best_response import (
    ENGINE_DEFAULT_SOLVER,
    SUM_EXHAUSTIVE_LIMIT,
    BestResponse,
    best_response,
    max_cover_context,
)
from repro.core.dynamics import DynamicsResult, RoundRecord
from repro.core.equilibria import EquilibriumReport
from repro.core.games import GameSpec, UsageKind
from repro.core.metrics import compute_profile_metrics
from repro.core.strategies import StrategyProfile
from repro.core.views import View
from repro.engine.schedulers import Scheduler, make_scheduler
from repro.engine.state import NetworkState
from repro.engine.views import IncrementalViewCache, ViewStore
from repro.graphs.generators.base import OwnedGraph
from repro.graphs.graph import Node
from repro.kernels import KernelBackend, resolve_backend
from repro.obs import get_telemetry
from repro.solvers.set_cover import WARM_START_SOLVERS

__all__ = ["coerce_profile", "DynamicsEngine"]


def coerce_profile(initial: StrategyProfile | OwnedGraph) -> StrategyProfile:
    """Accept either a profile or a generator output carrying ownership."""
    if isinstance(initial, StrategyProfile):
        return initial
    if isinstance(initial, OwnedGraph):
        return StrategyProfile.from_owned_graph(initial)
    raise TypeError(
        "initial must be a StrategyProfile or an OwnedGraph, "
        f"got {type(initial).__name__}"
    )


class DynamicsEngine:
    """Stateful simulation engine for best-response dynamics.

    Parameters mirror :func:`repro.core.dynamics.best_response_dynamics`;
    ``scheduler`` accepts either a registry name (see
    :data:`repro.engine.schedulers.SCHEDULERS`) or a ready
    :class:`Scheduler` instance.
    """

    def __init__(
        self,
        initial: StrategyProfile | OwnedGraph,
        game: GameSpec,
        solver: str = ENGINE_DEFAULT_SOLVER,
        scheduler: str | Scheduler = "fixed",
        max_rounds: int = 100,
        collect_round_metrics: bool = False,
        collect_metrics: bool = True,
        seed: int | None = None,
        player_order: list[Node] | None = None,
        sum_exhaustive_limit: int = SUM_EXHAUSTIVE_LIMIT,
        kernel_backend: str | KernelBackend | None = None,
        view_store: ViewStore | None = None,
    ) -> None:
        profile = coerce_profile(initial)
        self.game = game
        self.solver = solver
        #: Kernel backend running the BFS / cover-search hot loops (see
        #: :mod:`repro.kernels`).  Resolved once here, so the whole run —
        #: views, solver calls, metric sweeps — uses one backend even if
        #: the process-wide default changes mid-run.
        #: Backends are bit-identical, so trajectories never depend on it.
        self.kernel_backend = resolve_backend(kernel_backend)
        #: SumNCG exact/heuristic dispatch threshold (strategy-space size up
        #: to which best responses are solved exactly; see
        #: :data:`repro.core.best_response.SUM_EXHAUSTIVE_LIMIT`).  Ignored
        #: by MaxNCG games.
        self.sum_exhaustive_limit = sum_exhaustive_limit
        if (
            game.usage is UsageKind.MAX
            and solver not in WARM_START_SOLVERS
            and solver != "greedy"
        ):
            # The engine re-solves best responses all run long, which is
            # exactly where the warm-start machinery pays off; an exact
            # solver without an incumbent hook silently forfeits it.
            warnings.warn(
                f"solver {solver!r} cannot consume the warm-start/upper-bound "
                "hints; every activation re-solves its set covers cold (the "
                f"engine default {ENGINE_DEFAULT_SOLVER!r} gets the warm-start "
                "speedup)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.max_rounds = max_rounds
        self.collect_round_metrics = collect_round_metrics
        self.collect_metrics = collect_metrics
        self.rng = random.Random(seed)
        self.state = NetworkState.from_profile(profile)
        #: Optional cross-session view store: engines over the same instance
        #: (an α-grid, a robustness battery) injected with one shared
        #: :class:`~repro.engine.views.ViewStore` adopt each other's
        #: refreshed views instead of re-running the full BFS sweep.
        #: Best-response memos stay per-engine; only views (and their
        #: content tokens) are shared.  Trajectories are bit-identical with
        #: or without a store.
        self.view_store = view_store
        #: Telemetry handle, read from the process state at construction:
        #: metrics always record into the default registry; trace spans
        #: only when the handle's tracer is enabled.  The tracer is
        #: pre-bound so the disabled path is one attribute lookup.
        self.telemetry = get_telemetry()
        self._tracer = self.telemetry.tracer
        responses = self.telemetry.registry.counter(
            "repro_engine_responses_total",
            help="Best-response evaluations: solver calls vs memo hits",
            labelnames=("result",),
        )
        self._m_responses_computed = responses.child(result="computed")
        self._m_responses_reused = responses.child(result="reused")
        self._m_rounds = self.telemetry.registry.counter(
            "repro_engine_rounds_total", help="Scheduler rounds executed"
        ).child()
        self.views = IncrementalViewCache(
            self.state,
            game.k,
            kernel_backend=self.kernel_backend,
            store=view_store,
        )
        base_order = (
            list(player_order) if player_order is not None else profile.players()
        )
        if set(base_order) != set(profile.players()):
            raise ValueError("player_order must be a permutation of the players")
        self.base_order = base_order
        self.scheduler = (
            scheduler
            if isinstance(scheduler, Scheduler)
            else make_scheduler(scheduler)
        )
        self._responses: dict[Node, tuple[int, frozenset[Node], BestResponse]] = {}

    # ------------------------------------------------------------------
    # Instrumentation (read-through onto the metrics registry children)
    # ------------------------------------------------------------------
    @property
    def responses_computed(self) -> int:
        """Solver invocations actually paid for (memo misses)."""
        return self._m_responses_computed.value

    @property
    def responses_reused(self) -> int:
        """Solver invocations avoided by memoisation."""
        return self._m_responses_reused.value

    # ------------------------------------------------------------------
    # Per-activation primitives (used by schedulers)
    # ------------------------------------------------------------------
    def view_token(self, player: Node) -> int:
        """Settled content version of the player's view (refreshes if stale)."""
        self.views.get(player)
        return self.views.token(player)

    def cached_response(self, player: Node) -> BestResponse | None:
        """The memoised best response of ``player`` if still valid, else ``None``.

        Valid means neither the player's view content token nor her strategy
        moved since the memo entry was written.  Settles the view first, so
        the answer reflects the current state.
        """
        self.views.get(player)  # settles the content token
        token = self.views.token(player)
        strategy = self.state.strategy(player)
        memo = self._responses.get(player)
        if memo is not None and memo[0] == token and memo[1] == strategy:
            return memo[2]
        return None

    def peek_response(self, player: Node) -> BestResponse:
        """Best response of ``player`` against the current state (memoised).

        A best response is a pure function of (view content, own strategy,
        game, solver), so a memo entry stays valid exactly while the
        player's view content token and strategy both stand still.  The
        game — and with it the cost model deciding what unreachable nodes
        cost — is fixed per engine, so every memo entry implicitly carries
        ``self.game.cost_model.key()``; entries can never leak across
        models.  Both MaxNCG regimes (full cover and, under a tolerant
        model, component abandonment) and both SumNCG regimes (pruned
        exhaustive below ``sum_exhaustive_limit``, local search above) ride
        this same memo.
        """
        view = self.views.get(player)  # settles the content token
        token = self.views.token(player)
        strategy = self.state.strategy(player)
        memo = self._responses.get(player)
        if memo is not None and memo[0] == token and memo[1] == strategy:
            self._m_responses_reused.inc()
            if self._tracer.enabled:
                self._tracer.event(
                    "engine.best_response", player=str(player), memo_hit=True
                )
            return memo[2]
        # Only the tracing-enabled branch opens a span, so the disabled path
        # pays no span bookkeeping at all on this, the engine's hottest call
        # site.
        if self._tracer.enabled:
            with self._tracer.span(
                "engine.best_response",
                player=str(player),
                memo_hit=False,
                solver=self.solver,
            ) as span:
                response = self._solve(player, view, strategy)
                span.set(exact=response.exact, improving=response.is_improving)
        else:
            response = self._solve(player, view, strategy)
        self._responses[player] = (token, strategy, response)
        self._m_responses_computed.inc()
        return response

    def _solve(self, player: Node, view: View, strategy: frozenset[Node]) -> BestResponse:
        """Solve one memo miss from the view's distance context.

        Both games read the reply off one
        :class:`~repro.core.best_response.MaxCoverContext` built
        here: MaxNCG's set-cover instances, and every SumNCG candidate's
        price (see :func:`repro.core.best_response.best_response`).
        """
        cover_context = max_cover_context(view, backend=self.kernel_backend)
        return best_response(
            None,
            player,
            self.game,
            solver=self.solver,
            sum_exhaustive_limit=self.sum_exhaustive_limit,
            view=view,
            current_strategy=strategy,
            cover_context=cover_context,
            backend=self.kernel_backend,
        )

    def apply_response(self, player: Node, response: BestResponse) -> None:
        """Commit ``response.strategy`` and invalidate the dirty region."""
        self.set_strategy(player, response.strategy)

    def set_strategy(self, player: Node, strategy: frozenset[Node]) -> None:
        """Externally override a player's strategy (perturbation support).

        Applies the edge delta and invalidates the dirty region exactly like
        a best-response move; a subsequent :meth:`run` then repairs the
        network incrementally, reusing every cached view and memoised
        response outside the perturbed region.  This is the engine's
        "warm replay" mode, exercised by ``benchmarks/test_bench_engine.py``.
        """
        delta = self.state.preview(player, frozenset(strategy))
        region = self.views.region_before_apply(delta)
        self.state.apply(delta)
        region |= self.views.region_after_apply(delta)
        self.views.invalidate(region)

    def restore_profile(self, profile: StrategyProfile) -> int:
        """Warm-replay the engine onto ``profile`` via :meth:`set_strategy`.

        Only the players whose strategy actually differs are touched, so
        restoring to a nearby profile (the robustness suite returning to its
        base equilibrium between operators, a sweep worker rewinding a live
        session) invalidates just the dirty balls around the differences and
        every other cached view / memoised response survives.  Returns the
        number of players whose strategy was rewritten.
        """
        moved = 0
        for player in profile.players():
            if self.state.strategy(player) != profile.strategy(player):
                self.set_strategy(player, profile.strategy(player))
                moved += 1
        return moved

    def activate(self, player: Node) -> bool:
        """One activation: move to the best response iff it strictly improves."""
        response = self.peek_response(player)
        if response.is_improving:
            self.apply_response(player, response)
            return True
        return False

    # ------------------------------------------------------------------
    # Certification
    # ------------------------------------------------------------------
    def certify(self, stop_at_first: bool = False) -> EquilibriumReport:
        """Prove (or refute) that the *current* profile is an equilibrium.

        One sweep over all players that shows no improving deviation exists —
        the LKE certificate for finite ``game.k``, the NE certificate under
        full knowledge.  The sweep rides the engine caches: views settle
        up front (one ``view`` kernel call each, or a store adoption) and
        every player whose (view token,
        strategy) pair is unchanged since her last evaluation is answered
        from the best-response memo, so certifying a freshly converged run
        costs no additional solver calls at all, and certifying after a
        localized perturbation costs O(dirty ball), not O(n).

        This is the pass that backs ``random_sequential`` (and any other
        ``certifies_convergence = False`` scheduler) inside :meth:`run` — a
        quiet round under randomized activation only means no *sampled*
        player improved — and the robustness scenario suite calls it after
        every recovery so no reported equilibrium is ever uncertified.

        ``stop_at_first=True`` aborts at the first improving player (enough
        to refute).  The report's exactness sets mirror the solver: with an
        approximate solver (``greedy``) a positive answer is heuristic only,
        exactly as in :func:`repro.core.equilibria.certify_equilibrium`.
        """
        with self.telemetry.span("engine.certify", stop_at_first=stop_at_first) as span:
            self.views.refresh_dirty()
            report = EquilibriumReport(is_equilibrium=True)
            for player in self.base_order:
                response = self.peek_response(player)
                if response.exact:
                    report.checked_exactly.add(player)
                else:
                    report.checked_heuristically.add(player)
                if response.is_improving:
                    report.improving[player] = response
                    report.is_equilibrium = False
                    if stop_at_first:
                        span.set(is_equilibrium=False)
                        return report
            span.set(is_equilibrium=report.is_equilibrium)
            return report

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def run(self, round_observer=None) -> DynamicsResult:
        """Run rounds until convergence, a detected cycle or ``max_rounds``.

        ``round_observer`` is an optional callable invoked as
        ``round_observer(engine, round_index, changes)`` after every
        scheduler round (including the final quiet one), before the engine
        decides about convergence or cycles.  Observers may inspect the live
        state (the robustness suite tracks the component count of a
        splitting shock's recovery this way) but must not mutate it.

        Bookkeeping matches the legacy loop: the paper counts rounds needed
        to *reach* the stable network, so the certifying all-quiet round is
        not counted (``rounds = round_index - 1`` on convergence).

        Convergence is only ever reported with a certificate behind it: for
        schedulers whose quiet round visits every player the round itself is
        the certificate, and for the rest (``certifies_convergence =
        False``, e.g. ``random_sequential``) the quiet round must survive an
        explicit :meth:`certify` sweep — otherwise the run keeps going.  The
        returned :attr:`DynamicsResult.certified` flag records exactly this:
        it is ``True`` iff ``converged`` is, and never on a cycle or a
        ``max_rounds`` bail-out.

        ``run`` may be called again after :meth:`set_strategy`
        perturbations; each call is a fresh dynamics run (own cycle
        detector, own round count) starting from the *current* state, with
        all still-valid caches carried over.  The two full metric sweeps
        bookending every run are O(n · edges) regardless of how local the
        dynamics were — ``collect_metrics=False`` skips them (the result's
        ``initial_metrics`` / ``final_metrics`` are ``None``), which is what
        keeps a warm replay after a localized shock at O(dirty ball).  A run
        that ends on the profile it started from reuses the opening sweep's
        metrics instead of running the closing one.
        """
        game = self.game
        run_span = self.telemetry.span(
            "engine.run",
            players=len(self.base_order),
            scheduler=self.scheduler.name,
            solver=self.solver,
            backend=self.kernel_backend.name,
        ).__enter__()
        initial_profile = self.state.to_profile()
        initial_metrics = (
            compute_profile_metrics(initial_profile, game, backend=self.kernel_backend)
            if self.collect_metrics
            else None
        )
        # Settle every view up front (shared-store adoptions included).
        self.views.refresh_dirty()
        round_records: list[RoundRecord] = []
        initial_key = self.state.canonical_key()
        seen_profiles: dict[tuple, int] = {initial_key: 0}
        total_changes = 0
        converged = False
        certified = False
        certified_exact = False
        cycled = False
        rounds_run = 0
        for round_index in range(1, self.max_rounds + 1):
            rounds_run = round_index
            with self.telemetry.span("engine.round", round=round_index) as round_span:
                changes = self.scheduler.run_round(self, round_index)
                round_span.set(changes=changes)
            self._m_rounds.inc()
            total_changes += changes
            if round_observer is not None:
                round_observer(self, round_index, changes)
            if self.collect_round_metrics:
                round_records.append(
                    RoundRecord(
                        round_index=round_index,
                        num_changes=changes,
                        metrics=compute_profile_metrics(
                            self.state.to_profile(), game, backend=self.kernel_backend
                        ),
                    )
                )
            if changes == 0:
                if (
                    not self.scheduler.certifies_convergence
                    and not self.certify(stop_at_first=True).is_equilibrium
                ):
                    # The quiet round was sampling luck, not an equilibrium
                    # (the certification sweep found an improving player):
                    # keep running.  Skips the cycle check on purpose — the
                    # profile did not change, so its key is already in
                    # ``seen_profiles``.
                    continue
                converged = True
                certified = True
                # Certificate strength: exact iff every player's certifying
                # answer came from an exact solver.  The quiet round (or the
                # certify sweep above) just evaluated every player, so these
                # are pure memo rides — no additional solver calls.
                certified_exact = all(
                    self.peek_response(player).exact for player in self.base_order
                )
                rounds_run = round_index - 1
                break
            if self.scheduler.detects_cycles:
                key = self.state.canonical_key()
                if key in seen_profiles:
                    cycled = True
                    break
                seen_profiles[key] = round_index
        final_profile = self.state.to_profile()
        # The key encodes every player's strategy, so an unchanged key means
        # an unchanged profile and the opening sweep's metrics are exact.
        if not self.collect_metrics:
            final_metrics = None
        elif self.state.canonical_key() == initial_key:
            final_metrics = initial_metrics
        else:
            final_metrics = compute_profile_metrics(
                final_profile, game, backend=self.kernel_backend
            )
        run_span.finish(
            rounds=rounds_run,
            converged=converged,
            cycled=cycled,
            total_changes=total_changes,
        )
        return DynamicsResult(
            game=game,
            initial_profile=initial_profile,
            final_profile=final_profile,
            converged=converged,
            cycled=cycled,
            rounds=rounds_run,
            total_changes=total_changes,
            certified=certified,
            certified_exact=certified_exact,
            round_records=round_records,
            initial_metrics=initial_metrics,
            final_metrics=final_metrics,
        )
