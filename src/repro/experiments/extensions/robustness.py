"""Perturbation & recovery scenarios: how stable are the stable networks?

The paper's central objects are *equilibria of best-response dynamics* —
LKEs under the k-local view model, NEs under full knowledge.  The natural
next question is their stability: if an adversary (or a failure) edits a
few strategies at an equilibrium, who re-moves, how far does the shock
propagate through the k-local views, and does the dynamics land back in a
certified equilibrium?  This module sweeps exactly that, in the
experimental-analysis style of the figure harnesses: perturbation
operators x instance families x shock intensities, with per-shock recovery
trajectories recorded through :mod:`repro.experiments.store`.

Mapping to the paper's concepts
-------------------------------
* **Shocks are strategy edits.**  The game state *is* the strategy profile
  (Section 2: the network is induced by what the players buy), so every
  operator perturbs through :meth:`repro.engine.DynamicsEngine.set_strategy`
  — edge deletions are owner strategy edits, never raw graph surgery.  The
  engine turns each edit into an edge delta and invalidates only the dirty
  region, so a localized shock costs O(ball around the shock), not O(n).
* **k-local views bound the blast radius.**  A player re-moves only if the
  shock changed something inside her radius-k view (Proposition 2.1/2.2),
  which is why warm recovery from a local shock is much cheaper than a cold
  restart — the subsystem measures that ratio per shock.
* **Every reported equilibrium is certified.**  After each recovery the
  suite calls :meth:`repro.engine.DynamicsEngine.certify` — a full
  no-improving-deviation sweep, i.e. the LKE definition itself — so no row
  ever claims an equilibrium off the back of a lucky quiet round.
* **Connectivity semantics follow the cost model.**  Under the paper's
  strict model disconnection makes every cost infinite, so the classic
  deletion operators only drop bought edges whose removal keeps the network
  connected: ownership flips of double-bought edges are always safe, and
  topology-changing drops are screened against the current bridge set
  (recomputed after every single drop).  Under a disconnection-tolerant
  model (:class:`repro.core.cost_models.TolerantCosts`, finite per-node
  penalty β) component splits are priced, so the suite additionally ships
  two *deliberately disconnecting* operators — ``component_split`` and
  ``isolation_attack`` — whose shocks are recovered and certified on the
  live engine like any other (a k-local player can never see across a
  split, so "recovery" means per-component re-equilibration at finite
  cost).  A disconnecting shock under a strict game is never an assert:
  it is rolled back and recorded as a structured per-shock outcome row.

Operators
---------
``drop_random_edges``
    Random edge failure: uniformly chosen droppable (non-bridge or
    double-bought) owned edges are removed via owner strategy edits.
``hub_attack``
    Greedy targeted attack: always removes the droppable edge whose owner
    has the highest betweenness centrality — the adversary dismantles the
    hub structure the dynamics builds (Figure 8's max-degree players).
``reset_player``
    Single-player strategy reset: one random player loses every droppable
    bought edge (bridges are kept, see above).
``multi_reset``
    Batched multi-player shock: ``intensity`` distinct players are reset
    back to back before the dynamics may react — the synchronous-failure
    scenario.
``add_shortcuts``
    Redundant shortcut injection: random players are saddled with extra
    edges towards distance-2 targets.  Additions never disconnect, so this
    operator exercises tree-like equilibria (where every edge is a bridge
    and nothing is droppable) too; recovery consists of dropping the
    redundant edges again.
``component_split`` *(disconnecting)*
    Drops single-owned bridge edges — the exact edges the screened
    operators refuse to touch — splitting the network into components.
``isolation_attack`` *(disconnecting)*
    Severs every edge incident to the highest-degree players: the victim's
    own strategy is emptied and every buyer of an edge towards the victim
    drops it, all through owner strategy edits.

Each scenario converges an engine once, then alternates shock -> warm
re-``run`` -> ``certify`` while timing a cold restart
(:class:`~repro.engine.DynamicsEngine` built from the shocked profile) on
the side, recording rounds-to-recover, players touched, social-cost drift,
pre/post equilibrium distance and the warm-vs-cold speedup per shock.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field, replace

from repro.analysis.statistics import summarize
from repro.core.cost_models import CostModel, resolve_cost_model
from repro.core.costs import social_cost
from repro.core.dynamics import DynamicsResult
from repro.core.games import FULL_KNOWLEDGE, GameSpec, MaxNCG, SumNCG
from repro.core.metrics import compute_profile_metrics
from repro.core.serialization import dynamics_result_to_dict
from repro.core.strategies import StrategyProfile
from repro.engine.core import DynamicsEngine
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.experiments.extensions.instances import (
    EXTENSION_FAMILIES,
    build_extension_instance,
)
from repro.experiments.store import ExperimentStore
from repro.graphs.algorithms import betweenness_centrality, bridges
from repro.graphs.graph import Node
from repro.graphs.traversal import bfs_distances_within, connected_components
from repro.solvers.set_cover import SOLVERS

__all__ = [
    "ShockRecord",
    "PERTURBATIONS",
    "DISCONNECTING_PERTURBATIONS",
    "apply_perturbation",
    "RobustnessStudyConfig",
    "generate_robustness_study",
    "aggregate_robustness_rows",
]


@dataclass(frozen=True)
class ShockRecord:
    """What one perturbation operator actually did to the engine state.

    ``disconnected`` records whether the induced network came out of the
    shock in more than one connected component (``components > 1``); it is
    stamped by :func:`apply_perturbation`, never by the operators
    themselves, so the flag always reflects the post-shock state.
    """

    operator: str
    players: tuple[Node, ...]  #: players whose strategies were edited
    edges_dropped: int
    edges_added: int
    disconnected: bool = False
    components: int = 1

    @property
    def size(self) -> int:
        return self.edges_dropped + self.edges_added

    @property
    def is_empty(self) -> bool:
        return self.size == 0


# ----------------------------------------------------------------------
# Droppable-edge screening (connectivity preservation)
# ----------------------------------------------------------------------
def _droppable_pairs(
    engine: DynamicsEngine, owner: Node | None = None
) -> list[tuple[Node, Node]]:
    """Owned ``(owner, target)`` pairs safe to drop one at a time.

    A pair is droppable when removing it keeps the network connected:
    either the edge is double-bought (dropping one ownership is a pure
    flip, no topology change) or it is not a bridge of the current graph.
    The bridge set is recomputed by the callers after every applied drop —
    two individually non-bridge edges may well disconnect jointly.
    """
    state = engine.state
    bridge_set = {frozenset(edge) for edge in bridges(state.graph)}
    owners = [owner] if owner is not None else state.players()
    pairs: list[tuple[Node, Node]] = []
    for player in owners:
        for target in sorted(state.strategy(player), key=repr):
            if player in state.strategy(target):  # double-bought: ownership flip
                pairs.append((player, target))
            elif frozenset((player, target)) not in bridge_set:
                pairs.append((player, target))
    return pairs


def _drop(engine: DynamicsEngine, pair: tuple[Node, Node]) -> None:
    player, target = pair
    engine.set_strategy(player, engine.state.strategy(player) - {target})


# ----------------------------------------------------------------------
# Perturbation operators
# ----------------------------------------------------------------------
def drop_random_edges(
    engine: DynamicsEngine, rng: random.Random, intensity: int
) -> ShockRecord:
    """Remove up to ``intensity`` uniformly random droppable owned edges."""
    touched: list[Node] = []
    dropped = 0
    for _ in range(intensity):
        candidates = _droppable_pairs(engine)
        if not candidates:
            break
        pair = rng.choice(candidates)
        _drop(engine, pair)
        touched.append(pair[0])
        dropped += 1
    return ShockRecord("drop_random_edges", tuple(dict.fromkeys(touched)), dropped, 0)


def hub_attack(
    engine: DynamicsEngine, rng: random.Random, intensity: int
) -> ShockRecord:
    """Greedy attack on high-centrality owners.

    Repeatedly removes the droppable edge whose *owner* has the highest
    betweenness centrality in the pre-shock network (deterministic given
    the state; ``rng`` is part of the operator interface but unused).
    """
    centrality = betweenness_centrality(engine.state.graph)
    touched: list[Node] = []
    dropped = 0
    for _ in range(intensity):
        candidates = _droppable_pairs(engine)
        if not candidates:
            break
        pair = max(candidates, key=lambda p: (centrality[p[0]], repr(p)))
        _drop(engine, pair)
        touched.append(pair[0])
        dropped += 1
    return ShockRecord("hub_attack", tuple(dict.fromkeys(touched)), dropped, 0)


def _reset_players(
    engine: DynamicsEngine, rng: random.Random, num_players: int, name: str
) -> ShockRecord:
    """Strip ``num_players`` distinct random players of every droppable edge."""
    touched: list[Node] = []
    dropped = 0
    for _ in range(num_players):
        eligible = sorted(
            {pair[0] for pair in _droppable_pairs(engine)} - set(touched), key=repr
        )
        if not eligible:
            break
        player = rng.choice(eligible)
        while True:
            mine = _droppable_pairs(engine, owner=player)
            if not mine:
                break
            _drop(engine, mine[0])
            dropped += 1
        touched.append(player)
    return ShockRecord(name, tuple(touched), dropped, 0)


def reset_player(
    engine: DynamicsEngine, rng: random.Random, intensity: int
) -> ShockRecord:
    """Reset one random player's strategy (``intensity`` is ignored)."""
    return _reset_players(engine, rng, 1, "reset_player")


def multi_reset(
    engine: DynamicsEngine, rng: random.Random, intensity: int
) -> ShockRecord:
    """Batched shock: reset ``max(intensity, 2)`` distinct players at once."""
    return _reset_players(engine, rng, max(intensity, 2), "multi_reset")


def add_shortcuts(
    engine: DynamicsEngine, rng: random.Random, intensity: int
) -> ShockRecord:
    """Saddle random players with redundant edges to distance-2 targets."""
    players = engine.state.players()
    touched: list[Node] = []
    added = 0
    for _ in range(intensity):
        for _attempt in range(8):
            player = rng.choice(players)
            near = bfs_distances_within(engine.state.graph, player, 2)
            ring = sorted((q for q, d in near.items() if d == 2), key=repr)
            if not ring:
                continue
            target = rng.choice(ring)
            engine.set_strategy(player, engine.state.strategy(player) | {target})
            touched.append(player)
            added += 1
            break
    return ShockRecord("add_shortcuts", tuple(dict.fromkeys(touched)), 0, added)


# ----------------------------------------------------------------------
# Deliberately disconnecting operators (tolerant cost models)
# ----------------------------------------------------------------------
def component_split(
    engine: DynamicsEngine, rng: random.Random, intensity: int
) -> ShockRecord:
    """Drop up to ``intensity`` single-owned bridge edges — a genuine split.

    Exactly the edges the screened operators refuse to touch: a
    single-owned bridge disconnects the network the moment its owner drops
    it.  Double-bought bridges are skipped (dropping one ownership is a
    topology no-op), so every applied drop widens the split.
    """
    state = engine.state
    touched: list[Node] = []
    dropped = 0
    for _ in range(intensity):
        bridge_set = {frozenset(edge) for edge in bridges(state.graph)}
        candidates = [
            (player, target)
            for player in state.players()
            for target in sorted(state.strategy(player), key=repr)
            if player not in state.strategy(target)
            and frozenset((player, target)) in bridge_set
        ]
        if not candidates:
            break
        pair = rng.choice(candidates)
        _drop(engine, pair)
        touched.append(pair[0])
        dropped += 1
    return ShockRecord("component_split", tuple(dict.fromkeys(touched)), dropped, 0)


def isolation_attack(
    engine: DynamicsEngine, rng: random.Random, intensity: int
) -> ShockRecord:
    """Sever every edge incident to the ``intensity`` highest-degree players.

    The adversary's strongest move against the hub structure the dynamics
    builds: each victim's own strategy is emptied *and* every buyer of an
    edge towards the victim drops it — all through owner strategy edits, so
    the engine sees ordinary deltas.  Victims with no buyers left end up
    fully isolated (``deg = 0``); ``rng`` only breaks degree ties.
    """
    state = engine.state
    degrees = state.graph.degrees()
    victims = sorted(
        (p for p in state.players() if degrees.get(p, 0) > 0),
        key=lambda p: (-degrees.get(p, 0), rng.random()),
    )[: max(intensity, 1)]
    touched: list[Node] = []
    dropped = 0
    for victim in victims:
        mine = state.strategy(victim)
        if mine:
            engine.set_strategy(victim, frozenset())
            dropped += len(mine)
        touched.append(victim)
        for buyer in sorted(state.players(), key=repr):
            if buyer != victim and victim in state.strategy(buyer):
                engine.set_strategy(buyer, state.strategy(buyer) - {victim})
                touched.append(buyer)
                dropped += 1
    return ShockRecord("isolation_attack", tuple(dict.fromkeys(touched)), dropped, 0)


#: Operator registry (name -> callable(engine, rng, intensity) -> ShockRecord).
PERTURBATIONS = {
    "drop_random_edges": drop_random_edges,
    "hub_attack": hub_attack,
    "reset_player": reset_player,
    "multi_reset": multi_reset,
    "add_shortcuts": add_shortcuts,
    "component_split": component_split,
    "isolation_attack": isolation_attack,
}

#: Operators that may (and usually do) split the induced network.  Only
#: these are admitted into tolerant-model sweep grids; the rest are
#: connectivity-preserving by construction.
DISCONNECTING_PERTURBATIONS = frozenset({"component_split", "isolation_attack"})


def apply_perturbation(
    engine: DynamicsEngine, name: str, rng: random.Random, intensity: int = 1
) -> ShockRecord:
    """Apply the registered operator ``name`` to ``engine`` and report it.

    Every operator edits strategies exclusively through
    :meth:`~repro.engine.DynamicsEngine.set_strategy`; the returned record
    says what actually happened (operators degrade to smaller — possibly
    empty — shocks when the instance offers no safe edit of the requested
    kind) including whether the network came out disconnected.
    Disconnection never raises here: the sweep decides per shock whether
    the game's cost model can price the outcome (tolerant models recover
    it, strict ones roll it back and record a structured outcome row), so
    no sweep row is ever lost to an assert.
    """
    try:
        operator = PERTURBATIONS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown perturbation {name!r}; available: {sorted(PERTURBATIONS)}"
        ) from exc
    record = operator(engine, rng, intensity)
    parts = connected_components(engine.state.graph)
    return replace(record, disconnected=len(parts) > 1, components=len(parts))


# ----------------------------------------------------------------------
# The scenario sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RobustnessStudyConfig:
    """Parameter grid of the perturbation & recovery study.

    ``usage`` selects the game ("max" — the paper's experiments — or
    "sum", which since the engine-grade SumNCG dispatch runs on the live
    engine like any other sweep).  ``cost_model`` / ``penalty_beta`` pick
    the disconnection semantics: the default strict model keeps the classic
    screened operators; ``"tolerant"`` prices splits at β per unreachable
    node (``penalty_beta=None`` defaults to ``2n`` — strictly larger than
    any realisable distance, so connected behaviour is untouched) and is
    what admits the deliberately disconnecting operators into the grid.
    """

    families: tuple[str, ...] = ("tree", "gnp", "watts-strogatz", "barabasi-albert")
    operators: tuple[str, ...] = (
        "drop_random_edges",
        "hub_attack",
        "reset_player",
        "multi_reset",
        "add_shortcuts",
    )
    n: int = 50
    alphas: tuple[float, ...] = (0.5, 2.0)
    ks: tuple[int, ...] = (2, 3)
    #: Sequential shocks per (instance, operator); each recovery's
    #: equilibrium is the next shock's starting point.
    shocks_per_instance: int = 3
    #: Edits per shock (edges for the edge operators, players for
    #: ``multi_reset``; ``reset_player`` always touches exactly one).
    intensity: int = 2
    usage: str = "max"
    cost_model: str = "strict"
    penalty_beta: float | None = None
    settings: SweepSettings = field(default_factory=SweepSettings.paper)

    def __post_init__(self) -> None:
        # A grid that execution would refuse raises here, before any of its
        # work starts.
        for what, names, known in (
            ("instance family", self.families, EXTENSION_FAMILIES),
            ("perturbation", self.operators, PERTURBATIONS),
            ("solver", (self.settings.solver,), SOLVERS),
        ):
            unknown = [name for name in names if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown {what} {unknown[0]!r} (expected one of {sorted(known)})"
                )
        if self.n < 4:
            raise ValueError(f"extension instances need at least 4 players, got n={self.n!r}")
        for alpha in self.alphas:
            for k in self.ks:
                self.game(FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k, alpha)

    @classmethod
    def paper(cls, workers: int = 1) -> "RobustnessStudyConfig":
        return cls(settings=SweepSettings.paper(workers=workers))

    @classmethod
    def smoke(cls, workers: int = 1) -> "RobustnessStudyConfig":
        """CI grid: still >= 3 families x >= 3 operators, but tiny instances.

        Unlike the other smoke grids this one keeps the exact
        branch-and-bound solver: certification is the point of the study,
        and a greedy certificate proves nothing.
        """
        return cls(
            families=("tree", "gnp", "watts-strogatz"),
            operators=("drop_random_edges", "reset_player", "add_shortcuts"),
            n=12,
            alphas=(0.5,),
            ks=(2,),
            shocks_per_instance=2,
            intensity=1,
            settings=SweepSettings.smoke(workers=workers, solver="branch_and_bound"),
        )

    def with_cost_model(
        self, cost_model: str, penalty_beta: float | None = None
    ) -> "RobustnessStudyConfig":
        """Re-target the grid at different disconnection semantics.

        Switching to ``"tolerant"`` also admits the disconnecting operators
        (deduplicated, appended) — they are the scenarios only a finite
        penalty can price; switching (back) to ``"strict"`` removes them.
        """
        operators = tuple(
            op for op in self.operators if op not in DISCONNECTING_PERTURBATIONS
        )
        if cost_model == "tolerant":
            operators = operators + tuple(sorted(DISCONNECTING_PERTURBATIONS))
        return replace(
            self, cost_model=cost_model, penalty_beta=penalty_beta, operators=operators
        )

    def with_reconnect(self) -> "RobustnessStudyConfig":
        """Admit the split-then-reconnect scenario into the grid.

        Reconnection after a component split needs two things at once: a
        tolerant cost model (so the split is priced finitely and the
        dynamics keep running) and *full knowledge* (a k-local player can
        never see across a cut, so only ``k = inf`` players can buy back
        into a lost component).  This helper switches to the tolerant model
        (admitting the disconnecting operators) if needed and appends the
        full-knowledge column to ``ks``; the k-local columns stay, so the
        permanent-split rows remain for comparison.  Every disconnecting
        shock row then carries ``reconnected`` / ``rounds_to_reconnect`` /
        ``component_trajectory`` fields recorded round by round during the
        warm recovery.
        """
        # with_cost_model is idempotent and also admits the disconnecting
        # operators for a config whose cost_model was set tolerant directly
        # at construction time — apply it unconditionally.
        cfg = self.with_cost_model("tolerant", penalty_beta=self.penalty_beta)
        if any(k >= FULL_KNOWLEDGE_K for k in cfg.ks):
            return cfg
        return replace(cfg, ks=cfg.ks + (FULL_KNOWLEDGE_K,))

    def with_usage(self, usage: str) -> "RobustnessStudyConfig":
        return replace(self, usage=usage)

    def game(self, k: float, alpha: float) -> GameSpec:
        """Materialise one grid cell's game spec (cost model resolved)."""
        beta = self.penalty_beta if self.penalty_beta is not None else 2.0 * self.n
        model: CostModel = resolve_cost_model(self.cost_model, beta=beta)
        factory = {"max": MaxNCG, "sum": SumNCG}[self.usage]
        return factory(alpha=alpha, k=k, cost_model=model)


def _profile_distance(a: StrategyProfile, b: StrategyProfile) -> tuple[int, int]:
    """(players whose strategy differs, symmetric difference of edge sets)."""
    moved = sum(1 for p in a.players() if a.strategy(p) != b.strategy(p))
    edges_a = {frozenset(edge) for edge in a.graph().edges()}
    edges_b = {frozenset(edge) for edge in b.graph().edges()}
    return moved, len(edges_a ^ edges_b)


def _component_observer(trajectory: list[int]):
    """Round observer appending the live component count after every round."""

    def observer(engine: DynamicsEngine, round_index: int, changes: int) -> None:
        trajectory.append(len(connected_components(engine.state.graph)))

    return observer


@dataclass
class _BaseSession:
    """A pre-shock converged engine, reusable across operator chains.

    This is the unit the sweep service keeps warm on its workers: every
    operator task of the same instance cell rides the same live engine
    (view cache, best-response memo) via
    :meth:`~repro.engine.DynamicsEngine.restore_profile` instead of
    re-converging the base dynamics from scratch.  ``profile`` / ``cost``
    are ``None`` when the base dynamics failed to converge.
    """

    engine: DynamicsEngine
    result: DynamicsResult
    info: dict
    rng_key: tuple
    solver: str
    profile: StrategyProfile | None = None
    cost: float | None = None


def _converge_base(
    family: str,
    n: int,
    alpha: float,
    k: int,
    seed: int,
    solver: str,
    max_rounds: int,
    game: GameSpec,
    owned=None,
    view_store=None,
) -> _BaseSession:
    """Build and converge the pre-shock engine of one instance cell.

    ``owned`` optionally injects a pre-built instance (an
    :class:`~repro.graphs.generators.base.OwnedGraph` or a
    :class:`StrategyProfile`, e.g. a sweep worker's cached copy);
    by default the instance is generated from its family/size/seed.
    """
    if owned is None:
        owned = build_extension_instance(family, n, seed)
    # Metric sweeps are O(n · edges) bookends on every `run`; computing
    # social costs explicitly (outside the timed windows) keeps the warm
    # replay at O(dirty ball) and the warm-vs-cold timing honest.
    engine = DynamicsEngine(
        owned,
        game,
        solver=solver,
        max_rounds=max_rounds,
        collect_metrics=False,
        view_store=view_store,
    )
    base_result = engine.run()
    session = _BaseSession(
        engine=engine,
        result=base_result,
        info={
            "family": family,
            "n": engine.state.graph.number_of_nodes(),
            "alpha": alpha,
            "k": k,
            "seed": seed,
            "usage": game.usage.value,
            "cost_model": game.cost_model.label(),
        },
        rng_key=(family, alpha, k, seed),
        solver=solver,
    )
    if base_result.converged:
        session.profile = engine.state.to_profile()
        session.cost = social_cost(session.profile, game)
    return session


def _base_checkpoint_document(session: _BaseSession) -> dict:
    """The checkpoint document of a cell's certified base run.

    Sweep engines skip metric sweeps; the headline metrics are backfilled
    once (no dynamics re-run), so the document is complete wherever it is
    decoded — including from a resumed journal, where the engine no
    longer exists.
    """
    result = session.result
    if result.final_metrics is None:
        result.final_metrics = compute_profile_metrics(result.final_profile, result.game)
    return dynamics_result_to_dict(result)


def _unconverged_base_row(session: _BaseSession) -> dict:
    """The one honest row of an instance whose pre-shock dynamics failed.

    The pre-shock dynamics cycled or timed out: there is no equilibrium to
    perturb, so the instance contributes this marker instead of fake shocks.
    """
    return {
        **session.info,
        "operator": "none",
        "shock_index": -1,
        "shock_players": 0,
        "shock_edges_dropped": 0,
        "shock_edges_added": 0,
        "converged": False,
        "certified": False,
    }


def _operator_rows(
    session: _BaseSession, operator: str, shocks: int, intensity: int
) -> list[dict]:
    """One operator's sequential shock chain on a converged base session.

    Warm-replays the engine back to the base equilibrium first, so the
    chain sees the same starting point regardless of what ran on the
    engine before it — the same cell's earlier operator tasks on a warm
    sweep worker.
    """
    engine = session.engine
    game = engine.game
    solver = session.solver
    max_rounds = engine.max_rounds
    base_info = session.info
    engine.restore_profile(session.profile)
    pre_profile = session.profile
    pre_cost = session.cost
    rows: list[dict] = []
    family, alpha, k, seed = session.rng_key
    rng = random.Random(f"robustness:{family}:{alpha}:{k}:{seed}:{operator}")
    for shock_index in range(shocks):
        record = apply_perturbation(engine, operator, rng, intensity)
        if record.is_empty:
            # No safe edit existed (e.g. deletions on an all-bridges
            # tree equilibrium): the state still *is* the certified
            # ``pre_profile``, so recovering it warm and cold would
            # only time engine construction.  One cheap honest row;
            # the aggregates exclude it from every recovery statistic.
            rows.append(
                {
                    **base_info,
                    "operator": record.operator,
                    "shock_index": shock_index,
                    "shock_empty": True,
                    "shock_disconnected": False,
                    "outcome": "empty",
                    "shock_players": 0,
                    "shock_edges_dropped": 0,
                    "shock_edges_added": 0,
                    "pre_social_cost": pre_cost,
                    "shock_social_cost": pre_cost,
                    "recovered_social_cost": pre_cost,
                    "social_cost_delta": 0.0,
                    "rounds_to_recover": 0,
                    "recovery_changes": 0,
                    "moved_players": 0,
                    "strategy_distance": 0,
                    "edge_distance": 0,
                    "post_components": 1,
                    "recovered_to_same": True,
                    "converged": True,
                    "certified": True,
                    # The standing certificate is the solver's: exact
                    # unless the best responses were greedy.
                    "certified_exact": solver != "greedy",
                    "warm_equals_cold": True,
                    "warm_s": 0.0,
                    "cold_s": 0.0,
                    "warm_speedup": 1.0,
                }
            )
            continue
        if record.disconnected and not game.cost_model.is_finite:
            # The strict model cannot price a split (every cost is
            # inf and a k-local player can never re-buy across the
            # cut).  Roll the shock back onto the still-certified
            # ``pre_profile`` and record what happened — a structured
            # outcome row instead of the old raised AssertionError, so
            # the sweep never loses the row and later shocks in the
            # chain keep a meaningful baseline.
            engine.restore_profile(pre_profile)
            rows.append(
                {
                    **base_info,
                    "operator": record.operator,
                    "shock_index": shock_index,
                    "shock_empty": False,
                    "shock_disconnected": True,
                    "outcome": "skipped_strict_disconnection",
                    "shock_players": len(record.players),
                    "shock_edges_dropped": record.edges_dropped,
                    "shock_edges_added": record.edges_added,
                    "shock_components": record.components,
                    "pre_social_cost": pre_cost,
                    "converged": False,
                    "certified": False,
                }
            )
            continue
        shock_profile = engine.state.to_profile()
        shock_cost = social_cost(shock_profile, game)

        # Split-then-reconnect instrumentation: on a disconnecting shock
        # (priced, i.e. tolerant model) the component count is tracked
        # round by round through the recovery, so the row records whether
        # — and how fast — the dynamics sewed the network back together
        # (full-knowledge players can buy across the cut; k-local ones
        # never see it).  The cold run carries the same observer so the
        # warm-vs-cold timing stays symmetric.
        warm_trajectory: list[int] | None = None
        warm_observer = cold_observer = None
        if record.disconnected:
            warm_trajectory = [record.components]
            warm_observer = _component_observer(warm_trajectory)
            cold_observer = _component_observer([record.components])

        start = time.perf_counter()
        result = engine.run(round_observer=warm_observer)
        warm_s = time.perf_counter() - start
        # A cycled/capped run is not an equilibrium by definition —
        # sweeping it would pay up to n stale-memo solver calls just
        # to learn what `result.certified` already says.
        report = engine.certify() if result.converged else None
        recovered = engine.state.to_profile()

        cold_engine = DynamicsEngine(
            shock_profile,
            game,
            solver=solver,
            max_rounds=max_rounds,
            collect_metrics=False,
        )
        start = time.perf_counter()
        cold_result = cold_engine.run(round_observer=cold_observer)
        cold_s = time.perf_counter() - start

        moved_in_recovery, _ = _profile_distance(shock_profile, recovered)
        strategy_distance, edge_distance = _profile_distance(pre_profile, recovered)
        recovered_cost = social_cost(recovered, game)
        post_components = len(connected_components(engine.state.graph))
        row = {
            **base_info,
            "operator": record.operator,
            "shock_index": shock_index,
            "shock_empty": record.is_empty,
            "shock_disconnected": record.disconnected,
            "outcome": "recovered" if result.converged else "unrecovered",
            "shock_players": len(record.players),
            "shock_edges_dropped": record.edges_dropped,
            "shock_edges_added": record.edges_added,
            "shock_components": record.components,
            "post_components": post_components,
            "pre_social_cost": pre_cost,
            "shock_social_cost": shock_cost,
            "recovered_social_cost": recovered_cost,
            "social_cost_delta": recovered_cost - pre_cost,
            "rounds_to_recover": result.rounds,
            "recovery_changes": result.total_changes,
            "moved_players": moved_in_recovery,
            "strategy_distance": strategy_distance,
            "edge_distance": edge_distance,
            "recovered_to_same": recovered == pre_profile,
            "converged": result.converged,
            "certified": report is not None
            and result.certified
            and report.is_equilibrium,
            "certified_exact": report is not None and report.all_exact,
            "warm_equals_cold": (
                recovered == cold_result.final_profile
                and result.rounds == cold_result.rounds
            ),
            "warm_s": round(warm_s, 6),
            "cold_s": round(cold_s, 6),
            "warm_speedup": round(cold_s / max(warm_s, 1e-9), 2),
        }
        if warm_trajectory is not None:
            # A tiny penalty beta can make re-splitting improving, so the
            # trajectory may touch 1 and split again (e.g. 2>1>2>1): only a
            # recovery that *ends* connected counts as reconnected, and
            # rounds_to_reconnect is the first round of the terminal all-1
            # suffix — transient touches of 1 never count, on either
            # branch, keeping the invariant ``rounds_to_reconnect is not
            # None iff reconnected``.
            reconnected = post_components == 1
            reconnect_round = None
            if reconnected:
                reconnect_round = len(warm_trajectory) - 1
                while reconnect_round > 1 and warm_trajectory[reconnect_round - 1] == 1:
                    reconnect_round -= 1
            row["reconnected"] = reconnected
            row["rounds_to_reconnect"] = reconnect_round
            row["component_trajectory"] = ">".join(
                str(count) for count in warm_trajectory
            )
        rows.append(row)
        if not result.converged:
            # The warm recovery cycled or hit the round cap: the state
            # is not an equilibrium, so chaining further shocks from it
            # would measure drift against a junk baseline.  The honest
            # row above (converged=False) stands; the operator's
            # remaining shock slots are abandoned.
            break
        pre_profile = recovered
        pre_cost = recovered_cost
    return rows


def _instance_cells(cfg: RobustnessStudyConfig) -> list[tuple]:
    """Canonical ``(family, alpha, k, seed, game)`` order of the grid."""
    return [
        (
            family,
            alpha,
            k,
            cfg.settings.base_seed + seed,
            cfg.game(FULL_KNOWLEDGE if k >= FULL_KNOWLEDGE_K else k, alpha),
        )
        for family in cfg.families
        for alpha in cfg.alphas
        for k in cfg.ks
        for seed in range(cfg.settings.num_seeds)
    ]


def generate_robustness_study(
    config: RobustnessStudyConfig | None = None,
    store: ExperimentStore | str | None = None,
    experiment_name: str = "robustness",
    journal: str | None = None,
    resume: bool = False,
) -> list[dict]:
    """Run the perturbation & recovery sweep; one row per shock.

    When ``store`` is given (an :class:`ExperimentStore` or a directory
    path), the per-shock rows and the flattened configuration are persisted
    under ``experiment_name``, plus one checkpoint of a representative base
    equilibrium — the first instance's own certified pre-shock run, reused
    from the sweep rather than re-converged — so a later session can reload
    both the trajectory series and a concrete certified profile without
    re-running the dynamics.  (No checkpoint is written when that base run
    failed to certify: a cycling or capped run is not a base equilibrium.)

    The sweep runs through the orchestration service
    (:func:`repro.service.api.robustness_sweep`) on ``config.settings.
    workers`` instance-affine workers (1 = in the calling process):
    per-operator tasks of the same instance cell share one warm base
    engine instead of each re-converging it, and a ``journal`` directory
    gives crash-safe ``resume``.  Only the wall-clock ``warm_s`` /
    ``cold_s`` / ``warm_speedup`` fields differ run to run.
    """
    from repro.service.api import ServiceConfig, robustness_sweep

    cfg = config if config is not None else RobustnessStudyConfig.paper()
    rows, checkpoint_document = robustness_sweep(
        cfg,
        ServiceConfig(
            workers=cfg.settings.workers,
            journal_dir=journal,
            experiment=experiment_name,
            resume=resume,
        ),
    )
    if store is not None:
        if not isinstance(store, ExperimentStore):
            store = ExperimentStore(store)
        store.save_rows(experiment_name, rows, config=asdict(cfg))
        if checkpoint_document is not None:
            family, alpha, k, seed, _ = _instance_cells(cfg)[0]
            store.save_checkpoint_document(
                experiment_name,
                f"base-{family}-a{alpha}-k{k}-s{seed}",
                checkpoint_document,
            )
    return rows


def aggregate_robustness_rows(rows: list[dict]) -> list[dict]:
    """One summary row per (family, operator, alpha, k) cell.

    Means carry the ±CI half-widths of :func:`repro.analysis.statistics.summarize`.
    Two row classes are excluded from the recovery statistics so they
    cannot masquerade as recoveries:

    * **empty shocks** — the operator found no safe edit, e.g. edge
      deletion on an all-bridges tree equilibrium.  They are counted
      (``empty_shocks``) but measure nothing; a cell where *every* shock
      was empty reports NaN fractions rather than a perfect score.
    * **unrecovered shocks** — the warm re-run cycled or hit the round
      cap.  They drag ``certified_fraction`` down but stay out of the
      means: ``rounds_to_recover == max_rounds`` is a cap, not a
      recovery time.
    * **strict-model disconnections** — a disconnecting operator ran under
      a strict game; the shock was rolled back unpriced.  Counted as
      ``skipped_disconnections``, excluded from everything else.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["operator"] == "none":
            continue
        groups.setdefault(
            (row["family"], row["operator"], row["alpha"], row["k"]), []
        ).append(row)
    aggregated: list[dict] = []
    for (family, operator, alpha, k), bucket in sorted(
        groups.items(), key=lambda kv: tuple(map(repr, kv[0]))
    ):
        skipped = [
            r for r in bucket if r.get("outcome") == "skipped_strict_disconnection"
        ]
        real = [
            r
            for r in bucket
            if not r.get("shock_empty")
            and r.get("outcome") != "skipped_strict_disconnection"
        ]
        recovered = [r for r in real if r.get("converged")]
        out: dict = {
            "family": family,
            "operator": operator,
            "alpha": alpha,
            "k": k,
            "num_shocks": len(bucket),
            "empty_shocks": len(bucket) - len(real) - len(skipped),
            "skipped_disconnections": len(skipped),
            "disconnected_shocks": sum(
                1 for r in real if r.get("shock_disconnected")
            ),
            "reconnected_shocks": sum(1 for r in real if r.get("reconnected")),
        }
        if real:
            out["certified_fraction"] = sum(r["certified"] for r in real) / len(real)
            out["recovered_to_same_fraction"] = sum(
                r["recovered_to_same"] for r in real
            ) / len(real)
        else:
            out["certified_fraction"] = float("nan")
            out["recovered_to_same_fraction"] = float("nan")
        for metric in (
            "rounds_to_recover",
            "moved_players",
            "social_cost_delta",
            "edge_distance",
            "warm_speedup",
        ):
            finite = [
                float(r[metric])
                for r in recovered
                if r[metric] == r[metric] and abs(r[metric]) != float("inf")
            ]
            summary = summarize(finite)
            out[f"{metric}_mean"] = summary.mean
            out[f"{metric}_ci"] = summary.half_width
        aggregated.append(out)
    return aggregated
