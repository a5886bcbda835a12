"""Versioned mutable network state.

The legacy dynamics loop treated :class:`~repro.core.strategies.StrategyProfile`
as the single source of truth and rebuilt the induced graph from scratch
after every strategy change.  :class:`NetworkState` inverts that: it keeps
*one* mutable :class:`~repro.graphs.graph.Graph` alive for the whole run and
applies strategy changes as edge-level deltas, relying on the graph's
monotone ``version`` counter so downstream caches (views, CSR exports) can
detect staleness cheaply.

Edge semantics follow the game: the undirected edge ``(u, v)`` is present
iff ``v ∈ σ_u`` or ``u ∈ σ_v``, so dropping a target only removes the edge
when the other endpoint does not also buy it — a pure *ownership flip*
leaves the topology untouched (and is reported through
:attr:`StrategyDelta.buyer_changes` instead).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.strategies import StrategyProfile
from repro.graphs.graph import Edge, Graph, Node

__all__ = ["StrategyDelta", "NetworkState"]


@dataclass(frozen=True)
class StrategyDelta:
    """The exact structural effect of one strategy change.

    Attributes
    ----------
    player:
        The player whose strategy changed.
    old_strategy / new_strategy:
        Her strategy before / after the change.
    added_edges / removed_edges:
        Undirected edges actually inserted into / removed from the network
        (double-bought edges do not appear: buying an edge the other
        endpoint already owns changes ownership, not topology).
    buyer_changes:
        Targets whose *buyer set* changed (``old ∆ new``); the views of
        these players must be refreshed even when no edge moved, because a
        view records who bought the edges incident to its observer.
    """

    player: Node
    old_strategy: frozenset[Node]
    new_strategy: frozenset[Node]
    added_edges: tuple[Edge, ...]
    removed_edges: tuple[Edge, ...]
    buyer_changes: tuple[Node, ...]

    @property
    def changes_topology(self) -> bool:
        return bool(self.added_edges or self.removed_edges)


def _key_entry(player: Node, targets: frozenset[Node]) -> tuple:
    """One player's entry of the canonical profile key."""
    return (player, tuple(sorted(targets, key=repr)))


class NetworkState:
    """Mutable mirror of a strategy profile with incremental edge updates.

    Holds the strategies, the induced graph (mutated in place, never
    rebuilt) and the reverse ``buyers`` index ``{player: set of buyers}``
    that :meth:`repro.core.strategies.StrategyProfile.buyers_of` otherwise
    recomputes in ``O(n)`` per call.
    """

    __slots__ = ("_strategies", "_graph", "_buyers", "_revision", "_order", "_keys")

    def __init__(self, strategies: dict[Node, frozenset[Node]]) -> None:
        self._strategies = dict(strategies)
        self._revision = 0
        # canonical_key's parts: the players in repr order, and each
        # player's entry, re-sorted only when her strategy changes.
        self._order = sorted(self._strategies, key=repr)
        self._keys = {
            player: _key_entry(player, targets) for player, targets in self._strategies.items()
        }
        graph = Graph(nodes=self._strategies)
        buyers: dict[Node, set[Node]] = {node: set() for node in self._strategies}
        for player, targets in self._strategies.items():
            for target in targets:
                graph.add_edge(player, target)
                buyers[target].add(player)
        self._graph = graph
        self._buyers = buyers

    @classmethod
    def from_profile(cls, profile: StrategyProfile) -> "NetworkState":
        return cls({player: profile.strategy(player) for player in profile})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The live induced network (mutated in place by :meth:`apply`)."""
        return self._graph

    @property
    def version(self) -> int:
        return self._graph.version

    @property
    def revision(self) -> int:
        """Monotone strategy-content counter, bumped on every applied delta.

        Unlike :attr:`version` (the graph's structural counter), this also
        moves on pure ownership flips — a double-bought edge changing hands
        alters buyer sets (and therefore view content) without touching the
        topology.  Caches keyed on full state content must key on this.
        """
        return self._revision

    def players(self) -> list[Node]:
        return list(self._strategies)

    def strategy(self, player: Node) -> frozenset[Node]:
        return self._strategies[player]

    def buyers_of(self, player: Node) -> set[Node]:
        """Players currently buying an edge towards ``player`` (live set)."""
        return self._buyers[player]

    def canonical_key(self) -> tuple:
        """Same canonical form as :meth:`StrategyProfile.canonical_key`."""
        return tuple(map(self._keys.__getitem__, self._order))

    def to_profile(self) -> StrategyProfile:
        """Materialise an immutable snapshot of the current strategies."""
        return StrategyProfile(dict(self._strategies))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def preview(self, player: Node, new_targets: frozenset[Node]) -> StrategyDelta:
        """The delta :meth:`apply` *would* produce, without applying it.

        Callers that must look at the pre-change graph (dirty-region BFS
        around edges about to disappear) use this before mutating.
        """
        if player not in self._strategies:
            raise KeyError(f"unknown player {player!r}")
        new = frozenset(new_targets)
        if player in new:
            raise ValueError(f"player {player!r} cannot buy an edge to herself")
        unknown = new - self._strategies.keys()
        if unknown:
            raise ValueError(
                f"player {player!r} buys edges to non-players "
                f"{sorted(map(repr, unknown))}"
            )
        old = self._strategies[player]
        added_targets = new - old
        removed_targets = old - new
        added_edges = tuple(
            (player, target)
            for target in added_targets
            if player not in self._strategies[target]
        )
        removed_edges = tuple(
            (player, target)
            for target in removed_targets
            if player not in self._strategies[target]
        )
        return StrategyDelta(
            player=player,
            old_strategy=old,
            new_strategy=new,
            added_edges=added_edges,
            removed_edges=removed_edges,
            buyer_changes=tuple(added_targets | removed_targets),
        )

    def apply(self, delta: StrategyDelta) -> None:
        """Apply a previously previewed delta to strategies, graph and buyers."""
        player = delta.player
        if self._strategies[player] != delta.old_strategy:
            raise ValueError(
                f"stale delta for player {player!r}: strategy changed since preview"
            )
        self._strategies[player] = delta.new_strategy
        self._keys[player] = _key_entry(player, delta.new_strategy)
        self._revision += 1
        for target in delta.buyer_changes:
            if target in delta.new_strategy:
                self._buyers[target].add(player)
            else:
                self._buyers[target].discard(player)
        for u, v in delta.removed_edges:
            self._graph.remove_edge(u, v)
        for u, v in delta.added_edges:
            self._graph.add_edge(u, v)

    def set_strategy(self, player: Node, new_targets: frozenset[Node]) -> StrategyDelta:
        """Preview-and-apply in one step; returns the applied delta."""
        delta = self.preview(player, new_targets)
        self.apply(delta)
        return delta
