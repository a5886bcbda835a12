"""Strategy profiles.

A strategy of player ``u`` is a subset ``σ_u ⊆ V \\ {u}`` of players towards
whom ``u`` buys an edge (Fabrikant et al. unilateral link formation: no
consent needed, the buyer alone pays ``α`` per edge).  A *strategy profile*
``σ = (σ_u)_{u ∈ V}`` induces the undirected network ``G(σ)`` whose edges are
``{(u, v) : v ∈ σ_u}``.

The profile is the single source of truth of the game state; the induced
:class:`~repro.graphs.Graph` is materialised (and cached) on demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.graphs.generators.base import OwnedGraph
from repro.graphs.graph import Graph, Node

__all__ = ["StrategyProfile"]


class StrategyProfile:
    """Immutable-by-convention mapping ``player -> frozenset of edge targets``.

    All mutating operations return a new profile (the dynamics engine relies
    on cheap structural sharing of the unchanged strategies), and the induced
    graph is cached per profile instance.
    """

    __slots__ = ("_strategies", "_graph_cache")

    def __init__(self, strategies: Mapping[Node, Iterable[Node]]) -> None:
        cleaned: dict[Node, frozenset[Node]] = {}
        for player, targets in strategies.items():
            target_set = frozenset(targets)
            if player in target_set:
                raise ValueError(f"player {player!r} cannot buy an edge to herself")
            cleaned[player] = target_set
        # Every target must itself be a player.
        players = set(cleaned)
        for player, targets in cleaned.items():
            unknown = targets - players
            if unknown:
                raise ValueError(
                    f"player {player!r} buys edges to non-players {sorted(map(repr, unknown))}"
                )
        self._strategies = cleaned
        self._graph_cache: Graph | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_validated(cls, strategies: dict[Node, frozenset[Node]]) -> "StrategyProfile":
        """Wrap strategies already checked by ``__init__``'s rules, unchecked.

        For :meth:`repro.engine.state.NetworkState.to_profile`, whose every
        strategy passed the same checks on the way in; the mapping is taken
        over, not copied.
        """
        profile = cls.__new__(cls)
        profile._strategies = strategies
        profile._graph_cache = None
        return profile

    @classmethod
    def from_owned_graph(cls, owned: OwnedGraph) -> "StrategyProfile":
        """Build a profile from a generator output (graph + ownership)."""
        strategies = {node: set() for node in owned.graph}
        for owner, targets in owned.ownership.items():
            strategies[owner] = set(targets)
        return cls(strategies)

    @classmethod
    def empty(cls, players: Iterable[Node]) -> "StrategyProfile":
        """Profile in which nobody buys any edge."""
        return cls({player: frozenset() for player in players})

    @classmethod
    def star(cls, players: Iterable[Node], center: Node) -> "StrategyProfile":
        """Profile in which ``center`` buys an edge to every other player."""
        player_list = list(players)
        if center not in player_list:
            raise ValueError("center must be one of the players")
        strategies = {player: frozenset() for player in player_list}
        strategies[center] = frozenset(p for p in player_list if p != center)
        return cls(strategies)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def players(self) -> list[Node]:
        return list(self._strategies)

    def num_players(self) -> int:
        return len(self._strategies)

    def strategy(self, player: Node) -> frozenset[Node]:
        return self._strategies[player]

    def __getitem__(self, player: Node) -> frozenset[Node]:
        return self._strategies[player]

    def __iter__(self) -> Iterator[Node]:
        return iter(self._strategies)

    def __len__(self) -> int:
        return len(self._strategies)

    def __contains__(self, player: Node) -> bool:
        return player in self._strategies

    def items(self):
        return self._strategies.items()

    def num_bought_edges(self, player: Node) -> int:
        return len(self._strategies[player])

    def total_bought_edges(self) -> int:
        return sum(len(targets) for targets in self._strategies.values())

    def buyers_of(self, player: Node) -> set[Node]:
        """Return the players that bought an edge towards ``player``."""
        return {
            other
            for other, targets in self._strategies.items()
            if player in targets
        }

    def graph(self) -> Graph:
        """Return (and cache) the induced network ``G(σ)``."""
        if self._graph_cache is None:
            graph = Graph(nodes=self._strategies)
            for player, targets in self._strategies.items():
                for target in targets:
                    graph.add_edge(player, target)
            self._graph_cache = graph
        return self._graph_cache

    def as_dict(self) -> dict[Node, frozenset[Node]]:
        """Return a shallow copy of the underlying mapping."""
        return dict(self._strategies)

    def canonical_key(self) -> tuple:
        """Hashable canonical form, used by the dynamics cycle detector."""
        return tuple(
            (player, tuple(sorted(targets, key=repr)))
            for player, targets in sorted(self._strategies.items(), key=lambda kv: repr(kv[0]))
        )

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_strategy(self, player: Node, new_targets: Iterable[Node]) -> "StrategyProfile":
        """Return a new profile in which ``player`` plays ``new_targets``."""
        if player not in self._strategies:
            raise KeyError(f"unknown player {player!r}")
        updated = dict(self._strategies)
        updated[player] = frozenset(new_targets)
        return StrategyProfile(updated)

    def with_added_player(
        self, player: Node, targets: Iterable[Node] = ()
    ) -> "StrategyProfile":
        """Return a new profile with an extra player (used in NP-hardness style tests)."""
        if player in self._strategies:
            raise ValueError(f"player {player!r} already present")
        updated = {p: set(t) for p, t in self._strategies.items()}
        updated[player] = set(targets)
        return StrategyProfile(updated)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrategyProfile):
            return NotImplemented
        return self._strategies == other._strategies

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"StrategyProfile(players={self.num_players()}, "
            f"edges={self.total_bought_edges()})"
        )
