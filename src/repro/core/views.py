"""k-neighbourhood views (the local-knowledge model of Section 2).

The view of player ``u`` in ``G(σ)`` is the subgraph induced by all nodes at
distance at most ``k`` from ``u``, together with the distance labels and the
*frontier* ``F`` of nodes at distance exactly ``k`` — the vertices behind
which an arbitrary amount of invisible network may hide, which is what makes
the SumNCG deviation rule of Proposition 2.2 conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.games import FULL_KNOWLEDGE
from repro.core.strategies import StrategyProfile
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import bfs_distances, bfs_distances_within
from repro.kernels.common import UNREACHABLE

__all__ = ["View", "ArrayView", "extract_view"]


@dataclass
class View:
    """Everything player ``u`` knows about the network.

    Attributes
    ----------
    player:
        The observing player ``u``.
    k:
        The knowledge radius (``math.inf`` for full knowledge).
    subgraph:
        The induced subgraph ``H`` on the nodes within distance ``k`` of
        ``u`` (including ``u``).
    distances:
        ``{node: d_G(u, node)}`` restricted to the visible nodes.
    frontier:
        The set ``F`` of visible nodes at distance exactly ``k``
        (empty under full knowledge or when the whole graph is closer).
    buyers:
        The visible players that bought an edge towards ``u`` (these edges
        are not under ``u``'s control and cost her nothing).
    """

    player: Node
    k: float
    subgraph: Graph
    distances: dict[Node, int]
    frontier: set[Node] = field(default_factory=set)
    buyers: set[Node] = field(default_factory=set)

    @property
    def nodes(self) -> set[Node]:
        return set(self.subgraph.nodes())

    @property
    def size(self) -> int:
        """Number of visible nodes (the paper's "view size" statistic)."""
        return self.subgraph.number_of_nodes()

    @property
    def strategy_space(self) -> set[Node]:
        """Nodes the player may buy edges towards: every visible node but herself."""
        return self.nodes - {self.player}

    def eccentricity_within(self) -> float:
        """Eccentricity of the player *inside her view* (inf if disconnected)."""
        if not self.distances or len(self.distances) < self.subgraph.number_of_nodes():
            return math.inf
        return float(max(self.distances.values()))

    def sees_everything(self, total_players: int) -> bool:
        """Whether the view covers the whole network of ``total_players`` nodes.

        Note that the *player* cannot always tell: if her in-view
        eccentricity equals ``k`` there might be invisible nodes beyond the
        frontier.  This predicate is an omniscient check used by the
        experiment recorder, not part of the players' information.
        """
        return self.size >= total_players


class ArrayView(View):
    """A view stored as index arrays over a shared label list: the engine's form.

    ``labels[nodes]`` are the visible nodes other than ``player`` —
    ``nodes`` ascending and ``labels`` in ``repr`` order, so in the order
    every view consumer sorts them into — ``dist`` their distances from
    her, ``indptr``/``indices`` the CSR of ``H − u`` over their positions
    and ``forced`` the sorted positions of her buyers, packed in one int64
    array.  ``H`` is fully determined by them (``u``'s edges are the nodes
    at distance 1), so the dict attributes of :class:`View` are
    materialised on first access, for dict consumers only.
    """

    def __init__(self, player, k, labels, nodes, dist, indptr, indices, forced) -> None:
        self.player = player
        self.k = k
        self.labels = labels
        self.count = len(nodes)
        self.data = np.concatenate((nodes, dist, indptr, indices, forced))

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(nodes, dist, indptr, indices, forced)``, slices of :attr:`data`."""
        m, data = self.count, self.data
        end = 3 * m + 1 + int(data[3 * m])  # data[3 * m] is indptr[m], the edge count
        return data[:m], data[m:2 * m], data[2 * m:3 * m + 1], data[3 * m + 1:end], data[end:]

    def same_arrays(self, other: "ArrayView") -> bool:
        """Content equality with another array view of the same player.

        Equal bytes of one dtype mean ``np.array_equal``, at a fraction of
        its cost on small arrays.
        """
        return self.count == other.count and self.data.tobytes() == other.data.tobytes()

    @property
    def nodes(self) -> set[Node]:
        return {self.player, *map(self.labels.__getitem__, self.data[:self.count].tolist())}

    @property
    def size(self) -> int:
        return self.count + 1

    def __getattr__(self, name: str):
        # Reached only for attributes never set: the four dict attributes
        # until this, their first access, materialises them all.
        if name not in ("subgraph", "distances", "frontier", "buyers"):
            raise AttributeError(name)
        nodes, dist, indptr, indices, forced = self.arrays
        members = [self.labels[i] for i in nodes.tolist()]
        subgraph = Graph(nodes=sorted([*members, self.player], key=repr))
        for i, node in enumerate(members):
            for j in indices[indptr[i]:indptr[i + 1]].tolist():
                subgraph.add_edge(node, members[j])
            if dist[i] == 1:
                subgraph.add_edge(self.player, node)
        reached = [(node, d) for node, d in zip(members, dist.tolist()) if d != UNREACHABLE]
        self.subgraph = subgraph
        self.distances = {self.player: 0, **dict(reached)}
        self.frontier = {node for node, d in reached if d == self.k}
        self.buyers = {members[i] for i in forced.tolist()}
        return getattr(self, name)


def extract_view(profile: StrategyProfile, player: Node, k: float) -> View:
    """Compute the view of ``player`` at radius ``k`` under ``profile``.

    With ``k = FULL_KNOWLEDGE`` the whole (reachable part of the) network is
    returned and the frontier is empty.
    """
    graph = profile.graph()
    if player not in graph:
        raise KeyError(f"player {player!r} not in the game")
    if k == FULL_KNOWLEDGE:
        # Full knowledge means knowing the entire player set, including
        # players in other connected components (relevant only for the
        # classical game on disconnected profiles; the paper always starts
        # from a connected network).
        distances = bfs_distances(graph, player)
        frontier: set[Node] = set()
        visible = set(graph.nodes())
    else:
        radius = int(k)
        distances = bfs_distances_within(graph, player, radius)
        frontier = {node for node, dist in distances.items() if dist == radius}
        visible = set(distances)
    subgraph = graph.induced_subgraph(visible)
    buyers = {buyer for buyer in profile.buyers_of(player) if buyer in visible}
    return View(
        player=player,
        k=k,
        subgraph=subgraph,
        distances=dict(distances),
        frontier=frontier,
        buyers=buyers,
    )
