"""Shared helpers for generators that also assign edge ownership.

In the paper's games every edge is bought (and paid for) by exactly one of
its endpoints.  For the experimental instances the owner of each initial edge
is chosen "with a fair coin toss" (Section 5.2); the lower-bound
constructions prescribe an explicit ownership (e.g. non-intersection vertices
own all edges of the stretched torus).  :class:`OwnedGraph` bundles a
topology with such an assignment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.graphs.graph import Graph, Node

__all__ = [
    "OwnedGraph",
    "assign_ownership_fair_coin",
    "assign_ownership_to_smaller",
]


@dataclass
class OwnedGraph:
    """A graph together with an edge-ownership map.

    Attributes
    ----------
    graph:
        The undirected topology.
    ownership:
        ``owner -> set of targets``; the pair ``(owner, target)`` means the
        player ``owner`` bought the edge towards ``target``.  Every edge of
        ``graph`` must be owned by exactly one endpoint.
    metadata:
        Free-form generator metadata (construction parameters, special vertex
        sets, ...).
    """

    graph: Graph
    ownership: dict[Node, set[Node]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check that the ownership covers every edge exactly once."""
        owned: set[frozenset[Node]] = set()
        for owner, targets in self.ownership.items():
            if not self.graph.has_node(owner):
                raise ValueError(f"owner {owner!r} is not a node of the graph")
            for target in targets:
                if not self.graph.has_edge(owner, target):
                    raise ValueError(
                        f"ownership ({owner!r}, {target!r}) is not an edge of the graph"
                    )
                key = frozenset((owner, target))
                if key in owned:
                    raise ValueError(f"edge {tuple(key)!r} owned by both endpoints")
                owned.add(key)
        if len(owned) != self.graph.number_of_edges():
            raise ValueError(
                "ownership does not cover every edge: "
                f"{len(owned)} owned vs {self.graph.number_of_edges()} edges"
            )

    def bought_edges(self, node: Node) -> set[Node]:
        """Return the targets of the edges bought by ``node``."""
        return set(self.ownership.get(node, set()))

    def owner_of(self, u: Node, v: Node) -> Node:
        """Return the endpoint that owns the edge ``(u, v)``."""
        if v in self.ownership.get(u, set()):
            return u
        if u in self.ownership.get(v, set()):
            return v
        raise KeyError(f"edge ({u!r}, {v!r}) has no recorded owner")


def assign_ownership_fair_coin(
    graph: Graph, rng: random.Random | None = None
) -> dict[Node, set[Node]]:
    """Assign each edge to one of its endpoints with a fair coin toss.

    This is the initial-ownership rule of the experimental section
    ("the owner of each edge was chosen uniformly at random between its
    endpoints").
    """
    rng = rng if rng is not None else random.Random()
    ownership: dict[Node, set[Node]] = {node: set() for node in graph}
    for u, v in graph.edges():
        if rng.random() < 0.5:
            ownership[u].add(v)
        else:
            ownership[v].add(u)
    return ownership


def assign_ownership_to_smaller(graph: Graph) -> dict[Node, set[Node]]:
    """Deterministically assign each edge to its smaller endpoint.

    Used as an ablation of the fair-coin rule and for constructions where
    the paper leaves the ownership unspecified; nodes must be comparable.
    """
    ownership: dict[Node, set[Node]] = {node: set() for node in graph}
    for u, v in graph.edges():
        small, large = (u, v) if _key(u) <= _key(v) else (v, u)
        ownership[small].add(large)
    return ownership


def _key(node: Node):
    """Sort key that works for both int and tuple node labels."""
    if isinstance(node, tuple):
        return (1, node)
    return (0, (node,))
