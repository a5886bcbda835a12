"""A minimal undirected simple-graph container.

The network-creation games in the paper operate on graphs whose node set is
the player set and whose edges are *owned* by exactly one of their endpoints
(the player that bought them).  Ownership lives in the game layer
(:mod:`repro.core.strategies`); this class only stores the undirected
topology, because every distance-based quantity (eccentricity, status,
views, ...) depends on topology alone.

Nodes may be arbitrary hashable objects: the experimental graphs use plain
integers while the toroidal lower-bound construction of Section 3.1 uses
coordinate tuples.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

import numpy as np

Node = Hashable
Edge = tuple[Node, Node]

__all__ = ["Graph", "Node", "Edge"]


class Graph:
    """Undirected simple graph backed by a dict-of-sets adjacency structure.

    The class intentionally supports only the operations the game engine
    needs: node/edge insertion and removal, neighbourhood queries, induced
    subgraphs, copies and conversion to an index-based CSR layout for the
    NumPy-vectorised distance routines in :mod:`repro.graphs.traversal`.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(u, v)`` pairs; endpoints are added
        automatically.
    """

    __slots__ = ("_adj", "_version", "_csr_cache")

    def __init__(
        self,
        nodes: Iterable[Node] | None = None,
        edges: Iterable[Edge] | None = None,
    ) -> None:
        self._adj: dict[Node, set[Node]] = {}
        self._version: int = 0
        # (version, indptr, indices, nodes) of the last CSR export, or None.
        self._csr_cache: tuple[int, np.ndarray, np.ndarray, list[Node]] | None = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> Mapping[Node, set[Node]]:
        """Read-only view of the adjacency structure (do not mutate)."""
        return self._adj

    @property
    def version(self) -> int:
        """Monotone counter bumped by every structural mutation.

        The incremental dynamics engine (:mod:`repro.engine`) uses it to
        detect staleness of cached artefacts (views, CSR exports) without
        hashing the whole adjacency structure.
        """
        return self._version

    def nodes(self) -> list[Node]:
        """Return the nodes in insertion order."""
        return list(self._adj)

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(len(neigh) for neigh in self._adj.values()) // 2

    def edges(self) -> list[Edge]:
        """Return each undirected edge exactly once."""
        seen: set[frozenset[Node]] = set()
        result: list[Edge] = []
        for u, neighbours in self._adj.items():
            for v in neighbours:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    result.append((u, v))
        return result

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: Node) -> set[Node]:
        """Return the neighbour set of ``node`` (a copy is *not* made)."""
        return self._adj[node]

    def degree(self, node: Node) -> int:
        return len(self._adj[node])

    def degrees(self) -> dict[Node, int]:
        return {node: len(neigh) for node, neigh in self._adj.items()}

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Graph(n={self.number_of_nodes()}, m={self.number_of_edges()})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[u] == other._adj[u] for u in self._adj)

    def __hash__(self) -> int:  # Graphs are mutable; identity hash only.
        return id(self)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node not in self._adj:
            self._adj[node] = set()
            self._version += 1

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> None:
        """Insert the undirected edge ``(u, v)``; self-loops are rejected."""
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._version += 1

    def add_edges(self, edges: Iterable[Edge]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Node, v: Node) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._version += 1

    def remove_node(self, node: Node) -> None:
        if node not in self._adj:
            raise KeyError(f"node {node!r} not present")
        for neighbour in self._adj[node]:
            self._adj[neighbour].discard(node)
        del self._adj[node]
        self._version += 1

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        clone = Graph()
        clone._adj = {node: set(neigh) for node, neigh in self._adj.items()}
        return clone

    def induced_subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes`` (unknown nodes ignored).

        The node insertion order of the result is canonical (sorted by
        ``repr``), not the iteration order of ``nodes``: downstream
        tie-breaking (view subgraphs feeding the set-cover solvers) must not
        depend on how the caller happened to enumerate the node set, or the
        incremental engine could diverge from the rebuild-from-scratch path.
        """
        keep = {node for node in nodes if node in self._adj}
        sub = Graph()
        for node in sorted(keep, key=repr):
            sub.add_node(node)
        for node in keep:
            for neighbour in self._adj[node]:
                if neighbour in keep:
                    sub._adj[node].add(neighbour)
        return sub

    def without_node(self, node: Node) -> "Graph":
        """Return a copy of the graph with ``node`` (and its edges) removed."""
        clone = self.copy()
        clone.remove_node(node)
        return clone

    # ------------------------------------------------------------------
    # Index-based export (hot path for NumPy kernels)
    # ------------------------------------------------------------------
    def to_index(self) -> tuple[list[Node], dict[Node, int]]:
        """Return ``(nodes, node -> index)`` with a stable ordering."""
        nodes = self.nodes()
        return nodes, {node: i for i, node in enumerate(nodes)}

    def to_csr_arrays(self) -> tuple[np.ndarray, np.ndarray, list[Node]]:
        """Return a CSR-like flat adjacency ``(indptr, indices, nodes)``.

        ``indices[indptr[i]:indptr[i + 1]]`` lists the neighbours of the
        ``i``-th node in ``nodes``.  This is the layout consumed by the
        kernel-backed BFS in :mod:`repro.graphs.traversal`.

        The export is cached keyed by :attr:`version`, so repeated calls on
        an unchanged topology (per-round metric sweeps, kernel benchmarks)
        pay the extraction cost once; any
        structural mutation bumps the version and invalidates the cache.
        The returned arrays are therefore marked read-only and shared
        between calls; the node list is a fresh copy each time.
        """
        cached = self._csr_cache
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2], list(cached[3])
        nodes, index = self.to_index()
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        for i, node in enumerate(nodes):
            indptr[i + 1] = indptr[i] + len(self._adj[node])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        cursor = 0
        for node in nodes:
            for neighbour in self._adj[node]:
                indices[cursor] = index[neighbour]
                cursor += 1
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._csr_cache = (self._version, indptr, indices, nodes)
        return indptr, indices, list(nodes)

    def adjacency_matrix(self) -> tuple[np.ndarray, list[Node]]:
        """Return a dense boolean adjacency matrix together with node order."""
        nodes, index = self.to_index()
        n = len(nodes)
        matrix = np.zeros((n, n), dtype=bool)
        for node in nodes:
            i = index[node]
            for neighbour in self._adj[node]:
                matrix[i, index[neighbour]] = True
        return matrix, nodes

    # ------------------------------------------------------------------
    # Interchange with networkx
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to :class:`networkx.Graph` (for plotting / cross-checking)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._adj)
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        graph = cls()
        graph.add_nodes(nx_graph.nodes())
        graph.add_edges(nx_graph.edges())
        return graph

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        return cls(edges=edges)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Graph on nodes ``0..n-1`` with no edges."""
        return cls(nodes=range(n))
