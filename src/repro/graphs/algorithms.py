"""Structural graph algorithms beyond plain traversal.

The experimental harness and the extension studies need a handful of
classical graph routines that the traversal module does not cover:
cut structure (bridges, articulation points), centrality (centers,
medians, betweenness), BFS trees (the backbone of the traceroute-style
view models in :mod:`repro.discovery`), spanning trees, and bipartiteness.
Everything is written from scratch on top of :class:`repro.graphs.graph.Graph`
so the library has no runtime dependency on :mod:`networkx`; the test suite
cross-validates each routine against networkx on random instances.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.graphs.graph import Edge, Graph, Node
from repro.graphs.properties import eccentricities, statuses
from repro.graphs.traversal import bfs_distances, is_connected

__all__ = [
    "bfs_tree",
    "bfs_layers",
    "bridges",
    "articulation_points",
    "biconnected_component_count",
    "graph_center",
    "graph_periphery",
    "graph_median",
    "betweenness_centrality",
    "spanning_tree",
    "is_bipartite",
    "bipartition",
    "degeneracy_ordering",
]


# ----------------------------------------------------------------------
# BFS-derived structures
# ----------------------------------------------------------------------
def bfs_tree(graph: Graph, source: Node) -> dict[Node, Node | None]:
    """Return a BFS tree rooted at ``source`` as a ``child -> parent`` map.

    The root maps to ``None``.  Only the connected component of ``source``
    appears in the result.  Ties between possible parents are broken by the
    adjacency iteration order, which is the node insertion order of the
    graph, so the tree is deterministic for a deterministically built graph.
    """
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    parent: dict[Node, Node | None] = {source: None}
    queue: deque[Node] = deque([source])
    while queue:
        node = queue.popleft()
        for neighbour in graph.neighbors(node):
            if neighbour not in parent:
                parent[neighbour] = node
                queue.append(neighbour)
    return parent


def bfs_layers(graph: Graph, source: Node) -> list[set[Node]]:
    """Return the BFS layers ``[L_0, L_1, ...]`` around ``source``.

    ``L_i`` is the set of nodes at distance exactly ``i``; the union of the
    layers is the connected component of ``source``.
    """
    distances = bfs_distances(graph, source)
    if not distances:
        return []
    radius = max(distances.values())
    layers: list[set[Node]] = [set() for _ in range(radius + 1)]
    for node, dist in distances.items():
        layers[dist].add(node)
    return layers


# ----------------------------------------------------------------------
# Cut structure (iterative Tarjan low-link computations)
# ----------------------------------------------------------------------
def _dfs_lowlinks(graph: Graph) -> tuple[dict[Node, int], dict[Node, int], dict[Node, Node | None], list[Node]]:
    """Iterative DFS computing discovery indices and low-links.

    Returns ``(disc, low, parent, order)`` where ``order`` lists the nodes in
    the order they were discovered.  Works on disconnected graphs.
    """
    disc: dict[Node, int] = {}
    low: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}
    order: list[Node] = []
    counter = 0

    for root in graph.nodes():
        if root in disc:
            continue
        parent[root] = None
        # Each stack frame is (node, iterator over neighbours).
        stack: list[tuple[Node, Iterable[Node]]] = [(root, iter(list(graph.neighbors(root))))]
        disc[root] = low[root] = counter
        counter += 1
        order.append(root)
        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour not in disc:
                    parent[neighbour] = node
                    disc[neighbour] = low[neighbour] = counter
                    counter += 1
                    order.append(neighbour)
                    stack.append((neighbour, iter(list(graph.neighbors(neighbour)))))
                    advanced = True
                    break
                if neighbour != parent[node]:
                    low[node] = min(low[node], disc[neighbour])
            if not advanced:
                stack.pop()
                if stack:
                    parent_node = stack[-1][0]
                    low[parent_node] = min(low[parent_node], low[node])
    return disc, low, parent, order


def bridges(graph: Graph) -> list[Edge]:
    """Return the bridges (cut edges) of the graph.

    An edge is a bridge when removing it disconnects its endpoints.  In the
    network-creation setting every bought bridge is "safe" for its owner in
    the sense that dropping it always disconnects the network (infinite usage
    cost), which is why equilibrium graphs are frequently bridge-rich.
    """
    disc, low, parent, order = _dfs_lowlinks(graph)
    result: list[Edge] = []
    for node in order:
        p = parent.get(node)
        if p is not None and low[node] > disc[p]:
            result.append((p, node))
    return result


def articulation_points(graph: Graph) -> set[Node]:
    """Return the articulation points (cut vertices) of the graph."""
    disc, low, parent, order = _dfs_lowlinks(graph)
    children: dict[Node, int] = {node: 0 for node in graph}
    cut: set[Node] = set()
    for node in order:
        p = parent.get(node)
        if p is None:
            continue
        children[p] += 1
        if parent.get(p) is None:
            # Root rule handled after the loop (needs the child count).
            continue
        if low[node] >= disc[p]:
            cut.add(p)
    for node in order:
        if parent.get(node) is None and children[node] >= 2:
            cut.add(node)
    return cut


def biconnected_component_count(graph: Graph) -> int:
    """Number of biconnected components (blocks) of the graph.

    Counted as the number of maximal bridge-free blocks plus one block per
    bridge; isolated vertices contribute no block.  Used by the robustness
    metrics of the extension experiments.
    """
    # Each bridge is its own block.  The remaining blocks are the connected
    # components of the graph obtained by removing all bridges, restricted to
    # components that still contain at least one edge.
    bridge_set = {frozenset(edge) for edge in bridges(graph)}
    stripped = graph.copy()
    for edge in bridge_set:
        u, v = tuple(edge)
        stripped.remove_edge(u, v)
    blocks = 0
    seen: set[Node] = set()
    for node in stripped.nodes():
        if node in seen:
            continue
        component = _component_of(stripped, node)
        seen.update(component)
        edges_inside = sum(len(stripped.neighbors(x)) for x in component) // 2
        if edges_inside > 0:
            blocks += 1
    return blocks + len(bridge_set)


def _component_of(graph: Graph, source: Node) -> set[Node]:
    return set(bfs_distances(graph, source))


# ----------------------------------------------------------------------
# Centrality
# ----------------------------------------------------------------------
def graph_center(graph: Graph) -> set[Node]:
    """Return the center: nodes whose eccentricity equals the radius.

    Raises :class:`ValueError` on disconnected graphs (eccentricities are
    infinite and the center is not meaningful).
    """
    if graph.number_of_nodes() == 0:
        return set()
    if not is_connected(graph):
        raise ValueError("center is undefined for a disconnected graph")
    ecc = eccentricities(graph)
    radius = min(ecc.values())
    return {node for node, value in ecc.items() if value == radius}


def graph_periphery(graph: Graph) -> set[Node]:
    """Return the periphery: nodes whose eccentricity equals the diameter."""
    if graph.number_of_nodes() == 0:
        return set()
    if not is_connected(graph):
        raise ValueError("periphery is undefined for a disconnected graph")
    ecc = eccentricities(graph)
    diameter = max(ecc.values())
    return {node for node, value in ecc.items() if value == diameter}


def graph_median(graph: Graph) -> set[Node]:
    """Return the median: nodes of minimum status (sum of distances).

    The median is the natural target set of a SumNCG player buying a single
    edge (the paper's Theorem 4.3 argument relies on neighbours being medians
    of their subtrees).
    """
    if graph.number_of_nodes() == 0:
        return set()
    if not is_connected(graph):
        raise ValueError("median is undefined for a disconnected graph")
    status_map = statuses(graph)
    best = min(status_map.values())
    return {node for node, value in status_map.items() if value == best}


def betweenness_centrality(graph: Graph, normalized: bool = True) -> dict[Node, float]:
    """Brandes' exact betweenness centrality for unweighted graphs.

    Used only by the extension experiments to describe the hub structure of
    stable networks (the paper's Figure 8 only looks at degrees); the
    implementation is the standard single-source accumulation, O(n·m).
    """
    centrality: dict[Node, float] = {node: 0.0 for node in graph}
    nodes = graph.nodes()
    for source in nodes:
        # Single-source shortest-path counting (BFS since unweighted).
        stack: list[Node] = []
        predecessors: dict[Node, list[Node]] = {node: [] for node in nodes}
        sigma: dict[Node, float] = {node: 0.0 for node in nodes}
        sigma[source] = 1.0
        dist: dict[Node, int] = {source: 0}
        queue: deque[Node] = deque([source])
        while queue:
            node = queue.popleft()
            stack.append(node)
            for neighbour in graph.neighbors(node):
                if neighbour not in dist:
                    dist[neighbour] = dist[node] + 1
                    queue.append(neighbour)
                if dist[neighbour] == dist[node] + 1:
                    sigma[neighbour] += sigma[node]
                    predecessors[neighbour].append(node)
        delta: dict[Node, float] = {node: 0.0 for node in nodes}
        while stack:
            node = stack.pop()
            for pred in predecessors[node]:
                delta[pred] += (sigma[pred] / sigma[node]) * (1.0 + delta[node])
            if node != source:
                centrality[node] += delta[node]
    # Undirected graphs count each pair twice.
    for node in centrality:
        centrality[node] /= 2.0
    n = graph.number_of_nodes()
    if normalized and n > 2:
        scale = 1.0 / ((n - 1) * (n - 2) / 2.0)
        for node in centrality:
            centrality[node] *= scale
    return centrality


# ----------------------------------------------------------------------
# Spanning structure, bipartiteness, independent sets
# ----------------------------------------------------------------------
def spanning_tree(graph: Graph) -> Graph:
    """Return a BFS spanning tree (as a new :class:`Graph`).

    Raises :class:`ValueError` when the graph is disconnected or empty —
    a spanning tree of the whole node set does not exist in that case.
    """
    nodes = graph.nodes()
    if not nodes:
        raise ValueError("spanning tree of the empty graph is undefined")
    root = nodes[0]
    parent = bfs_tree(graph, root)
    if len(parent) != len(nodes):
        raise ValueError("graph is disconnected; no spanning tree exists")
    tree = Graph(nodes=nodes)
    for child, par in parent.items():
        if par is not None:
            tree.add_edge(par, child)
    return tree


def is_bipartite(graph: Graph) -> bool:
    """Whether the graph is 2-colourable."""
    return bipartition(graph) is not None


def bipartition(graph: Graph) -> tuple[set[Node], set[Node]] | None:
    """Return a 2-colouring ``(side_a, side_b)`` or ``None`` if not bipartite.

    Works on disconnected graphs (each component is coloured independently;
    isolated vertices land on side ``a``).
    """
    colour: dict[Node, int] = {}
    for root in graph.nodes():
        if root in colour:
            continue
        colour[root] = 0
        queue: deque[Node] = deque([root])
        while queue:
            node = queue.popleft()
            for neighbour in graph.neighbors(node):
                if neighbour not in colour:
                    colour[neighbour] = 1 - colour[node]
                    queue.append(neighbour)
                elif colour[neighbour] == colour[node]:
                    return None
    side_a = {node for node, c in colour.items() if c == 0}
    side_b = {node for node, c in colour.items() if c == 1}
    return side_a, side_b


def degeneracy_ordering(graph: Graph) -> list[Node]:
    """Return a degeneracy ordering (repeatedly remove a minimum-degree node).

    The list is in removal order, so the *last* nodes are the densest core.
    Deterministic: ties are broken by ``repr`` of the node label.
    """
    remaining = graph.copy()
    order: list[Node] = []
    while remaining.number_of_nodes() > 0:
        node = min(remaining.nodes(), key=lambda x: (remaining.degree(x), repr(x)))
        order.append(node)
        remaining.remove_node(node)
    return order
