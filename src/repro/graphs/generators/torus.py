"""The stretched toroidal grid construction of Section 3.1.

This is the paper's main lower-bound gadget for MaxNCG (Theorem 3.12) and,
with ``d = 2`` and ``ℓ = 2``, for SumNCG (Lemma 4.1 / Theorem 4.2).  It
generalises the 2-dimensional torus of Alon et al. in three ways:

1. the number of dimensions is a parameter ``d >= 2``;
2. the dimension lengths ``δ_1, ..., δ_d`` need not be equal (a
   hyper-rectangle rather than a hyper-cube), which is what produces the
   large diameter; and
3. every edge is "stretched" into a path of length ``ℓ`` whose ``ℓ - 1``
   interior vertices ("non-intersection vertices") own all the edges of the
   graph, which is what makes edge deletions unprofitable for large ``α``.

Vertices are named by their coordinate tuples; the ``i``-th coordinate is
read modulo ``2 δ_i ℓ``.  Intersection vertices are the tuples
``(ℓ a_1, ..., ℓ a_d)`` with all ``a_i`` of the same parity; each is joined to
the ``2^d`` intersection vertices ``(x_1 ± ℓ, ..., x_d ± ℓ)`` by a path of
length ``ℓ``.

The module also provides the "open" (non-wrapping) variant used in the
paper's distance arguments (Lemma 3.5) and helpers that pick the parameters
exactly as Theorem 3.12 and Lemma 4.1 prescribe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.graphs.generators.base import OwnedGraph
from repro.graphs.graph import Graph

__all__ = [
    "TorusParameters",
    "stretched_torus",
    "open_stretched_torus",
    "torus_parameters_for_theorem_3_12",
    "torus_parameters_for_lemma_4_1",
]

Coordinate = tuple[int, ...]


@dataclass(frozen=True)
class TorusParameters:
    """Parameters of the stretched toroidal grid.

    Attributes
    ----------
    stretch:
        ``ℓ >= 1``, the length of the path replacing each grid edge.
    deltas:
        The dimension lengths ``(δ_1, ..., δ_d)``; the number of dimensions
        is ``len(deltas)`` and every ``δ_i`` must be at least 2 so that the
        ``± ℓ`` neighbours are distinct.
    """

    stretch: int
    deltas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.stretch < 1:
            raise ValueError("stretch (ℓ) must be at least 1")
        if len(self.deltas) < 2:
            raise ValueError("the construction needs at least d = 2 dimensions")
        if any(delta < 2 for delta in self.deltas):
            raise ValueError("every δ_i must be at least 2")

    @property
    def dimensions(self) -> int:
        return len(self.deltas)

    @property
    def num_intersection_vertices(self) -> int:
        """``N = 2 ∏_i δ_i`` (one copy per coordinate parity class)."""
        return 2 * math.prod(self.deltas)

    @property
    def num_vertices(self) -> int:
        """``n = N (2^{d-1} (ℓ - 1) + 1)`` (paper, proof of Theorem 3.12)."""
        d = self.dimensions
        return self.num_intersection_vertices * (2 ** (d - 1) * (self.stretch - 1) + 1)

    @property
    def k_star(self) -> int:
        """The reference coordinate ``k* = ℓ (δ_1 - 1)`` used in the proofs."""
        return self.stretch * (self.deltas[0] - 1)

    @property
    def diameter_lower_bound(self) -> int:
        """``ℓ δ_d``, the diameter lower bound of Corollary 3.4."""
        return self.stretch * self.deltas[-1]

    def modulus(self, axis: int) -> int:
        """The modulus ``2 δ_i ℓ`` of the ``axis``-th coordinate."""
        return 2 * self.deltas[axis] * self.stretch


def _intersection_vertices(params: TorusParameters) -> list[Coordinate]:
    """Enumerate the intersection vertices (same-parity coordinate tuples)."""
    stretch = params.stretch
    vertices: list[Coordinate] = []
    for parity in (0, 1):
        ranges = [
            [stretch * a for a in range(parity, 2 * delta, 2)] for delta in params.deltas
        ]
        vertices.extend(itertools.product(*ranges))
    return vertices


def stretched_torus(params: TorusParameters) -> OwnedGraph:
    """Build the closed (toroidal) construction with the paper's ownership.

    Non-intersection vertices own every edge: walking a path
    ``u = x_0, x_1, ..., x_ℓ = u'`` between two intersection vertices, each
    interior vertex ``x_i`` (``1 <= i <= ℓ - 1``) buys the edge towards
    ``x_{i-1}`` and ``x_{ℓ-1}`` additionally buys the edge towards ``u'``.
    Intersection vertices buy no edges.  For ``ℓ = 1`` there are no interior
    vertices; the edge is then assigned to its lexicographically smaller
    endpoint (an extension of the paper, which always uses ``ℓ = Θ(α) >= 2``
    in the stretched regime).
    """
    stretch = params.stretch
    d = params.dimensions
    moduli = [params.modulus(axis) for axis in range(d)]
    graph = Graph()
    ownership: dict[Coordinate, set[Coordinate]] = {}

    intersections = _intersection_vertices(params)
    intersection_set = set(intersections)
    for vertex in intersections:
        graph.add_node(vertex)
        ownership[vertex] = set()

    seen_pairs: set[frozenset[Coordinate]] = set()
    for origin in intersections:
        for signs in itertools.product((-1, 1), repeat=d):
            target = tuple(
                (origin[axis] + signs[axis] * stretch) % moduli[axis] for axis in range(d)
            )
            pair = frozenset((origin, target))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            path: list[Coordinate] = [origin]
            for step in range(1, stretch):
                path.append(
                    tuple(
                        (origin[axis] + signs[axis] * step) % moduli[axis]
                        for axis in range(d)
                    )
                )
            path.append(target)
            for node in path[1:-1]:
                graph.add_node(node)
                ownership.setdefault(node, set())
            for left, right in zip(path, path[1:]):
                graph.add_edge(left, right)
            if stretch == 1:
                small = min(origin, target)
                large = target if small == origin else origin
                ownership[small].add(large)
            else:
                for i in range(1, stretch):
                    ownership[path[i]].add(path[i - 1])
                ownership[path[stretch - 1]].add(path[stretch])

    expected = params.num_vertices
    if graph.number_of_nodes() != expected:
        raise RuntimeError(
            "torus construction is inconsistent: built "
            f"{graph.number_of_nodes()} vertices, expected {expected}; "
            f"parameters {params!r}"
        )
    return OwnedGraph(
        graph=graph,
        ownership=ownership,
        metadata={
            "family": "stretched_torus",
            "params": params,
            "intersection_vertices": intersection_set,
            "k_star": params.k_star,
            "diameter_lower_bound": params.diameter_lower_bound,
        },
    )


def open_stretched_torus(params: TorusParameters) -> Graph:
    """Build the "open" (non-wrapping) variant used in Lemma 3.5.

    Coordinates are not reduced modulo anything; intersection vertices are
    the same-parity tuples ``(ℓ a_1, ..., ℓ a_d)`` with ``0 <= a_i <= 2 δ_i - 1``
    and two of them are joined (by a stretched path) only when every
    coordinate differs by exactly ``ℓ`` without wrapping.
    """
    stretch = params.stretch
    d = params.dimensions
    limits = [stretch * (2 * delta - 1) for delta in params.deltas]
    graph = Graph()
    intersections = _intersection_vertices(params)
    for vertex in intersections:
        graph.add_node(vertex)
    intersection_set = set(intersections)
    for origin in intersections:
        for signs in itertools.product((-1, 1), repeat=d):
            target = tuple(origin[axis] + signs[axis] * stretch for axis in range(d))
            if any(target[axis] < 0 or target[axis] > limits[axis] for axis in range(d)):
                continue
            if target not in intersection_set:
                continue
            path: list[Coordinate] = [origin]
            for step in range(1, stretch):
                path.append(
                    tuple(origin[axis] + signs[axis] * step for axis in range(d))
                )
            path.append(target)
            for left, right in zip(path, path[1:]):
                graph.add_edge(left, right)
    return graph


def torus_parameters_for_theorem_3_12(alpha: float, k: int, n_target: int) -> TorusParameters:
    """Pick the construction parameters exactly as in Theorem 3.12.

    ``ℓ = ⌈α⌉``, ``d = ⌈log2(k/ℓ + 2)⌉`` and
    ``δ_1 = ... = δ_{d-1} = ⌈k/ℓ⌉ + 1``; the last dimension ``δ_d >= δ_1`` is
    chosen as large as possible so that the total number of vertices does not
    exceed ``n_target``.

    Raises
    ------
    ValueError
        If the requested ``(α, k, n_target)`` triple cannot satisfy
        ``δ_d >= δ_1`` (the theorem's requirement ``k <= 2^{√(log n) - 3}``
        is the asymptotic version of this condition).
    """
    if not alpha > 1:
        raise ValueError("Theorem 3.12 requires α > 1")
    if k < alpha:
        raise ValueError("Theorem 3.12 requires α <= k")
    stretch = math.ceil(alpha)
    d = max(2, math.ceil(math.log2(k / stretch + 2)))
    delta_small = math.ceil(k / stretch) + 1
    per_unit = 2 * delta_small ** (d - 1) * (2 ** (d - 1) * (stretch - 1) + 1)
    delta_last = n_target // per_unit
    if delta_last < delta_small:
        raise ValueError(
            "n_target too small for the requested (α, k): need at least "
            f"{per_unit * delta_small} vertices, got n_target={n_target}"
        )
    deltas = (delta_small,) * (d - 1) + (delta_last,)
    return TorusParameters(stretch=stretch, deltas=deltas)


def torus_parameters_for_lemma_4_1(k: int, n_target: int) -> TorusParameters:
    """Pick the SumNCG parameters of Lemma 4.1: ``d = 2``, ``ℓ = 2``.

    ``δ_1 = ⌈k/2⌉ + 1`` and ``δ_2 >= δ_1`` chosen from ``n_target`` using
    ``n = 6 δ_1 δ_2``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    delta_1 = math.ceil(k / 2) + 1
    delta_2 = n_target // (6 * delta_1)
    if delta_2 < delta_1:
        raise ValueError(
            "n_target too small for the requested k: Lemma 4.1 needs "
            f"k <= sqrt(2 n / 3) - 4 (approximately); got k={k}, n_target={n_target}"
        )
    return TorusParameters(stretch=2, deltas=(delta_1, delta_2))
