"""Incremental k-neighbourhood view cache.

``extract_view`` recomputes a player's view from scratch on every call —
one bounded BFS plus one induced-subgraph build per activation, repeated
for every player in every round.  Most of that work is redundant: a
strategy change by player ``q`` can only alter the view of ``p`` when the
k-ball of ``p`` touches an endpoint of an edge that actually changed.

:class:`IncrementalViewCache` exploits exactly that. It keeps one
:class:`~repro.core.views.View` per player and, for each applied
:class:`~repro.engine.state.StrategyDelta`, invalidates only the *dirty
region*:

* for every **removed** edge, the radius-``k`` balls around its endpoints in
  the *pre-change* graph (a lost shortcut can only affect players that could
  reach an endpoint within ``k`` before the removal);
* for every **added** edge, the same balls in the *post-change* graph (a new
  shortcut only helps players that can reach an endpoint within ``k`` now);
* every target whose buyer set changed (its ``View.buyers`` is stale even
  when the topology did not move).

Everything outside the region keeps its cached ``View`` object untouched,
which also lets the engine reuse memoised best responses (a best response
is a pure function of view content and current strategy).

A view is settled by one ``view`` kernel call over the state's CSR (see
:mod:`repro.kernels` for its contract) and stored as index arrays
(:class:`repro.core.views.ArrayView`): no per-view Python graph is built,
and content equality is one array comparison.

Per-player *tokens* (bumped on invalidation) give downstream caches an O(1)
staleness test without comparing view contents.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.core.games import FULL_KNOWLEDGE
from repro.core.views import ArrayView
from repro.engine.state import NetworkState, StrategyDelta
from repro.graphs.graph import Edge, Node
from repro.graphs.traversal import bfs_distances_within
from repro.kernels import KernelBackend, resolve_backend
from repro.obs import Telemetry, get_telemetry

__all__ = ["IncrementalViewCache", "ViewStore", "DEFAULT_VIEW_STORE_CAPACITY"]

#: Default number of (state, k, player) entries a :class:`ViewStore` retains.
#: Sized to hold every player's view for a handful of distinct network
#: snapshots of sweep-scale instances; LRU eviction bounds memory beyond it.
DEFAULT_VIEW_STORE_CAPACITY = 8192


class ViewStore:
    """Cross-session LRU cache of refreshed views, shared between engines.

    Keyed by ``(state signature, k, player)`` where the signature is a
    digest of :meth:`NetworkState.canonical_key` — i.e. the full strategy
    profile, which determines topology *and* buyer sets.  Multiple
    :class:`~repro.engine.core.DynamicsEngine` sessions over the same
    instance (an α-grid, a robustness battery) hand the same store to their
    view caches and skip every view build another session already paid for
    at the same network snapshot.

    Tokens are drawn from a single store-global monotone counter, so token
    equality implies content equality *across* every engine attached to the
    store — a memoised best response recorded under a token stays valid for
    any engine that later adopts the same published view (including the
    publishing engine itself returning to an earlier snapshot).

    The store is process-local and accessed sequentially (one engine active
    at a time inside a worker); it is not thread-safe.
    """

    __slots__ = (
        "_entries",
        "_capacity",
        "_next_token",
        "_m_hits",
        "_m_misses",
        "_m_publishes",
        "_m_entries",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_VIEW_STORE_CAPACITY,
        telemetry: Telemetry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("ViewStore capacity must be >= 1")
        self._entries: OrderedDict[tuple, tuple[ArrayView, int]] = OrderedDict()
        self._capacity = capacity
        self._next_token = 1
        # Ad-hoc counters migrated onto the metrics registry: each store
        # owns private children (per-instance reads keep their meaning)
        # that mirror into the process-wide aggregate series.
        registry = (telemetry or get_telemetry()).registry
        ops = registry.counter(
            "repro_view_store_ops_total",
            help="Shared view-store lookups and publishes",
            labelnames=("op",),
        )
        self._m_hits = ops.child(op="hit")
        self._m_misses = ops.child(op="miss")
        self._m_publishes = ops.child(op="publish")
        self._m_entries = registry.gauge(
            "repro_view_store_entries",
            help="Live entries across shared view stores",
        ).child()

    @property
    def hits(self) -> int:
        return self._m_hits.value

    @property
    def misses(self) -> int:
        return self._m_misses.value

    @property
    def publishes(self) -> int:
        return self._m_publishes.value

    def __len__(self) -> int:
        return len(self._entries)

    def next_token(self) -> int:
        """A globally fresh content token (never reused within the store)."""
        token = self._next_token
        self._next_token += 1
        return token

    def get(self, signature: bytes, k: float, player: Node) -> tuple[ArrayView, int] | None:
        """Published ``(view, token)`` for a player at a network snapshot."""
        entry = self._entries.get((signature, k, player))
        if entry is None:
            self._m_misses.inc()
            return None
        self._entries.move_to_end((signature, k, player))
        self._m_hits.inc()
        return entry

    def put(self, signature: bytes, k: float, player: Node, view: ArrayView, token: int) -> None:
        """Publish a settled view under its content token (first write wins)."""
        key = (signature, k, player)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = (view, token)
        self._m_publishes.inc()
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
        self._m_entries.set(len(self._entries))

    def counters(self) -> dict[str, int]:
        return {
            "view_store_hits": self.hits,
            "view_store_misses": self.misses,
            "view_store_publishes": self.publishes,
            "view_store_entries": len(self._entries),
        }


class IncrementalViewCache:
    """Per-player views over a :class:`NetworkState`, invalidated by deltas."""

    __slots__ = (
        "_state",
        "_k",
        "_radius",
        "_views",
        "_tokens",
        "_dirty",
        "_kernel",
        "_store",
        "_sig_cache",
        "_m_views_built",
        "_m_shared_hits",
        "_span",
    )

    def __init__(
        self,
        state: NetworkState,
        k: float,
        kernel_backend: str | KernelBackend | None = None,
        store: ViewStore | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._state = state
        self._k = k
        self._radius = None if k == FULL_KNOWLEDGE else int(k)
        # Backend of the view and region kernels (bit-identical across
        # backends), resolved once for the cache's lifetime.
        self._kernel = resolve_backend(kernel_backend)
        self._views: dict[Node, ArrayView] = {}
        self._tokens: dict[Node, int] = {player: 0 for player in state.players()}
        self._dirty: set[Node] = set(state.players())
        self._store = store
        self._sig_cache: tuple[int, bytes] | None = None
        telemetry = telemetry or get_telemetry()
        views = telemetry.registry.counter(
            "repro_views_total",
            help="Per-player views settled by the incremental cache",
            labelnames=("source",),
        )
        # Views actually constructed by a kernel call in this cache —
        # store adoptions count separately.
        self._m_views_built = views.child(source="built")
        self._m_shared_hits = views.child(source="shared")
        self._span = telemetry.span

    @property
    def views_built(self) -> int:
        """Views constructed by a kernel call here — store adoptions do not count."""
        return self._m_views_built.value

    @property
    def shared_hits(self) -> int:
        """Views adopted from the shared store instead of being rebuilt."""
        return self._m_shared_hits.value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def k(self) -> float:
        return self._k

    def token(self, player: Node) -> int:
        """Monotone per-player *content* version: unchanged token ⇔ unchanged view.

        Only meaningful after the player's view has been settled by
        :meth:`get` or :meth:`refresh_dirty` — dirty players keep their old
        token until the refresh decides whether the content really moved
        (ball invalidation is conservative: a player on the rim of a dirty
        region often sees nothing change, and her memoised best response
        stays valid).
        """
        return self._tokens[player]

    def is_dirty(self, player: Node) -> bool:
        return player in self._dirty

    def get(self, player: Node) -> ArrayView:
        """Return the current view of ``player``, refreshing it if stale."""
        view = self._views.get(player)
        if view is None or player in self._dirty:
            self._install(player, self._build(player))
            view = self._views[player]
        return view

    def _install(self, player: Node, view: ArrayView) -> None:
        """Store a freshly built view, bumping the token only on real change."""
        old = self._views.get(player)
        if old is None or not old.same_arrays(view):
            self._views[player] = view
            # With a shared store attached every token must stay globally
            # unique (token equality ⇒ content equality across engines), so
            # fresh tokens come from the store counter instead of a local
            # per-player bump.
            if self._store is not None:
                self._tokens[player] = self._store.next_token()
            else:
                self._tokens[player] += 1
        self._dirty.discard(player)

    def _install_shared(self, player: Node, view: ArrayView, token: int) -> None:
        """Adopt a store-published view, carrying its published token.

        When the current content already equals the published view the old
        local token is kept (it maps to the same content under the store's
        global counter), so memoised best responses survive; otherwise the
        published token is adopted, resurrecting any memo this engine
        recorded the last time it sat at this snapshot.
        """
        old = self._views.get(player)
        if old is None or not old.same_arrays(view):
            self._views[player] = view
            self._tokens[player] = token
        self._dirty.discard(player)

    def _state_signature(self) -> bytes:
        """Digest of the full canonical state, memoised by state revision."""
        revision = self._state.revision
        cached = self._sig_cache
        if cached is not None and cached[0] == revision:
            return cached[1]
        payload = repr(self._state.canonical_key()).encode("utf-8")
        signature = hashlib.sha256(payload).digest()
        self._sig_cache = (revision, signature)
        return signature

    # ------------------------------------------------------------------
    # Bulk refresh
    # ------------------------------------------------------------------
    def refresh_dirty(self) -> int:
        """Settle every stale view; used at engine start-up (everything is
        dirty) and by schedulers that need all views at once.

        Returns the number of views settled: adopted from the shared
        :class:`ViewStore` when one is attached and a sibling session
        already settled it at this exact network snapshot, else built by
        one ``view`` kernel call each — the same path as :meth:`get` — and
        published to the store.
        """
        dirty = [p for p in self._state.players() if p in self._dirty or p not in self._views]
        if not dirty:
            return 0
        with self._span("views.refresh_dirty", dirty=len(dirty)) as span:
            return self._refresh_dirty(dirty, span)

    def _refresh_dirty(self, dirty: list[Node], span) -> int:
        settled = len(dirty)
        store = self._store
        if store is not None:
            # Adopt everything a sibling session already settled at this
            # exact network snapshot; only the remainder pays for a build.
            signature = self._state_signature()
            remaining: list[Node] = []
            for player in dirty:
                entry = store.get(signature, self._k, player)
                if entry is None:
                    remaining.append(player)
                else:
                    self._install_shared(player, entry[0], entry[1])
                    self._m_shared_hits.inc()
            span.set(adopted=settled - len(remaining))
            dirty = remaining
        for player in dirty:
            self._install(player, self._build(player))
            if store is not None:
                store.put(signature, self._k, player, self._views[player], self._tokens[player])
        span.set(built=len(dirty))
        return settled

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def region_before_apply(self, delta: StrategyDelta) -> set[Node]:
        """Players whose view may change due to ``delta``'s removed edges.

        Must be called *before* the delta is applied: the balls are taken in
        the pre-change graph, where the vanishing shortcuts still exist.
        """
        if not delta.removed_edges:
            return set()
        return self._region(delta.removed_edges)

    def region_after_apply(self, delta: StrategyDelta) -> set[Node]:
        """Players whose view may change due to ``delta``'s added edges.

        Must be called *after* the delta is applied (balls in the new graph,
        where the new shortcuts are live), plus the buyer-set changes which
        are topology-independent.
        """
        region: set[Node] = set(delta.buyer_changes)
        if delta.added_edges:
            region |= self._region(delta.added_edges)
        return region

    def _region(self, edges: tuple[Edge, ...]) -> set[Node]:
        """The union of the radius-``k`` balls around the endpoints of
        ``edges`` in the current network.

        A dict BFS on the live graph: it costs O(ball), while a ``bfs``
        kernel call pays a fixed dispatch cost (about 25 µs on a 2-vCPU
        host) and an O(n) distance row per endpoint — several times the
        ball on the small radii the game uses.
        """
        if self._radius is None:
            return set(self._state.players())
        graph = self._state.graph
        region: set[Node] = set()
        for node in {node for edge in edges for node in edge}:
            region.update(bfs_distances_within(graph, node, self._radius))
        return region

    def invalidate(self, players: set[Node]) -> None:
        """Mark views stale.  Tokens are *not* bumped here: the next refresh
        compares content and only moves the token on a real change, so
        memoised best responses survive conservative over-invalidation."""
        self._dirty.update(players)

    # ------------------------------------------------------------------
    # View construction (content-identical to ``extract_view``)
    # ------------------------------------------------------------------
    def _build(self, player: Node) -> ArrayView:
        """One ``view`` kernel call over the state CSR, plus the buyer rows."""
        self._m_views_built.inc()
        state = self._state
        index = state.index
        indptr, indices = state.csr()
        nodes, dist, sub_indptr, sub_indices = self._kernel.view(
            indptr, indices, index[player], self._radius
        )
        # Buyers sit at distance 1, so they are always visible.
        buyers = sorted(map(index.__getitem__, state.buyers_of(player)))
        forced = np.searchsorted(nodes, np.array(buyers, dtype=np.int64))
        return ArrayView(
            player, self._k, state.order, nodes, dist, sub_indptr, sub_indices, forced
        )
