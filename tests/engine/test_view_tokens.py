"""Token semantics of the array-backed view cache.

:class:`~repro.engine.views.IncrementalViewCache` settles every view with
one ``view`` kernel call over the state's CSR and compares contents as
arrays.  :class:`DictViewCache` below is a frozen copy of the dict-based
cache it replaced (per-view dict BFS, induced subgraphs, dict-BFS balls
for the dirty regions).  Driving both through the same random strategy
changes must give the same dirty regions and the same token after every
step — ownership flips, double-bought edges and disconnecting moves
included, with and without a shared :class:`~repro.engine.views.ViewStore`
— and every materialised view and cover context must equal the reference
path's (:func:`~repro.core.views.extract_view` and the ``without_node``
context).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import max_cover_context
from repro.core.games import FULL_KNOWLEDGE
from repro.core.strategies import StrategyProfile
from repro.core.views import View, extract_view
from repro.engine.state import NetworkState
from repro.engine.views import IncrementalViewCache, ViewStore
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.torus import TorusParameters, stretched_torus
from repro.graphs.generators.trees import random_owned_tree
from repro.graphs.traversal import bfs_distances, bfs_distances_within
from repro.kernels import available_backends

KS = (1, 2, 3, FULL_KNOWLEDGE)


def dict_views_equal(a: View, b: View) -> bool:
    return (
        a.distances == b.distances
        and a.frontier == b.frontier
        and a.buyers == b.buyers
        and a.subgraph == b.subgraph
    )


class DictViewCache:
    """Frozen copy of the dict-based view cache (tokens, store, regions)."""

    def __init__(self, state: NetworkState, k: float, store: ViewStore | None = None):
        self._state = state
        self._k = k
        self._store = store
        self._views: dict = {}
        self._tokens = {player: 0 for player in state.players()}
        self._dirty = set(state.players())
        self.views_built = 0

    def token(self, player):
        return self._tokens[player]

    def get(self, player) -> View:
        if player in self._dirty or player not in self._views:
            self._install(player, self._build(player))
        return self._views[player]

    def _install(self, player, view: View) -> None:
        old = self._views.get(player)
        if old is None or not dict_views_equal(old, view):
            self._views[player] = view
            if self._store is not None:
                self._tokens[player] = self._store.next_token()
            else:
                self._tokens[player] += 1
        self._dirty.discard(player)

    def _install_shared(self, player, view: View, token: int) -> None:
        old = self._views.get(player)
        if old is None or not dict_views_equal(old, view):
            self._views[player] = view
            self._tokens[player] = token
        self._dirty.discard(player)

    def refresh_dirty(self) -> int:
        dirty = [p for p in self._state.players() if p in self._dirty or p not in self._views]
        if not dirty:
            return 0
        settled = len(dirty)
        if self._store is not None:
            payload = repr(self._state.canonical_key()).encode("utf-8")
            signature = hashlib.sha256(payload).digest()
            remaining = []
            for player in dirty:
                entry = self._store.get(signature, self._k, player)
                if entry is None:
                    remaining.append(player)
                else:
                    self._install_shared(player, entry[0], entry[1])
            dirty = remaining
        for player in dirty:
            self._install(player, self._build(player))
            if self._store is not None:
                self._store.put(
                    signature, self._k, player, self._views[player], self._tokens[player]
                )
        return settled

    def _build(self, player) -> View:
        self.views_built += 1
        graph = self._state.graph
        if self._k == FULL_KNOWLEDGE:
            distances = bfs_distances(graph, player)
            frontier: set = set()
            visible = set(graph.nodes())
        else:
            radius = int(self._k)
            distances = bfs_distances_within(graph, player, radius)
            frontier = {node for node, d in distances.items() if d == radius}
            visible = set(distances)
        return View(
            player=player,
            k=self._k,
            subgraph=graph.induced_subgraph(visible),
            distances=dict(distances),
            frontier=frontier,
            buyers={b for b in self._state.buyers_of(player) if b in visible},
        )

    def _balls(self, edges) -> set:
        graph = self._state.graph
        region: set = set()
        for u, v in edges:
            region |= set(bfs_distances_within(graph, u, int(self._k)))
            region |= set(bfs_distances_within(graph, v, int(self._k)))
        return region

    def region_before_apply(self, delta) -> set:
        if not delta.removed_edges:
            return set()
        if self._k == FULL_KNOWLEDGE:
            return set(self._state.players())
        return self._balls(delta.removed_edges)

    def region_after_apply(self, delta) -> set:
        region = set(delta.buyer_changes)
        if delta.added_edges:
            if self._k == FULL_KNOWLEDGE:
                return set(self._state.players())
            region |= self._balls(delta.added_edges)
        return region

    def invalidate(self, players) -> None:
        self._dirty.update(players)


def instance(kind: str, seed: int) -> StrategyProfile:
    if kind == "tree":
        owned = random_owned_tree(12, seed=seed)
    elif kind == "gnp":
        owned = owned_connected_gnp_graph(12, 0.3, seed=seed)
    else:  # tuple nodes
        owned = stretched_torus(TorusParameters(stretch=2, deltas=(2, 2)))
    return StrategyProfile.from_owned_graph(owned)


def next_strategy(state: NetworkState, rng: random.Random):
    """A random move: rewire, ownership flip, double-buy or disconnect."""
    players = state.players()
    player = rng.choice(players)
    current = state.strategy(player)
    buyers = state.buyers_of(player)
    kind = rng.choice(["rewire", "double", "undouble", "flip", "empty"])
    if kind == "double" and buyers - current:
        # Buy an edge the other endpoint already owns: ownership only.
        return player, current | {rng.choice(sorted(buyers - current, key=repr))}
    if kind == "undouble" and buyers & current:
        return player, current - {rng.choice(sorted(buyers & current, key=repr))}
    if kind == "flip" and current:
        # Hand one owned edge to its other endpoint (two moves, same topology).
        target = rng.choice(sorted(current, key=repr))
        return [(target, state.strategy(target) | {player}), (player, current - {target})]
    if kind == "empty":
        return player, frozenset()
    others = [p for p in players if p != player]
    return player, frozenset(rng.sample(others, rng.randint(0, 3)))


class Session:
    """One array cache and one frozen dict cache over one shared state."""

    def __init__(self, profile, k, stores):
        self.state = NetworkState.from_profile(profile)
        self.array = IncrementalViewCache(self.state, k, store=stores[0])
        self.frozen = DictViewCache(self.state, k, store=stores[1])

    def move(self, player, strategy) -> None:
        delta = self.state.preview(player, frozenset(strategy))
        before = self.array.region_before_apply(delta)
        assert before == self.frozen.region_before_apply(delta)
        self.state.apply(delta)
        after = self.array.region_after_apply(delta)
        assert after == self.frozen.region_after_apply(delta)
        for cache in (self.array, self.frozen):
            cache.invalidate(before | after)

    def settle(self, rng: random.Random) -> None:
        if rng.random() < 0.4:
            assert self.array.refresh_dirty() == self.frozen.refresh_dirty()
        else:
            players = self.state.players()
            for player in rng.sample(players, rng.randint(1, len(players))):
                self.array.get(player)
                self.frozen.get(player)
        for player in self.state.players():
            assert self.array.token(player) == self.frozen.token(player), player

    def check_content(self, backend: str) -> None:
        profile = self.state.to_profile()
        k = self.array.k
        for player in self.state.players():
            view = self.array.get(player)
            self.frozen.get(player)
            reference = extract_view(profile, player, k)
            assert dict_views_equal(view, reference), player
            assert view.size == reference.size
            assert view.strategy_space == reference.strategy_space
            got = max_cover_context(view, backend=backend)
            want = max_cover_context(reference, backend="numpy")
            assert got.order == want.order
            assert got.index == want.index
            assert got.forced == want.forced
            assert np.array_equal(got.dist, want.dist)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("kind", ["tree", "gnp", "torus"])
@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(1, 12))
@settings(max_examples=12, deadline=None)
def test_tokens_and_content_match_dict_cache(k, kind, seed, steps):
    rng = random.Random(seed)
    session = Session(instance(kind, seed), k, (None, None))
    session.settle(rng)
    for _ in range(steps):
        moves = next_strategy(session.state, rng)
        for player, strategy in moves if isinstance(moves, list) else [moves]:
            session.move(player, strategy)
        session.settle(rng)
    session.check_content(rng.choice(available_backends()))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("kind", ["tree", "torus"])
@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_shared_store_tokens_match_dict_cache(k, kind, seed, steps):
    """Two sessions per store replay one move sequence: the second adopts
    the first's published views, with the same tokens on both sides."""
    profile = instance(kind, seed)
    array_store, frozen_store = ViewStore(), ViewStore()
    sessions = [Session(profile, k, (array_store, frozen_store)) for _ in range(2)]
    rng = random.Random(seed)
    scratch = NetworkState.from_profile(profile)
    moves = []
    for _ in range(steps):
        step = next_strategy(scratch, rng)
        moves.append(step if isinstance(step, list) else [step])
        for player, strategy in moves[-1]:
            scratch.set_strategy(player, frozenset(strategy))
    for session in sessions:
        replay = random.Random(seed + 1)
        # Start-up refresh, as in the engine: the second session adopts.
        assert session.array.refresh_dirty() == session.frozen.refresh_dirty()
        session.settle(replay)
        for step in moves:
            for player, strategy in step:
                session.move(player, strategy)
            session.settle(replay)
        assert session.array.views_built == session.frozen.views_built
    assert array_store.counters() == frozen_store.counters()
    assert array_store.hits > 0
    sessions[1].check_content("numpy")
