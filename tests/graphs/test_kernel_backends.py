"""Equivalence and registry tests for the pluggable kernel backends.

The contract under test (see :mod:`repro.kernels`): every available
backend's BFS kernel is *bit-identical* to the numpy reference and to the
naive per-source dict BFS — same distances, same ``UNREACHABLE`` marks,
same radius truncation — and the selection chain (explicit argument >
session override > ``REPRO_KERNEL_BACKEND`` > auto-detect) resolves
exactly as documented, with unknown names failing loudly and unavailable
backends falling back to numpy silently.
"""

from __future__ import annotations

import multiprocessing
import random
import shutil
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.experiments.runner import RunSpec
from repro.graphs.generators.erdos_renyi import gnp_random_graph
from repro.graphs.generators.smallworld import owned_barabasi_albert
from repro.graphs.generators.trees import random_tree
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    batched_bfs_distances,
    bfs_distances,
    bfs_distances_within,
    reduce_bfs_distances,
)
from repro.kernels import (
    ENV_VAR,
    KernelBackend,
    KernelUnavailableError,
    available_backends,
    get_backend,
    native_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.kernels.common import UNREACHABLE
from repro.service.api import ServiceConfig, orchestrate
from repro.service.tasks import compile_run_specs, strip_timing_fields

BACKENDS = available_backends()


@pytest.fixture
def clean_registry():
    """Snapshot/restore the registry and the session override around a test."""
    factories = dict(kernels._FACTORIES)
    built = dict(kernels._BUILT)
    override = kernels._default_override
    try:
        yield
    finally:
        kernels._FACTORIES.clear()
        kernels._FACTORIES.update(factories)
        kernels._BUILT.clear()
        kernels._BUILT.update(built)
        kernels._default_override = override


def _naive_reference(graph, order, sources, radius):
    """Per-source dict BFS assembled into the batched distance matrix."""
    dist = np.full((len(sources), len(order)), UNREACHABLE, dtype=np.int32)
    for row, source in enumerate(sources):
        expected = (
            bfs_distances(graph, order[source])
            if radius is None
            else bfs_distances_within(graph, order[source], radius)
        )
        for column, node in enumerate(order):
            if node in expected:
                dist[row, column] = expected[node]
    return dist


@st.composite
def bfs_workloads(draw, max_nodes: int = 14):
    """(graph, sources, radius) including disconnected graphs, empty and
    repeated source lists, and radii from 0 past the diameter."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.floats(min_value=0.0, max_value=0.6))
    graph = gnp_random_graph(n, p, random.Random(seed))
    sources = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=0, max_size=2 * n)
    )
    radius = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n)))
    return graph, sources, radius


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestBfsEquivalence:
    @given(workload=bfs_workloads())
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_bfs(self, backend_name, workload):
        graph, sources, radius = workload
        indptr, indices, order = graph.to_csr_arrays()
        dist = batched_bfs_distances(
            indptr, indices, sources, radius=radius, backend=backend_name
        )
        assert np.array_equal(dist, _naive_reference(graph, order, sources, radius))

    def test_empty_sources(self, backend_name, path5):
        indptr, indices, _ = path5.to_csr_arrays()
        dist = batched_bfs_distances(indptr, indices, [], backend=backend_name)
        assert dist.shape == (0, 5)

    def test_disconnected_unreachable_marks(self, backend_name):
        graph = Graph(nodes=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        indptr, indices, order = graph.to_csr_arrays()
        sources = list(range(len(order)))
        dist = batched_bfs_distances(indptr, indices, sources, backend=backend_name)
        assert np.array_equal(dist, _naive_reference(graph, order, sources, None))
        assert (dist == UNREACHABLE).sum() == 8  # the two 2x2 cross blocks

    def test_radius_zero_only_marks_sources(self, backend_name, path5):
        indptr, indices, _ = path5.to_csr_arrays()
        dist = batched_bfs_distances(
            indptr, indices, [2, 4], radius=0, backend=backend_name
        )
        assert (dist != UNREACHABLE).sum() == 2
        assert dist[0, 2] == 0 and dist[1, 4] == 0

    def test_frontier_crossing_expansion_cap(self, backend_name, monkeypatch):
        """A hub whose incidence run dwarfs the cap forces the numpy chunked
        path; every backend must still match the naive reference exactly."""
        monkeypatch.setattr(
            "repro.kernels.numpy_backend.MAX_EXPANSION_INCIDENCES", 4
        )
        hub, leaves = 0, range(1, 40)
        edges = [(hub, leaf) for leaf in leaves]
        edges += [(1, 2), (2, 3), (39, 38)]  # a little non-star structure
        graph = Graph(edges=edges)
        indptr, indices, order = graph.to_csr_arrays()
        sources = list(range(len(order)))
        for radius in (None, 1, 2):
            dist = batched_bfs_distances(
                indptr, indices, sources, radius=radius, backend=backend_name
            )
            assert np.array_equal(
                dist, _naive_reference(graph, order, sources, radius)
            )


@pytest.mark.skipif(len(BACKENDS) < 2, reason="only the numpy backend is available")
def test_backends_agree_on_larger_instance():
    """All available backends produce byte-identical matrices on a scale the
    hypothesis workloads never reach (multi-chunk levels, deep frontiers)."""
    owned = owned_barabasi_albert(300, 2, seed=1)
    indptr, indices, _ = owned.graph.to_csr_arrays()
    sources = np.arange(300, dtype=np.int64)
    for radius in (None, 2):
        matrices = [
            batched_bfs_distances(indptr, indices, sources, radius=radius, backend=b)
            for b in BACKENDS
        ]
        for other in matrices[1:]:
            assert np.array_equal(matrices[0], other)


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in BACKENDS
        assert get_backend("numpy").name == "numpy"
        assert not get_backend("numpy").compiled

    def test_registered_superset_of_available(self):
        assert set(BACKENDS) <= set(registered_backends())
        assert {"numpy", "native"} <= set(registered_backends())
        # Every kernel runs on the calling thread.
        assert all(get_backend(name).threads == 1 for name in BACKENDS)

    def test_unknown_name_raises_everywhere(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_default_backend("no-such-backend")

    def test_unknown_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "no-such-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(None)

    def test_env_var_selects_backend(self, monkeypatch):
        for name in BACKENDS:
            monkeypatch.setenv(ENV_VAR, name)
            assert resolve_backend(None).name == name

    def test_backend_object_passthrough(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_explicit_argument_outranks_override_and_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        with use_backend("numpy"):
            assert resolve_backend(BACKENDS[-1]).name == BACKENDS[-1]

    def test_override_outranks_env_var(self, clean_registry, monkeypatch):
        monkeypatch.setenv(ENV_VAR, BACKENDS[-1])
        set_default_backend("numpy")
        assert resolve_backend(None).name == "numpy"

    def test_use_backend_restores_previous(self, clean_registry):
        set_default_backend("numpy")
        with use_backend(BACKENDS[-1]):
            assert resolve_backend(None).name == BACKENDS[-1]
        assert resolve_backend(None).name == "numpy"

    def test_use_backend_none_is_noop(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with use_backend(None):
            assert resolve_backend(None).name in BACKENDS

    def test_unavailable_backend_falls_back_silently(self, clean_registry):
        def missing() -> KernelBackend:
            raise KernelUnavailableError("toolchain not present")

        register_backend("always-missing", missing)
        assert "always-missing" in registered_backends()
        assert "always-missing" not in available_backends()
        # resolve: silent numpy fallback; get_backend: loud.
        assert resolve_backend("always-missing").name == "numpy"
        with pytest.raises(KernelUnavailableError):
            get_backend("always-missing")
        # The failed probe is cached, not retried per call.
        assert kernels._BUILT["always-missing"] is None

    def test_register_backend_replaces_and_reprobes(self, clean_registry):
        reference = get_backend("numpy")
        register_backend(
            "custom",
            lambda: KernelBackend(
                name="custom",
                bfs=reference.bfs,
                bfs_reduce=reference.bfs_reduce,
                view=reference.view,
                cover_search=reference.cover_search,
                max_reply=reference.max_reply,
                sum_reply=reference.sum_reply,
            ),
        )
        assert resolve_backend("custom").name == "custom"


@pytest.fixture
def cold_native(clean_registry, monkeypatch, tmp_path):
    """A process that has never built the native backend: no env var, no
    override, an empty kernel cache, and no loaded library."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernel-cache"))
    monkeypatch.setattr(native_backend, "_library", None)
    set_default_backend(None)
    kernels._BUILT.pop("native", None)
    return tmp_path / "kernel-cache"


class TestDefaultResolution:
    """Auto-detect picks native wherever a C compiler builds it, and falls
    back to the numpy reference silently everywhere else."""

    def test_auto_order_prefers_native(self):
        assert kernels.AUTO_ORDER == ("native", "numpy")

    def test_no_compiler_falls_back_to_numpy_quietly(
        self, cold_native, monkeypatch, capfd
    ):
        monkeypatch.setenv("CC", "/nonexistent")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(None).name == "numpy"
        assert capfd.readouterr() == ("", "")
        assert "native" not in available_backends()
        with pytest.raises(KernelUnavailableError):
            get_backend("native")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiler_present_selects_native(self, cold_native):
        backend = resolve_backend(None)
        assert backend.name == "native" and backend.compiled
        assert list(cold_native.glob("repro-kernels-*.so"))

    def test_unusable_cache_dir_falls_back(self, cold_native, monkeypatch, tmp_path):
        """A cache path below a regular file cannot be created (even by
        root): resolution falls back instead of raising the OSError."""
        regular = tmp_path / "not-a-directory"
        regular.write_text("")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(regular / "cache"))
        assert resolve_backend(None).name == "numpy"
        with pytest.raises(KernelUnavailableError):
            get_backend("native")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_cold_cache_pool_matches_numpy_rows(self, cold_native, monkeypatch):
        """Two pool workers race the first build from an empty cache; the
        rows equal the numpy reference's."""
        tasks = compile_run_specs(
            [
                RunSpec(family="tree", n=12, alpha=alpha, k=k, seed=seed)
                for alpha in (0.5, 2.0)
                for k in (2, 3)
                for seed in range(2)
            ]
        )
        pooled = orchestrate(tasks, ServiceConfig(workers=2))
        # The parent never built the library: the workers did.
        assert native_backend._library is None
        assert list(cold_native.glob("repro-kernels-*.so"))
        monkeypatch.setenv(ENV_VAR, "numpy")
        reference = orchestrate(tasks, ServiceConfig(workers=1))
        assert strip_timing_fields(
            [result.as_row() for result in pooled]
        ) == strip_timing_fields([result.as_row() for result in reference])


# ----------------------------------------------------------------------
# Fused bfs_reduce parity
# ----------------------------------------------------------------------
def _fold_reference(dist: np.ndarray, view_radius: int | None):
    """Fold materialised distance rows into the four bfs_reduce vectors."""
    reachable = dist != UNREACHABLE
    finite = np.where(reachable, dist, 0)
    num_sources = dist.shape[0]
    view = (
        (dist <= view_radius).sum(axis=1).astype(np.int64)
        if view_radius is not None
        else np.zeros(num_sources, dtype=np.int64)
    )
    return (
        finite.max(axis=1, initial=0).astype(np.int64),
        finite.sum(axis=1, dtype=np.int64),
        (~reachable).sum(axis=1).astype(np.int64),
        view,
    )


@st.composite
def reduce_workloads(draw, max_nodes: int = 14):
    """(graph, sources, radius, view_radius) on top of bfs_workloads."""
    graph, sources, radius = draw(bfs_workloads(max_nodes=max_nodes))
    view_radius = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=max_nodes))
    )
    return graph, sources, radius, view_radius


def _family_edges(family: str, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges on nodes 0..n-1 of a path, caterpillar, random tree or G(n, p)."""
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "caterpillar":
        spine = max(1, n // 3)
        edges = [(i, i + 1) for i in range(spine - 1)]
        return edges + [(leaf, rng.randrange(spine)) for leaf in range(spine, n)]
    if family == "tree":
        return list(random_tree(n, rng).edges()) if n > 1 else []
    return list(gnp_random_graph(n, rng.choice([0.01, 0.03, 0.1]), rng).edges())


@st.composite
def multi_batch_reduce_workloads(draw, max_nodes: int = 400):
    """(graph, sources, radius, view_radius) past one 64-source batch:
    paths, caterpillars, random trees and G(n, p) up to ``max_nodes``
    nodes, node labels shuffled or not, an optional second component and
    isolated nodes, and more than 64 sources in shuffled order with
    duplicates — so the native kernel's locality permutation, several
    batches and both fresh-bit passes all run."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    family = draw(st.sampled_from(["path", "caterpillar", "tree", "gnp"]))
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    edges = _family_edges(family, n, rng)
    if draw(st.booleans()):
        extra = rng.randint(1, max_nodes // 4)
        edges += [(n + u, n + v) for u, v in _family_edges(family, extra, rng)]
        n += extra + rng.randint(0, 3)
    labels = list(range(n))
    if draw(st.booleans()):
        rng.shuffle(labels)
    graph = Graph(nodes=range(n), edges=[(labels[u], labels[v]) for u, v in edges])
    sources = [rng.randrange(n) for _ in range(rng.randint(65, 2 * max_nodes))]
    if draw(st.booleans()):  # every node, as the metric sweep passes them
        sources += range(n)
    rng.shuffle(sources)
    radius = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=60)))
    view_radius = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
    return graph, sources, radius, view_radius


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestBfsReduceParity:
    @given(workload=reduce_workloads())
    @settings(max_examples=30, deadline=None)
    def test_matches_materialised_fold(self, backend_name, workload):
        """Fused reductions equal folds over materialised
        batched_bfs_distances rows, per backend."""
        graph, sources, radius, view_radius = workload
        indptr, indices, _ = graph.to_csr_arrays()
        expected = _fold_reference(
            batched_bfs_distances(
                indptr, indices, sources, radius=radius, backend="numpy"
            ),
            view_radius,
        )
        backend = resolve_backend(backend_name)
        got = reduce_bfs_distances(
            indptr,
            indices,
            sources,
            radius=radius,
            view_radius=view_radius,
            backend=backend,
        )
        for got_vec, expected_vec in zip(got, expected):
            assert np.array_equal(got_vec, expected_vec)

    @given(workload=reduce_workloads(), block_size=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_block_size_invariance(self, backend_name, workload, block_size):
        graph, sources, radius, view_radius = workload
        indptr, indices, _ = graph.to_csr_arrays()
        backend = resolve_backend(backend_name)
        blocked = reduce_bfs_distances(
            indptr,
            indices,
            sources,
            radius=radius,
            view_radius=view_radius,
            block_size=block_size,
            backend=backend,
        )
        unblocked = reduce_bfs_distances(
            indptr,
            indices,
            sources,
            radius=radius,
            view_radius=view_radius,
            backend=backend,
        )
        for blocked_vec, unblocked_vec in zip(blocked, unblocked):
            assert np.array_equal(blocked_vec, unblocked_vec)

    @given(workload=multi_batch_reduce_workloads())
    @settings(max_examples=25, deadline=None)
    def test_multi_batch_matches_materialised_fold(self, backend_name, workload):
        """Past one batch — locality-ordered batches, frontier lists and
        both fresh-bit passes on native — the fused vectors still equal the
        folds of materialised rows, each at its source's own position."""
        graph, sources, radius, view_radius = workload
        indptr, indices, _ = graph.to_csr_arrays()
        expected = _fold_reference(
            batched_bfs_distances(
                indptr, indices, sources, radius=radius, backend="numpy"
            ),
            view_radius,
        )
        got = reduce_bfs_distances(
            indptr,
            indices,
            sources,
            radius=radius,
            view_radius=view_radius,
            backend=resolve_backend(backend_name),
        )
        for got_vec, expected_vec in zip(got, expected):
            assert np.array_equal(got_vec, expected_vec)

    @given(
        workload=multi_batch_reduce_workloads(),
        block_size=st.integers(20, 300),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_batch_block_size_invariance(
        self, backend_name, workload, block_size
    ):
        """Blocks cut the sources before the kernel orders them, so each
        block is ordered and batched on its own; the vectors must not
        notice."""
        graph, sources, radius, view_radius = workload
        indptr, indices, _ = graph.to_csr_arrays()
        backend = resolve_backend(backend_name)
        blocked = reduce_bfs_distances(
            indptr,
            indices,
            sources,
            radius=radius,
            view_radius=view_radius,
            block_size=block_size,
            backend=backend,
        )
        unblocked = reduce_bfs_distances(
            indptr,
            indices,
            sources,
            radius=radius,
            view_radius=view_radius,
            backend=backend,
        )
        for blocked_vec, unblocked_vec in zip(blocked, unblocked):
            assert np.array_equal(blocked_vec, unblocked_vec)

    def test_empty_sources_and_empty_graph(self, backend_name):
        backend = resolve_backend(backend_name)
        indptr = np.zeros(6, dtype=np.int64)
        vectors = reduce_bfs_distances(
            indptr, np.zeros(0, dtype=np.int64), [], backend=backend
        )
        assert all(vec.shape == (0,) for vec in vectors)


def _bfs_in_child(indptr, indices, sources, expected_sum):
    dist = batched_bfs_distances(indptr, indices, sources, backend="native")
    sys.exit(0 if int(dist.sum()) == expected_sum else 1)


@pytest.mark.skipif("native" not in BACKENDS, reason="no C compiler")
def test_native_kernels_survive_fork():
    """A process forked after a native kernel ran — how the sweep service
    starts its worker pools — runs the kernels itself instead of hanging
    on state it inherited."""
    owned = owned_barabasi_albert(300, 2, seed=1)
    indptr, indices, _ = owned.graph.to_csr_arrays()
    sources = np.arange(300, dtype=np.int64)
    expected = int(batched_bfs_distances(indptr, indices, sources, backend="native").sum())
    child = multiprocessing.get_context("fork").Process(
        target=_bfs_in_child, args=(indptr, indices, sources, expected)
    )
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive(), "forked child hung in a native kernel"
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
