"""Engine replies and certificates read an ``ArrayView``'s arrays, not its dicts.

The engine stores every view as an :class:`~repro.core.views.ArrayView`,
whose dict attributes (``subgraph``, ``distances``, ``frontier``,
``buyers``) are materialised on first access, building a ``Graph``.  They
exist for dict consumers only; no engine MaxNCG or SumNCG reply, nor a
``certify()`` sweep, may touch them.
"""

import importlib

import pytest

from repro.core.best_response import SUM_EXHAUSTIVE_LIMIT
from repro.core.games import FULL_KNOWLEDGE, MaxNCG, SumNCG
from repro.core.views import ArrayView
from repro.engine.core import DynamicsEngine
from repro.graphs.generators import owned_connected_gnp_graph

# ``repro.core`` re-exports a function named ``best_response``.
best_response_module = importlib.import_module("repro.core.best_response")

DICT_ATTRIBUTES = ("subgraph", "distances", "frontier", "buyers")


@pytest.fixture
def materialised(monkeypatch):
    """The dict attributes read off any ``ArrayView``, in order of access."""
    reads = []
    materialise = ArrayView.__getattr__

    def spy(self, name):
        if name in DICT_ATTRIBUTES:
            reads.append(name)
        return materialise(self, name)

    monkeypatch.setattr(ArrayView, "__getattr__", spy)
    return reads


@pytest.fixture
def sum_paths(monkeypatch):
    """Calls per SumNCG reply routine, to show which path a run took."""
    calls = {"exhaustive": 0, "local_search": 0}
    for path in calls:
        name = f"best_response_sum_{path}"
        routine = getattr(best_response_module, name)

        def counted(*args, _routine=routine, _path=path, **kwargs):
            calls[_path] += 1
            return _routine(*args, **kwargs)

        monkeypatch.setattr(best_response_module, name, counted)
    return calls


@pytest.mark.parametrize(
    ("game", "path"),
    [
        (MaxNCG(0.5, k=2), None),
        (SumNCG(0.5, k=2), "exhaustive"),
        (SumNCG(1.0, k=FULL_KNOWLEDGE), "local_search"),
    ],
    ids=["max", "sum-exhaustive", "sum-local-search"],
)
def test_engine_runs_and_certify_never_materialise_view_dicts(
    materialised, sum_paths, game, path
):
    owned = owned_connected_gnp_graph(16, 0.25, seed=3)
    assert owned.graph.number_of_nodes() - 1 > SUM_EXHAUSTIVE_LIMIT
    engine = DynamicsEngine(owned, game, max_rounds=20)
    result = engine.run()
    report = engine.certify()
    assert result.converged and report.is_equilibrium
    assert engine.responses_computed > 0
    if path is not None:
        assert sum_paths[path] > 0
    assert materialised == []
