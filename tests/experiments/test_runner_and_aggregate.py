"""Tests for the sweep runner, aggregation and parallel execution plumbing."""

import math

import pytest

from repro.core.games import FULL_KNOWLEDGE
from repro.experiments.aggregate import aggregate_results, group_by
from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.experiments.runner import (
    RunSpec,
    build_instance,
    run_single,
    run_sweep,
)
from repro.graphs.properties import is_tree
from repro.graphs.traversal import is_connected


def cell_specs(alpha: float, settings: SweepSettings) -> list[RunSpec]:
    """The ``num_seeds`` specs of one 10-node tree cell at k = 2."""
    return [
        RunSpec(family="tree", n=10, alpha=alpha, k=2, seed=seed, solver=settings.solver)
        for seed in range(settings.num_seeds)
    ]


def tree_spec(**overrides) -> RunSpec:
    base = dict(family="tree", n=15, alpha=2.0, k=3, seed=0, solver="greedy")
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_game_mapping_max(self):
        game = tree_spec(k=3).game()
        assert game.is_max and game.k == 3

    def test_game_mapping_full_knowledge(self):
        game = tree_spec(k=FULL_KNOWLEDGE_K).game()
        assert game.k == FULL_KNOWLEDGE

    def test_game_mapping_sum(self):
        assert tree_spec(usage="sum").game().is_sum

    def test_game_invalid_usage(self):
        with pytest.raises(ValueError):
            tree_spec(usage="median").game()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": -1.0},
            {"k": 0},
            {"family": "gnp"},
            {"family": "gnp", "p": 1.5},
            {"family": "hypercube"},
            {"n": 0},
            {"usage": "bogus"},
            {"solver": "bogus"},
            {"ordering": "bogus"},
            {"ownership": "bogus"},
            {"cost_model": "bogus"},
        ],
        ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_malformed_spec_is_refused_when_built(self, overrides):
        with pytest.raises(ValueError):
            tree_spec(**overrides)

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = tree_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, tree_spec()}) == 1


class TestBuildInstance:
    def test_tree_instance(self):
        owned = build_instance(tree_spec(n=20, seed=3))
        assert is_tree(owned.graph)
        assert owned.graph.number_of_nodes() == 20

    def test_gnp_instance(self):
        owned = build_instance(RunSpec(family="gnp", n=25, p=0.2, alpha=1.0, k=2, seed=1))
        assert is_connected(owned.graph)
        assert owned.graph.number_of_nodes() == 25

    def test_gnp_requires_p(self):
        with pytest.raises(ValueError):
            build_instance(RunSpec(family="gnp", n=25, p=None, alpha=1.0, k=2, seed=1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_instance(tree_spec(family="hypercube"))

    def test_ownership_variants(self):
        fair = build_instance(tree_spec(ownership="fair_coin"))
        deterministic = build_instance(tree_spec(ownership="smaller_endpoint"))
        assert fair.graph == deterministic.graph
        with pytest.raises(ValueError):
            build_instance(tree_spec(ownership="random_walk"))


class TestRunSingle:
    def test_produces_consistent_result(self):
        result = run_single(tree_spec(n=15, seed=2))
        assert result.spec.n == 15
        assert result.converged or result.cycled or result.rounds == result.spec.max_rounds
        assert result.final_metrics.num_players == 15
        assert result.initial_metrics.num_edges == 14

    def test_as_row_flattens(self):
        row = run_single(tree_spec(n=10, seed=1)).as_row()
        assert row["family"] == "tree"
        assert "final_quality" in row and "initial_diameter" in row
        assert row["k"] == 3

    def test_reproducible(self):
        a = run_single(tree_spec(n=12, seed=5))
        b = run_single(tree_spec(n=12, seed=5))
        assert a.final_metrics == b.final_metrics
        assert a.rounds == b.rounds


class TestSweep:
    def test_run_sweep_parallel_workers(self):
        settings = SweepSettings(num_seeds=3, solver="greedy", workers=2)
        specs = cell_specs(1.0, settings)
        parallel = run_sweep(specs, settings)
        serial = [run_single(spec) for spec in specs]
        assert [r.final_metrics for r in parallel] == [r.final_metrics for r in serial]


class TestAggregation:
    def _results(self):
        settings = SweepSettings(num_seeds=3, solver="greedy")
        specs = cell_specs(1.0, settings) + cell_specs(2.0, settings)
        return run_sweep(specs, settings)

    def test_group_by(self):
        groups = group_by(self._results(), ("alpha",))
        assert set(groups) == {(1.0,), (2.0,)}
        assert all(len(bucket) == 3 for bucket in groups.values())

    def test_aggregate_rows(self):
        rows = aggregate_results(
            self._results(),
            keys=("alpha", "k"),
            metrics={"quality": lambda r: r.final_metrics.quality},
        )
        assert len(rows) == 2
        for row in rows:
            assert row["quality_n"] == 3
            assert row["quality_mean"] >= 1.0
            assert not math.isnan(row["quality_ci"])

    def test_aggregate_drops_non_finite(self):
        results = self._results()
        rows = aggregate_results(
            results,
            keys=("alpha",),
            metrics={"weird": lambda r: float("inf")},
        )
        assert all(row["weird_n"] == 0 for row in rows)
