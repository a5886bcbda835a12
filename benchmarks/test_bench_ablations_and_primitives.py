"""Ablation benchmarks (DESIGN.md §5) and micro-benchmarks of the hot kernels.

The ablations quantify the sensitivity of the experimental conclusions to
the three protocol choices the paper fixes (exact solver, round-robin order,
fair-coin initial ownership).  The micro-benchmarks time the primitives that
dominate the sweep runtime — view extraction, the exact best response (the
dominating-set reduction) and one full dynamics run — and are the numbers
to watch when optimising.
"""

from conftest import run_once

from repro.core.best_response import best_response_max
from repro.core.dynamics import best_response_dynamics
from repro.core.games import MaxNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view
from repro.experiments.ablations import (
    AblationConfig,
    ordering_ablation,
    ownership_ablation,
    solver_ablation,
)
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.trees import random_owned_tree
from repro.graphs.traversal import distance_matrix


class TestAblations:
    def test_bench_ablation_solvers(self, benchmark, emit_rows):
        rows = run_once(benchmark, solver_ablation, AblationConfig.smoke())
        emit_rows(rows, "ablation_solver", title="Ablation: best-response solver")
        variants = {row["variant"] for row in rows}
        assert variants == {"milp", "branch_and_bound", "greedy"}

    def test_bench_ablation_ordering(self, benchmark, emit_rows):
        rows = run_once(benchmark, ordering_ablation, AblationConfig.smoke())
        emit_rows(rows, "ablation_ordering", title="Ablation: player ordering")
        assert {row["variant"] for row in rows} == {"fixed", "shuffled"}
        # Both orderings must converge on the smoke grid.
        assert all(row["cycled_mean"] == 0 for row in rows)

    def test_bench_ablation_ownership(self, benchmark, emit_rows):
        rows = run_once(benchmark, ownership_ablation, AblationConfig.smoke())
        emit_rows(rows, "ablation_ownership", title="Ablation: initial edge ownership")
        assert {row["variant"] for row in rows} == {"fair_coin", "smaller_endpoint"}


class TestPrimitives:
    def test_bench_distance_matrix(self, benchmark):
        owned = owned_connected_gnp_graph(100, 0.08, seed=1)
        matrix, order = benchmark(distance_matrix, owned.graph)
        assert matrix.shape == (100, 100)

    def test_bench_view_extraction(self, benchmark):
        profile = StrategyProfile.from_owned_graph(owned_connected_gnp_graph(100, 0.08, seed=1))

        def extract_all():
            return [extract_view(profile, player, 3).size for player in profile]

        sizes = benchmark(extract_all)
        assert len(sizes) == 100

    def test_bench_exact_best_response(self, benchmark):
        profile = StrategyProfile.from_owned_graph(random_owned_tree(80, seed=2))
        game = MaxNCG(2.0, k=4)
        response = benchmark(best_response_max, profile, 0, game, "milp")
        assert response.view_cost <= response.current_view_cost + 1e-9

    def test_bench_full_dynamics_run(self, benchmark):
        owned = random_owned_tree(50, seed=4)
        game = MaxNCG(2.0, k=3)
        result = benchmark.pedantic(
            best_response_dynamics,
            args=(owned, game),
            kwargs={"solver": "greedy"},
            rounds=1,
            iterations=1,
        )
        assert result.converged or result.rounds > 0
