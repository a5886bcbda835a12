"""Smoke-grid tests of every table/figure harness (shape and sanity checks)."""

import pytest

from repro.experiments.ablations import (
    AblationConfig,
    ordering_ablation,
    ownership_ablation,
    solver_ablation,
)
from repro.experiments.config import FULL_KNOWLEDGE_K
from repro.experiments.figures import (
    ConvergenceConfig,
    Figure3Config,
    Figure4Config,
    Figure5Config,
    Figure6Config,
    Figure7Config,
    Figure8Config,
    Figure9Config,
    Figure10Config,
    generate_convergence_summary,
    generate_figure3,
    generate_figure4,
    generate_figure5,
    generate_figure6,
    generate_figure7,
    generate_figure8,
    generate_figure9,
    generate_figure10,
)
from repro.experiments.tables import (
    Table1Config,
    Table2Config,
    generate_table1,
    generate_table2,
)


class TestTables:
    def test_table1_smoke(self):
        rows = generate_table1(Table1Config.smoke())
        assert [row["n"] for row in rows] == [20, 30, 50]
        for row in rows:
            assert row["diameter_mean"] > 0
            assert row["max_degree_mean"] >= 2
            assert row["max_bought_edges_mean"] <= row["max_degree_mean"]

    def test_table1_diameter_grows_with_n(self):
        rows = generate_table1(Table1Config(sizes=(20, 100), num_seeds=5))
        assert rows[0]["diameter_mean"] < rows[1]["diameter_mean"]

    def test_table2_smoke(self):
        rows = generate_table2(Table2Config.smoke())
        assert len(rows) == 2
        for row in rows:
            assert row["edges_mean"] >= row["n"] - 1
            assert row["diameter_mean"] >= 1
            assert row["max_bought_edges_mean"] <= row["max_degree_mean"]

    def test_table2_density_scales_with_p(self):
        rows = generate_table2(
            Table2Config(parameters=((60, 0.08), (60, 0.2)), num_seeds=3)
        )
        assert rows[0]["edges_mean"] < rows[1]["edges_mean"]


class TestRegionFigures:
    def test_figure3_rows(self):
        rows = generate_figure3(Figure3Config.smoke())
        cfg = Figure3Config.smoke()
        assert len(rows) == cfg.alpha_points * cfg.k_points
        assert all(row["lower_bound"] >= 1.0 for row in rows)
        assert all(row["upper_bound"] > 0 for row in rows)
        assert "NE≡LKE" in {row["region"] for row in rows}

    def test_figure3_upper_bounds_dominate_lower_bounds(self):
        for row in generate_figure3(Figure3Config.smoke()):
            assert row["upper_bound"] >= row["lower_bound"] * 0.999

    def test_figure4_rows(self):
        rows = generate_figure4(Figure4Config.smoke())
        regions = {row["region"] for row in rows}
        assert "NE≡LKE" in regions
        # The Ω(n/k) region must be populated somewhere on the grid.
        assert any("n/k" in region for region in regions)
        assert all(row["upper_bound"] is None for row in rows)


class TestSimulationFigures:
    """Each harness is exercised on its smoke grid; assertions target the
    qualitative claims the paper makes about the corresponding figure."""

    def test_figure5_view_size_monotone_in_k(self):
        rows = generate_figure5(Figure5Config.smoke())
        assert {row["k"] for row in rows} == {2, 3, FULL_KNOWLEDGE_K}
        by_cell = {(row["k"], row["alpha"]): row for row in rows}
        for alpha in {row["alpha"] for row in rows}:
            full = by_cell[(FULL_KNOWLEDGE_K, alpha)]
            local = by_cell[(2, alpha)]
            assert full["average_view_size_mean"] >= local["average_view_size_mean"]
            # Under full knowledge every player sees everyone.
            assert full["minimum_view_size_mean"] == pytest.approx(full["n"])

    def test_figure6_quality_reasonable(self):
        rows = generate_figure6(Figure6Config.smoke())
        for row in rows:
            assert row["quality_mean"] >= 0.99
            assert row["quality_mean"] < row["n"]

    def test_figure7_contains_theory_trend(self):
        rows = generate_figure7(Figure7Config.smoke())
        families = {row["family"] for row in rows}
        assert families == {"tree", "gnp"}
        for row in rows:
            assert row["alpha"] == 2.0
            assert row["theory_trend"] > 0

    def test_figure8_degree_dominates_bought_edges(self):
        rows = generate_figure8(Figure8Config.smoke())
        for row in rows:
            assert row["max_degree_mean"] >= row["max_bought_edges_mean"]

    def test_figure9_unfairness_at_least_one(self):
        rows = generate_figure9(Figure9Config.smoke())
        for row in rows:
            assert row["unfairness_mean"] >= 1.0

    def test_figure10_round_counts(self):
        rows = generate_figure10(Figure10Config.smoke())
        panels = {row["panel"] for row in rows}
        assert panels == {"alpha", "n"}
        for row in rows:
            assert 0 <= row["rounds_mean"] <= 60

    def test_convergence_summary(self):
        rows = generate_convergence_summary(ConvergenceConfig.smoke())
        stats = {row["statistic"]: row["value"] for row in rows}
        assert stats["total_runs"] > 0
        assert 0.0 <= stats["fraction_cycled"] <= 0.2
        assert stats["fraction_converged"] >= 0.8
        assert stats["fraction_converged_within_7_rounds"] >= 0.8


class TestAblations:
    def test_solver_ablation_exact_never_worse(self):
        rows = solver_ablation(AblationConfig.smoke())
        by_variant = {}
        for row in rows:
            by_variant.setdefault(row["variant"], {})[(row["alpha"], row["k"])] = row
        assert set(by_variant) == {"milp", "branch_and_bound", "greedy"}
        for cell, milp_row in by_variant["milp"].items():
            greedy_row = by_variant["greedy"][cell]
            # Exact best responses should not produce *worse* average quality
            # by a large margin (allow noise from different trajectories).
            assert milp_row["quality_mean"] <= greedy_row["quality_mean"] * 1.5

    def test_ordering_ablation_rows(self):
        rows = ordering_ablation(AblationConfig.smoke())
        assert {row["variant"] for row in rows} == {"fixed", "shuffled"}

    def test_ownership_ablation_rows(self):
        rows = ownership_ablation(AblationConfig.smoke())
        assert {row["variant"] for row in rows} == {"fair_coin", "smaller_endpoint"}
        for row in rows:
            assert row["quality_n"] > 0
