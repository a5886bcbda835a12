"""Tests for result serialisation and the parameter grids."""

import csv
import json
import math
import os

import pytest

from repro.experiments.config import (
    FULL_KNOWLEDGE_K,
    PAPER_ALPHAS,
    PAPER_GNP_PARAMETERS,
    PAPER_KS,
    PAPER_NUM_SEEDS,
    PAPER_TREE_SIZES,
    SweepSettings,
    resolve_workers,
)
from repro.experiments.io import format_table, rows_to_columns, write_csv, write_json


class TestPaperGrids:
    def test_alpha_grid_matches_paper(self):
        assert PAPER_ALPHAS == (
            0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1, 1.5, 2, 3, 5, 7, 10,
        )

    def test_k_grid_matches_paper(self):
        assert PAPER_KS == (2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30, 1000)
        assert FULL_KNOWLEDGE_K == 1000

    def test_tree_sizes_match_table1(self):
        assert PAPER_TREE_SIZES == (20, 30, 50, 70, 100, 200)

    def test_gnp_parameters_match_table2(self):
        assert (100, 0.060) in PAPER_GNP_PARAMETERS
        assert (200, 0.035) in PAPER_GNP_PARAMETERS
        assert len(PAPER_GNP_PARAMETERS) == 6

    def test_paper_seed_count(self):
        assert PAPER_NUM_SEEDS == 20

    def test_settings_factories(self):
        paper = SweepSettings.paper(workers=4)
        smoke = SweepSettings.smoke()
        assert paper.num_seeds == 20 and paper.workers == 4
        assert smoke.num_seeds < paper.num_seeds
        assert smoke.solver == "greedy"

    def test_full_sweep_size_matches_paper_magnitude(self):
        # "Overall, we simulated about 36 000 different dynamics": the grid
        # sizes reproduce that order of magnitude
        # (15 α) x (12 k) x (6 tree sizes + 6 gnp settings) x 20 seeds.
        total = len(PAPER_ALPHAS) * len(PAPER_KS) * (
            len(PAPER_TREE_SIZES) + len(PAPER_GNP_PARAMETERS)
        ) * PAPER_NUM_SEEDS
        assert 30_000 <= total <= 50_000


class TestResolveWorkers:
    def test_none_and_zero_mean_all_cores(self):
        cores = max(1, os.cpu_count() or 1)
        assert resolve_workers(None) == cores
        assert resolve_workers(0) == cores

    def test_explicit_value(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestIo:
    ROWS = [
        {"alpha": 1.0, "quality": 2.5, "label": "a"},
        {"alpha": 2.0, "quality": math.inf, "label": "b", "extra": 7},
    ]

    def test_write_csv(self, tmp_path):
        path = write_csv(self.ROWS, tmp_path / "out.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["alpha"] == "1.0"
        assert rows[1]["quality"] == "inf"
        assert rows[0]["extra"] == ""

    def test_write_csv_empty(self, tmp_path):
        path = write_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""

    def test_write_json(self, tmp_path):
        path = write_json(self.ROWS, tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data[0]["label"] == "a"
        assert data[1]["quality"] == "inf"

    def test_rows_to_columns(self):
        columns = rows_to_columns(self.ROWS)
        assert columns["alpha"] == [1.0, 2.0]
        assert columns["extra"] == [7]

    def test_format_table_alignment(self):
        text = format_table(self.ROWS, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in lines[1]
        assert len(lines) == 2 + 1 + len(self.ROWS)

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="none")

    def test_format_table_handles_none(self):
        text = format_table([{"x": None}])
        assert "-" in text

    def test_nested_directories_created(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "rows.csv"
        write_csv(self.ROWS, target)
        assert target.exists()
