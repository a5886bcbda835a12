"""Tests for the extension studies (families, SumNCG, move sets, views, beliefs)."""

import math

import pytest

from repro.experiments.config import FULL_KNOWLEDGE_K, SweepSettings
from repro.experiments.extensions import (
    EXTENSION_FAMILIES,
    AnatomyStudyConfig,
    BeliefStudyConfig,
    FamilyStudyConfig,
    MoveSetStudyConfig,
    SumDynamicsConfig,
    ViewModelStudyConfig,
    build_extension_instance,
    generate_anatomy_study,
    generate_belief_study,
    generate_family_study,
    generate_move_set_study,
    generate_sum_dynamics,
    generate_view_model_study,
)
from repro.graphs.traversal import is_connected


class TestExtensionInstances:
    @pytest.mark.parametrize("family", sorted(EXTENSION_FAMILIES))
    def test_every_family_builds_connected_owned_graphs(self, family):
        owned = build_extension_instance(family, 20, seed=0)
        owned.validate()
        assert is_connected(owned.graph)
        # Sizes may be rounded to satisfy structural constraints but must be
        # in the same ballpark as the request.
        assert 10 <= owned.graph.number_of_nodes() <= 30

    @pytest.mark.parametrize("family", sorted(EXTENSION_FAMILIES))
    def test_seed_reproducibility(self, family):
        a = build_extension_instance(family, 16, seed=3)
        b = build_extension_instance(family, 16, seed=3)
        assert {frozenset(e) for e in a.graph.edges()} == {
            frozenset(e) for e in b.graph.edges()
        }

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            build_extension_instance("hyperbolic", 20, seed=0)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            build_extension_instance("tree", 3, seed=0)


@pytest.mark.parametrize(
    "config_cls, generate",
    [
        (FamilyStudyConfig, generate_family_study),
        (MoveSetStudyConfig, generate_move_set_study),
        (ViewModelStudyConfig, generate_view_model_study),
        (BeliefStudyConfig, generate_belief_study),
        (AnatomyStudyConfig, generate_anatomy_study),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_study_rows_do_not_depend_on_the_worker_count(config_cls, generate):
    assert generate(config_cls.smoke(workers=2)) == generate(
        config_cls.smoke(workers=1)
    )


class TestFamilyStudy:
    def test_smoke_rows_structure(self):
        rows = generate_family_study(FamilyStudyConfig.smoke())
        cfg = FamilyStudyConfig.smoke()
        assert len(rows) == len(cfg.families) * len(cfg.alphas) * len(cfg.ks)
        for row in rows:
            assert row["family"] in cfg.families
            assert row["num_runs"] == cfg.settings.num_seeds
            assert 0.0 <= row["converged_fraction"] <= 1.0
            assert row["quality_mean"] >= 1.0 - 1e-9
            assert row["max_bought_edges_mean"] <= row["max_degree_mean"] + 1e-9

    def test_full_knowledge_views_cover_everything(self):
        rows = generate_family_study(FamilyStudyConfig.smoke())
        for row in rows:
            if row["k"] == FULL_KNOWLEDGE_K:
                # Mean view size at full knowledge equals the player count,
                # which the builders keep within [n-4, n+4] of the request.
                assert row["mean_view_size_mean"] >= 14


class TestSumDynamicsStudy:
    def test_smoke_rows(self):
        cfg = SumDynamicsConfig.smoke()
        rows = generate_sum_dynamics(cfg)
        assert len(rows) == len(cfg.sizes) * len(cfg.alphas) * len(cfg.ks)
        for row in rows:
            assert row["quality_mean"] >= 1.0 - 1e-9
            assert 0.0 <= row["converged_fraction"] <= 1.0
            assert row["cycled_fraction"] <= 1.0

    def test_local_players_are_more_conservative(self):
        # The Proposition 2.2 rule freezes small-k SumNCG players, so the
        # local runs perform at most as many strategy changes as the
        # full-knowledge runs on the same instances.
        cfg = SumDynamicsConfig(
            sizes=(10,),
            alphas=(1.5,),
            ks=(2, FULL_KNOWLEDGE_K),
            settings=SweepSettings.smoke(),
        )
        rows = {row["k"]: row for row in generate_sum_dynamics(cfg)}
        assert rows[2]["total_changes_mean"] <= rows[FULL_KNOWLEDGE_K]["total_changes_mean"] + 1e-9


class TestMoveSetStudy:
    def test_smoke_rows(self):
        cfg = MoveSetStudyConfig.smoke()
        rows = generate_move_set_study(cfg)
        assert len(rows) == len(cfg.move_sets) * len(cfg.alphas) * len(cfg.ks)
        move_sets = {row["move_set"] for row in rows}
        assert move_sets == set(cfg.move_sets)
        for row in rows:
            assert row["quality_mean"] >= 1.0 - 1e-9

    def test_unknown_move_set_rejected(self):
        cfg = MoveSetStudyConfig(move_sets=("best_response", "teleport"), settings=SweepSettings.smoke())
        with pytest.raises(ValueError):
            generate_move_set_study(cfg)


class TestViewModelStudy:
    def test_smoke_rows(self):
        cfg = ViewModelStudyConfig.smoke()
        rows = generate_view_model_study(cfg)
        # Three models per (alpha, k) cell.
        assert len(rows) == 3 * len(cfg.alphas) * len(cfg.ks)
        for row in rows:
            assert 0.0 <= row["stable_fraction"] <= 1.0
            assert row["mean_view_size_mean"] >= 1.0

    def test_k_model_baseline_is_stable(self):
        # The stable networks were produced by best-response dynamics under
        # the k-neighbourhood model, so under that same model every run must
        # still be stable.
        rows = generate_view_model_study(ViewModelStudyConfig.smoke())
        k_rows = [row for row in rows if row["model"].startswith("k-neighborhood")]
        assert k_rows
        for row in k_rows:
            assert row["stable_fraction"] == 1.0

    def test_traceroute_reveals_whole_network(self):
        rows = generate_view_model_study(ViewModelStudyConfig.smoke())
        trace_rows = [row for row in rows if row["model"].startswith("traceroute")]
        assert trace_rows
        for row in trace_rows:
            assert row["mean_view_size_mean"] == pytest.approx(row["n"], abs=1e-9)


class TestBeliefStudy:
    def test_smoke_rows(self):
        cfg = BeliefStudyConfig.smoke()
        rows = generate_belief_study(cfg)
        assert len(rows) == len(cfg.beliefs) * len(cfg.usages) * len(cfg.alphas) * len(cfg.ks)
        for row in rows:
            assert 0.0 <= row["survives_fraction"] <= 1.0

    def test_empty_world_max_equilibria_always_survive(self):
        rows = generate_belief_study(BeliefStudyConfig.smoke())
        sanity = [
            row for row in rows if row["belief"] == "empty-world" and row["usage"] == "max"
        ]
        assert sanity
        for row in sanity:
            assert row["survives_fraction"] == 1.0

    def test_unknown_belief_rejected(self):
        cfg = BeliefStudyConfig(beliefs=("empty-world", "oracle"), settings=SweepSettings.smoke())
        with pytest.raises(ValueError):
            generate_belief_study(cfg)


class TestAnatomyStudy:
    def test_smoke_rows(self):
        cfg = AnatomyStudyConfig.smoke()
        rows = generate_anatomy_study(cfg)
        assert len(rows) == len(cfg.alphas) * len(cfg.ks)
        for row in rows:
            assert row["num_runs"] == cfg.settings.num_seeds
            assert 0.0 <= row["bridge_fraction_mean"] <= 1.0
            assert 0.0 <= row["degree_gini_mean"] <= 1.0
            assert 0.0 <= row["building_cost_share_mean"] <= 1.0
            assert row["quality_mean"] >= 1.0 - 1e-9

    def test_full_knowledge_is_more_hub_concentrated_than_k2(self):
        # On trees the full-knowledge equilibria are hubbier than the k = 2
        # equilibria (which barely move away from the starting tree).
        rows = {row["k"]: row for row in generate_anatomy_study(AnatomyStudyConfig.smoke())}
        assert rows[FULL_KNOWLEDGE_K]["degree_gini_mean"] >= rows[2]["degree_gini_mean"] - 1e-9


class TestCliIntegration:
    def test_new_commands_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in ["sum-dynamics", "families", "move-sets", "view-models", "beliefs", "anatomy"]:
            args = parser.parse_args([command, "--smoke", "--quiet"])
            assert args.command == command

    def test_beliefs_command_end_to_end(self, capsys, tmp_path):
        from repro.cli import main

        json_path = tmp_path / "beliefs.json"
        code = main(["beliefs", "--smoke", "--quiet", "--json", str(json_path)])
        assert code == 0
        assert json_path.exists()

    def test_view_models_command_end_to_end(self, capsys):
        from repro.cli import main

        assert main(["view-models", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "traceroute" in out
