"""Tests for the on-disk experiment store and the CSV/JSON readers."""

import math

import pytest

from repro.core.dynamics import best_response_dynamics
from repro.core.equilibria import is_equilibrium
from repro.core.games import MaxNCG
from repro.experiments.io import write_csv, write_json
from repro.experiments.store import ExperimentStore, read_csv_rows, read_json_rows
from repro.graphs.generators.trees import random_owned_tree


SAMPLE_ROWS = [
    {"alpha": 2.0, "k": 2, "quality_mean": 1.5, "converged": True, "label": "tree"},
    {"alpha": 2.0, "k": 1000, "quality_mean": 1.1, "converged": False, "label": "tree"},
    {"alpha": 0.5, "k": 2, "quality_mean": math.inf, "converged": True, "label": "gnp"},
]


class TestRowReaders:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(SAMPLE_ROWS, path)
        restored = read_csv_rows(path)
        assert len(restored) == 3
        assert restored[0]["alpha"] == 2.0
        assert restored[0]["k"] == 2
        assert restored[0]["converged"] is True
        assert restored[1]["converged"] is False
        assert math.isinf(restored[2]["quality_mean"])
        assert restored[2]["label"] == "gnp"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "rows.json"
        write_json(SAMPLE_ROWS, path)
        restored = read_json_rows(path)
        assert restored[0]["quality_mean"] == 1.5
        assert math.isinf(restored[2]["quality_mean"])

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert read_csv_rows(path) == []

    def test_non_array_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "an array"}')
        with pytest.raises(ValueError):
            read_json_rows(path)


class TestExperimentStore:
    def test_save_and_load_rows(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.save_rows("fig5-smoke", SAMPLE_ROWS, config={"n": 25, "smoke": True})
        assert store.list_experiments() == ["fig5-smoke"]
        rows = store.load_rows("fig5-smoke")
        assert len(rows) == 3
        assert rows[1]["k"] == 1000
        assert store.load_config("fig5-smoke") == {"n": 25, "smoke": True}

    def test_describe(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.save_rows("families", SAMPLE_ROWS)
        entry = store.describe("families")
        assert entry["num_rows"] == 3
        assert "quality_mean" in entry["columns"]

    def test_missing_experiment_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        with pytest.raises(KeyError):
            store.load_rows("never-saved")
        with pytest.raises(KeyError):
            store.describe("never-saved")
        with pytest.raises(KeyError):
            store.load_config("never-saved")

    def test_invalid_names_rejected(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(ValueError):
                store.save_rows(bad, SAMPLE_ROWS)

    def test_overwrite_updates_index(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.save_rows("study", SAMPLE_ROWS)
        store.save_rows("study", SAMPLE_ROWS[:1])
        assert store.describe("study")["num_rows"] == 1
        assert len(store.load_rows("study")) == 1

    def test_multiple_experiments(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.save_rows("a", SAMPLE_ROWS[:1])
        store.save_rows("b", SAMPLE_ROWS)
        assert store.list_experiments() == ["a", "b"]

    def test_checkpoint_round_trip(self, tmp_path):
        from repro.core.serialization import dynamics_result_to_dict

        store = ExperimentStore(tmp_path / "store")
        owned = random_owned_tree(10, seed=2)
        game = MaxNCG(alpha=2.0, k=2)
        result = best_response_dynamics(owned, game, solver="branch_and_bound")
        store.save_rows("anatomy", SAMPLE_ROWS)
        store.save_checkpoint_document("anatomy", "seed2", dynamics_result_to_dict(result))

        assert store.list_checkpoints("anatomy") == ["seed2"]
        assert store.describe("anatomy")["has_checkpoints"] is True
        profile, loaded_game, document = store.load_checkpoint("anatomy", "seed2")
        assert loaded_game == game
        assert profile == result.final_profile
        assert is_equilibrium(profile, loaded_game)
        assert document["converged"] == result.converged

    def test_missing_checkpoint_raises(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.save_rows("x", SAMPLE_ROWS)
        with pytest.raises(KeyError):
            store.load_checkpoint("x", "nope")
        assert store.list_checkpoints("x") == []

    def test_checkpoint_document_round_trip(self, tmp_path):
        from repro.core.serialization import dynamics_result_to_dict

        store = ExperimentStore(tmp_path / "store")
        owned = random_owned_tree(10, seed=2)
        game = MaxNCG(alpha=2.0, k=2)
        result = best_response_dynamics(owned, game, solver="branch_and_bound")
        document = dynamics_result_to_dict(result)
        store.save_rows("svc", SAMPLE_ROWS)
        store.save_checkpoint_document("svc", "doc", document)
        profile, loaded_game, loaded = store.load_checkpoint("svc", "doc")
        assert loaded_game == game
        assert profile == result.final_profile
        assert loaded == document
        with pytest.raises(ValueError):
            store.save_checkpoint_document("svc", "bad", {"format": "nope"})


class TestSweepJournal:
    """The service journal layered inside a store's experiment directory."""

    def _journal(self, tmp_path):
        from repro.service.journal import SweepJournal

        store = ExperimentStore(tmp_path / "store")
        return store, SweepJournal(store.experiment_dir("sweep"))

    def test_round_trip(self, tmp_path):
        _, journal = self._journal(tmp_path)
        assert journal.open("hash-a", 3) == {}
        journal.append("s1", 0, "sum", {"quality": 1.5, "bad": "inf"})
        journal.append("s2", 1, "sum", {"quality": 2.0})
        journal.close()
        resumed = journal.open("hash-a", 3, resume=True)
        journal.close()
        assert resumed == {
            "s1": {"quality": 1.5, "bad": "inf"},
            "s2": {"quality": 2.0},
        }

    def test_dedupe_last_record_wins(self, tmp_path):
        _, journal = self._journal(tmp_path)
        journal.open("hash-a", 2)
        journal.append("s1", 0, "sum", {"v": 1})
        journal.append("s1", 0, "sum", {"v": 2})
        journal.close()
        assert journal.open("hash-a", 2, resume=True) == {"s1": {"v": 2}}
        journal.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        _, journal = self._journal(tmp_path)
        journal.open("hash-a", 2)
        journal.append("s1", 0, "sum", {"v": 1})
        journal.close()
        with journal.log_path.open("a") as handle:
            handle.write('{"spec_hash": "s2", "index": 1, "kind": "su')
        assert journal.open("hash-a", 2, resume=True) == {"s1": {"v": 1}}
        journal.close()

    def test_append_after_torn_tail_stays_parseable(self, tmp_path):
        # A record appended by a resumed run must not merge into the torn
        # line a SIGKILL left behind, or it would be lost on the *next*
        # resume despite having been acknowledged and fsynced.
        _, journal = self._journal(tmp_path)
        journal.open("hash-a", 3)
        journal.append("s1", 0, "sum", {"v": 1})
        journal.close()
        with journal.log_path.open("a") as handle:
            handle.write('{"spec_hash": "torn"')  # no newline: mid-write kill
        assert journal.open("hash-a", 3, resume=True) == {"s1": {"v": 1}}
        journal.append("s2", 1, "sum", {"v": 2})
        journal.close()
        assert journal.open("hash-a", 3, resume=True) == {
            "s1": {"v": 1},
            "s2": {"v": 2},
        }
        journal.close()

    def test_torn_manifest_is_a_clear_error_on_resume(self, tmp_path):
        # A crash mid-manifest-write used to surface as a raw
        # JSONDecodeError from --resume; now the manifest is written
        # atomically, and a manifest damaged by other means is a clear
        # ValueError, not a traceback into the json module.
        import json

        import pytest

        _, journal = self._journal(tmp_path)
        journal.open("hash-a", 2)
        journal.append("s1", 0, "sum", {"v": 1})
        journal.close()
        journal.manifest_path.write_text('{"format": "repro-sweep-jour')
        with pytest.raises(ValueError, match="corrupt sweep manifest"):
            journal.open("hash-a", 2, resume=True)
        with pytest.raises(json.JSONDecodeError):
            json.loads(journal.manifest_path.read_text())  # truly torn

    def test_manifest_write_is_atomic(self, tmp_path):
        # The temp file must be gone and the manifest complete after open().
        _, journal = self._journal(tmp_path)
        journal.open("hash-a", 2)
        journal.close()
        assert not journal.manifest_path.with_name(
            journal.manifest_path.name + ".tmp"
        ).exists()
        import json

        manifest = json.loads(journal.manifest_path.read_text())
        assert manifest["sweep_hash"] == "hash-a"
        assert manifest["num_tasks"] == 2

    def test_resume_requires_matching_sweep(self, tmp_path):
        _, journal = self._journal(tmp_path)
        journal.open("hash-a", 2)
        journal.close()
        with pytest.raises(ValueError, match="different sweep"):
            journal.open("hash-b", 2, resume=True)

    def test_resume_without_journal_fails(self, tmp_path):
        _, journal = self._journal(tmp_path)
        with pytest.raises(ValueError, match="cannot resume"):
            journal.open("hash-a", 2, resume=True)

    def test_fresh_open_replaces_old_journal(self, tmp_path):
        _, journal = self._journal(tmp_path)
        journal.open("hash-a", 1)
        journal.append("s1", 0, "sum", {"v": 1})
        journal.close()
        assert journal.open("hash-b", 1) == {}
        journal.close()
        assert journal.open("hash-b", 1, resume=True) == {}
        journal.close()
