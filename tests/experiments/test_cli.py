"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ["table1", "table2", "fig3", "fig5", "fig10", "convergence"]:
            args = parser.parse_args([command, "--smoke"])
            assert args.command == command
            assert args.smoke

    def test_certify_arguments(self):
        args = build_parser().parse_args(
            ["certify", "--construction", "cycle", "--alpha", "3", "--k", "2", "--n", "12"]
        )
        assert args.construction == "cycle"
        assert args.alpha == 3.0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_table1_smoke_to_files(self, tmp_path, capsys):
        csv_path = tmp_path / "t1.csv"
        json_path = tmp_path / "t1.json"
        code = main(
            ["table1", "--smoke", "--csv", str(csv_path), "--json", str(json_path)]
        )
        assert code == 0
        assert csv_path.exists() and json_path.exists()
        assert len(json.loads(json_path.read_text())) == 3
        assert "diameter_mean" in capsys.readouterr().out

    def test_quiet_suppresses_output(self, capsys):
        code = main(["fig3", "--smoke", "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_fig4_smoke(self, capsys):
        assert main(["fig4", "--smoke"]) == 0
        assert "region" in capsys.readouterr().out

    def test_certify_cycle_exit_code(self, capsys):
        code = main(
            [
                "certify",
                "--construction",
                "cycle",
                "--alpha",
                "3",
                "--k",
                "3",
                "--n",
                "14",
                "--quiet",
            ]
        )
        assert code == 0

    def test_certify_failure_exit_code(self):
        # A cycle with tiny α and large view is not an equilibrium: exit 1.
        code = main(
            [
                "certify",
                "--construction",
                "cycle",
                "--alpha",
                "0.5",
                "--k",
                "6",
                "--n",
                "30",
                "--quiet",
            ]
        )
        assert code == 1

    def test_ablation_command(self, capsys):
        assert main(["ablation", "--study", "ownership", "--smoke", "--quiet"]) == 0


class TestSweepCommand:
    def test_parser_accepts_sweep(self):
        args = build_parser().parse_args(
            ["sweep", "--n", "16", "--alphas", "0.5", "--ks", "2", "--workers", "2"]
        )
        assert args.command == "sweep"
        assert args.n == 16
        assert args.workers == 2
        assert args.journal is None and not args.resume

    @pytest.mark.parametrize(
        "argv",
        [
            ["families", "--smoke"],
            ["ablation", "--study", "ordering"],
            ["robustness", "--smoke"],
            ["sweep", "--smoke"],
            ["serve", "--store", "unused"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_workers_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--workers", "-1"])
        assert exit_info.value.code == 2
        assert "--workers: must be >= 0" in capsys.readouterr().err

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--smoke", "--resume", "--quiet"])

    @pytest.mark.parametrize("command", ["sweep", "robustness"])
    def test_telemetry_requires_journal(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--smoke", "--telemetry", "--quiet"])
        assert exit_info.value.code == 2
        assert "--telemetry requires --journal" in capsys.readouterr().err

    def test_robustness_telemetry_journals_one_record_per_task(self, tmp_path):
        from repro.service.journal import iter_telemetry_records, load_jsonl_records
        from repro.service.tasks import strip_timing_fields

        journal = tmp_path / "store"
        traced, plain = tmp_path / "traced.json", tmp_path / "plain.json"
        base = ["robustness", "--smoke", "--quiet"]
        argv = base + ["--journal", str(journal), "--telemetry", "--json", str(traced)]
        assert main(argv) == 0
        assert main(base + ["--json", str(plain)]) == 0
        records = load_jsonl_records(journal / "robustness" / "journal.jsonl")
        results = {r["spec_hash"] for r in records if r["kind"] == "robustness"}
        telemetry = [r["spec_hash"] for r in iter_telemetry_records(records)]
        assert results and sorted(telemetry) == sorted(results)
        rows = json.loads(traced.read_text())
        assert strip_timing_fields(rows) == strip_timing_fields(json.loads(plain.read_text()))

    def test_gnp_requires_p(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--families", "gnp", "--quiet"])

    def test_malformed_grid_is_refused_before_the_journal_opens(self, tmp_path, capsys):
        journal = tmp_path / "bad"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--smoke", "--alphas", "1,-1", "--journal", str(journal), "--quiet"])
        assert exit_info.value.code == 2
        assert "alpha must be positive" in capsys.readouterr().err
        assert not (journal / "sweep" / "journal.jsonl").exists()

    def test_smoke_honors_explicit_grid_flags(self, tmp_path):
        # --smoke shrinks defaults only; an explicit flag stays in force.
        out = tmp_path / "rows.json"
        assert (
            main(
                [
                    "sweep",
                    "--smoke",
                    "--n",
                    "10",
                    "--alphas",
                    "0.5",
                    "--ks",
                    "2",
                    "--quiet",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        rows = json.loads(out.read_text())
        assert len(rows) == 2  # 1 alpha x 1 k x 2 smoke seeds
        assert all(row["n"] == 10 for row in rows)

    def test_sweep_smoke_journal_and_resume(self, tmp_path, capsys):
        journal = tmp_path / "store"
        base = ["sweep", "--smoke", "--quiet", "--workers", "1"]
        out_full = tmp_path / "full.json"
        assert main(base + ["--json", str(out_full)]) == 0
        out_first = tmp_path / "first.json"
        assert main(base + ["--journal", str(journal), "--json", str(out_first)]) == 0
        # The journal store holds the final rows next to the journal.
        from repro.experiments.store import ExperimentStore

        store = ExperimentStore(journal)
        assert store.describe("sweep")["num_rows"] == len(json.loads(out_full.read_text()))
        assert (journal / "sweep" / "journal.jsonl").exists()
        # Drop half the journal (a simulated kill) and resume.
        log = journal / "sweep" / "journal.jsonl"
        lines = log.read_text().splitlines(True)
        log.write_text("".join(lines[: len(lines) // 2]))
        out_resumed = tmp_path / "resumed.json"
        assert (
            main(base + ["--journal", str(journal), "--resume", "--json", str(out_resumed)])
            == 0
        )
        assert json.loads(out_resumed.read_text()) == json.loads(out_full.read_text())
