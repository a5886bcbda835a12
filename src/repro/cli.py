"""Command-line interface: regenerate any table or figure of the paper.

Examples
--------
::

    python -m repro table1 --smoke
    python -m repro fig7 --smoke --csv out/fig7.csv
    python -m repro fig3 --output out/fig3.json
    python -m repro certify --construction torus --alpha 2 --k 2 --n 200
    python -m repro ablation --study solver --smoke
    python -m repro families --smoke          # extension: other instance families
    python -m repro sum-dynamics --smoke      # extension: SumNCG dynamics (small n)
    python -m repro view-models --smoke       # extension: discovery view models
    python -m repro beliefs --smoke           # extension: Bayesian deviation rule
    python -m repro move-sets --smoke         # extension: swap / greedy move sets
    python -m repro robustness --smoke --store out/store   # extension: attack/recovery sweep
    python -m repro robustness --smoke --cost-model tolerant   # + disconnecting attacks (finite beta costs)
    python -m repro robustness --smoke --usage sum        # perturb SumNCG equilibria (engine path)
    python -m repro robustness --smoke --reconnect        # split-then-reconnect rows (tolerant, k = inf)
    python -m repro sweep --workers 4 --journal out/store  # orchestrated RunSpec sweep (warm workers)
    python -m repro sweep --workers 4 --journal out/store --resume   # skip journaled rows after a crash
    python -m repro serve --store out/store --workers 4 --port 8765  # persistent sweep daemon (cache + queue)
    python -m repro sweep --remote http://127.0.0.1:8765   # run the grid on the daemon (cache hits are free)
    python -m repro sweep --journal out/store --telemetry  # journal per-task trace summaries alongside rows
    python -m repro robustness --smoke --journal out/store --telemetry  # the same for the robustness study
    python -m repro trace out/store                        # export them as Chrome trace_event JSON

``--smoke`` selects the reduced grids (CI-sized); without it the full paper
grids are used, which for the simulation figures can take hours.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.core.best_response import ENGINE_DEFAULT_SOLVER
from repro.experiments.ablations import (
    AblationConfig,
    ordering_ablation,
    ownership_ablation,
    solver_ablation,
)
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
from repro.experiments.extensions import (
    AnatomyStudyConfig,
    BeliefStudyConfig,
    FamilyStudyConfig,
    MoveSetStudyConfig,
    RobustnessStudyConfig,
    SumDynamicsConfig,
    ViewModelStudyConfig,
    aggregate_robustness_rows,
    generate_anatomy_study,
    generate_belief_study,
    generate_family_study,
    generate_move_set_study,
    generate_robustness_study,
    generate_sum_dynamics,
    generate_view_model_study,
)
from repro.experiments.io import format_table, write_csv, write_json
from repro.experiments.store import ExperimentStore
from repro.experiments.tables import (
    Table1Config,
    Table2Config,
    generate_table1,
    generate_table2,
)

__all__ = ["main", "build_parser"]

#: command name -> (config factory pair (paper, smoke), generator)
_EXPERIMENTS: dict[str, tuple[tuple[Callable, Callable], Callable]] = {
    "table1": ((Table1Config.paper, Table1Config.smoke), generate_table1),
    "table2": ((Table2Config.paper, Table2Config.smoke), generate_table2),
    "fig3": ((Figure3Config.paper, Figure3Config.smoke), generate_figure3),
    "fig4": ((Figure4Config.paper, Figure4Config.smoke), generate_figure4),
    "fig5": ((Figure5Config.paper, Figure5Config.smoke), generate_figure5),
    "fig6": ((Figure6Config.paper, Figure6Config.smoke), generate_figure6),
    "fig7": ((Figure7Config.paper, Figure7Config.smoke), generate_figure7),
    "fig8": ((Figure8Config.paper, Figure8Config.smoke), generate_figure8),
    "fig9": ((Figure9Config.paper, Figure9Config.smoke), generate_figure9),
    "fig10": ((Figure10Config.paper, Figure10Config.smoke), generate_figure10),
    "convergence": (
        (ConvergenceConfig.paper, ConvergenceConfig.smoke),
        generate_convergence_summary,
    ),
    # Extension studies (not in the paper; see DESIGN.md §5 and EXPERIMENTS.md).
    "sum-dynamics": ((SumDynamicsConfig.paper, SumDynamicsConfig.smoke), generate_sum_dynamics),
    "families": ((FamilyStudyConfig.paper, FamilyStudyConfig.smoke), generate_family_study),
    "move-sets": ((MoveSetStudyConfig.paper, MoveSetStudyConfig.smoke), generate_move_set_study),
    "view-models": (
        (ViewModelStudyConfig.paper, ViewModelStudyConfig.smoke),
        generate_view_model_study,
    ),
    "beliefs": ((BeliefStudyConfig.paper, BeliefStudyConfig.smoke), generate_belief_study),
    "anatomy": ((AnatomyStudyConfig.paper, AnatomyStudyConfig.smoke), generate_anatomy_study),
}

_ABLATIONS = {
    "solver": solver_ablation,
    "ordering": ordering_ablation,
    "ownership": ownership_ablation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables and figures of 'Locality-based Network Creation Games'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in _EXPERIMENTS:
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        _add_common_options(sub)

    certify = subparsers.add_parser(
        "certify", help="verify a lower-bound construction is an equilibrium"
    )
    certify.add_argument(
        "--construction",
        choices=["cycle", "torus", "sum-torus", "high-girth"],
        required=True,
    )
    certify.add_argument("--alpha", type=float, default=2.0)
    certify.add_argument("--k", type=int, default=2)
    certify.add_argument("--n", type=int, default=100)
    certify.add_argument("--degree", type=int, default=3, help="degree of the high-girth graph")
    certify.add_argument("--max-players", type=int, default=None)
    certify.add_argument("--solver", default=ENGINE_DEFAULT_SOLVER)
    _add_output_options(certify)

    ablation = subparsers.add_parser("ablation", help="run a design-choice ablation")
    ablation.add_argument("--study", choices=sorted(_ABLATIONS), required=True)
    _add_common_options(ablation)

    robustness = subparsers.add_parser(
        "robustness",
        help="perturbation & recovery sweep with certified equilibria (extension)",
    )
    robustness.add_argument(
        "--store",
        default=None,
        help="persist the per-shock rows (and a base-equilibrium checkpoint) "
        "into this ExperimentStore directory",
    )
    robustness.add_argument(
        "--per-shock",
        action="store_true",
        help="print the raw per-shock rows instead of the per-(family, operator) "
        "aggregates (CSV/JSON/store always receive the per-shock rows)",
    )
    robustness.add_argument(
        "--usage",
        choices=["max", "sum"],
        default="max",
        help="which game the sweep perturbs (SumNCG runs on the engine-grade "
        "pruned exhaustive / local-search dispatch)",
    )
    robustness.add_argument(
        "--cost-model",
        choices=["strict", "tolerant"],
        default="strict",
        help="disconnection semantics: 'tolerant' prices unreachable nodes at "
        "a finite beta each and admits the disconnecting operators "
        "(component_split, isolation_attack) into the grid",
    )
    robustness.add_argument(
        "--beta",
        type=float,
        default=None,
        help="tolerant model's per-unreachable-node penalty (default: 2n)",
    )
    robustness.add_argument(
        "--reconnect",
        action="store_true",
        help="admit the split-then-reconnect scenario: switches to the "
        "tolerant model (if needed) and appends the full-knowledge column, "
        "so disconnecting shocks record reconnection trajectories",
    )
    _add_telemetry_option(robustness)
    _add_journal_options(robustness)
    _add_common_options(robustness)

    sweep = subparsers.add_parser(
        "sweep",
        help="orchestrated RunSpec grid sweep through the service "
        "(warm workers, crash-safe journal, --resume)",
    )
    sweep.add_argument(
        "--families",
        default="tree",
        help="comma-separated instance families (tree, gnp); default tree",
    )
    sweep.add_argument(
        "--n",
        type=int,
        default=None,
        help="players per instance (default 20; 14 under --smoke)",
    )
    sweep.add_argument("--p", type=float, default=None, help="edge probability (gnp only)")
    sweep.add_argument("--alphas", default="0.5,2.0", help="comma-separated edge prices")
    sweep.add_argument("--ks", default="2,3", help="comma-separated knowledge radii")
    sweep.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="independent instances per cell (default 3; 2 under --smoke)",
    )
    sweep.add_argument("--usage", choices=["max", "sum"], default="max")
    sweep.add_argument("--solver", default=ENGINE_DEFAULT_SOLVER)
    sweep.add_argument("--max-rounds", type=int, default=60)
    sweep.add_argument("--ordering", default="fixed", help="activation scheduler")
    sweep.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="run the grid on a sweep daemon (see `serve`) instead of "
        "locally; overlapping cells are served from its content-addressed "
        "cache with zero engine work",
    )
    _add_telemetry_option(sweep)
    _add_journal_options(sweep)
    _add_common_options(sweep)

    serve = subparsers.add_parser(
        "serve",
        help="run the persistent sweep daemon (equilibrium-as-a-service): "
        "HTTP job queue + content-addressed result cache over a shared "
        "warm worker pool",
    )
    serve.add_argument(
        "--store",
        required=True,
        help="ExperimentStore root backing the result cache, job records "
        "and per-job journals (restarting on the same store resumes "
        "in-flight jobs)",
    )
    serve.add_argument(
        "--workers", type=_worker_count, default=1, help="persistent worker processes"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help="max waiting jobs before submissions get HTTP 429",
    )
    serve.add_argument(
        "--in-process",
        action="store_true",
        help="execute jobs in the daemon process instead of forked workers "
        "(deterministic test/debug mode; results are identical)",
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help="trace every executed task and journal its span summary next "
        "to the result (exportable via `python -m repro trace`); rows "
        "are bit-identical",
    )

    trace = subparsers.add_parser(
        "trace",
        help="export a journaled sweep's telemetry records as a Chrome "
        "trace_event JSON file (load in chrome://tracing or Perfetto)",
    )
    trace.add_argument(
        "journal_dir",
        help="a sweep journal directory (containing journal.jsonl), an "
        "ExperimentStore root holding one or more of them, or a "
        "journal.jsonl file",
    )
    trace.add_argument(
        "--output",
        default=None,
        help="output path for the Chrome trace (default: trace.json next "
        "to the journal)",
    )
    return parser


def _worker_count(text: str) -> int:
    """``--workers`` value: a non-negative int (``0`` = every core)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_telemetry_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--telemetry",
        action="store_true",
        help="trace every task (engine rounds, best responses, view "
        "refreshes, kernel calls) and journal the span summaries next to "
        "the results; requires --journal; rows are bit-identical "
        "(see `python -m repro trace`)",
    )


def _check_telemetry(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.telemetry and not args.journal:
        # Span summaries are only durable through the journal; tracing
        # into the void would silently record nothing exportable.
        parser.error("--telemetry requires --journal")


def _add_journal_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--journal",
        default=None,
        help="ExperimentStore root for the crash-safe sweep journal "
        "(each completed task is fsynced as it lands)",
    )
    sub.add_argument(
        "--resume",
        action="store_true",
        help="skip tasks already journaled by an interrupted run of the "
        "same sweep (requires --journal)",
    )


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--smoke", action="store_true", help="use the reduced CI grid")
    sub.add_argument(
        "--workers", type=_worker_count, default=1, help="worker processes for the sweep"
    )
    _add_output_options(sub)


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--csv", default=None, help="write the rows to this CSV file")
    sub.add_argument("--json", default=None, help="write the rows to this JSON file")
    sub.add_argument("--quiet", action="store_true", help="suppress the printed table")


def _make_config(factories: tuple[Callable, Callable], args: argparse.Namespace):
    paper_factory, smoke_factory = factories
    factory = smoke_factory if args.smoke else paper_factory
    try:
        return factory(workers=args.workers)
    except TypeError:
        return factory()


def _emit(rows: list[dict], args: argparse.Namespace, title: str) -> None:
    if args.csv:
        write_csv(rows, args.csv)
    if args.json:
        write_json(rows, args.json)
    if not args.quiet:
        print(format_table(rows, title=title))


def _run_certify(args: argparse.Namespace) -> int:
    from repro.analysis.certificates import (
        certify_cycle_lemma_3_1,
        certify_high_girth_lemma_3_2,
        certify_sum_torus_lemma_4_1,
        certify_torus_theorem_3_12,
    )

    if args.construction == "cycle":
        result = certify_cycle_lemma_3_1(
            n=args.n, alpha=args.alpha, k=args.k, max_players=args.max_players, solver=args.solver
        )
    elif args.construction == "torus":
        result = certify_torus_theorem_3_12(
            alpha=args.alpha, k=args.k, n_target=args.n, max_players=args.max_players, solver=args.solver
        )
    elif args.construction == "sum-torus":
        result = certify_sum_torus_lemma_4_1(
            alpha=args.alpha, k=args.k, n_target=args.n, max_players=args.max_players, solver=args.solver
        )
    else:
        result = certify_high_girth_lemma_3_2(
            n=args.n,
            degree=args.degree,
            alpha=args.alpha,
            k=args.k,
            max_players=args.max_players,
            solver=args.solver,
        )
    rows = [result.as_dict()]
    _emit(rows, args, title=f"certificate: {result.construction}")
    return 0 if result.is_equilibrium else 1


def _run_sweep_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Build a RunSpec grid and run it through the orchestration service."""
    from repro.experiments.config import SweepSettings
    from repro.experiments.runner import RunSpec, run_sweep

    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    _check_telemetry(parser, args)
    if args.remote and (args.journal or args.resume):
        # The daemon owns journaling/resume on its own store; mixing the
        # local journal flags in would silently journal nothing.
        parser.error("--remote is incompatible with --journal/--resume")
    # --smoke only shrinks the *defaults*; explicitly passed grid flags
    # stay in force (mirroring how robustness --smoke composes with its
    # modifiers) instead of being silently discarded.
    families = [name.strip() for name in args.families.split(",") if name.strip()]
    alphas = [float(value) for value in args.alphas.split(",") if value.strip()]
    ks = [int(value) for value in args.ks.split(",") if value.strip()]
    n = args.n if args.n is not None else (14 if args.smoke else 20)
    seeds = args.seeds if args.seeds is not None else (2 if args.smoke else 3)
    try:
        specs = [
            RunSpec(
                family=family,
                n=n,
                p=args.p if family == "gnp" else None,
                alpha=alpha,
                k=k,
                seed=seed,
                usage=args.usage,
                solver=args.solver,
                max_rounds=args.max_rounds,
                ordering=args.ordering,
            )
            for family in families
            for alpha in alphas
            for k in ks
            for seed in range(seeds)
        ]
    except ValueError as exc:
        # A malformed grid is refused before any journal opens.
        parser.error(str(exc))
    if args.remote:
        from repro.service.client import SweepClient

        results = SweepClient(args.remote).run_specs(specs)
    else:
        results = run_sweep(
            specs,
            SweepSettings(num_seeds=seeds, solver=args.solver, workers=args.workers),
            journal=args.journal,
            resume=args.resume,
            telemetry=args.telemetry,
        )
    rows = [result.as_row() for result in results]
    if args.journal:
        # Layer the final row set on the store holding the journal, so an
        # interrupted run leaves the journal and a completed one the rows.
        ExperimentStore(args.journal).save_rows(
            "sweep", rows, config={"num_specs": len(specs)}
        )
    _emit(rows, args, title="sweep")
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    """Run the sweep daemon until SIGINT/SIGTERM."""
    from repro.service.daemon import DaemonConfig, run_daemon

    run_daemon(
        DaemonConfig(
            store_dir=args.store,
            workers=args.workers,
            host=args.host,
            port=args.port,
            queue_size=args.queue_size,
            in_process=args.in_process,
            telemetry=args.telemetry,
        )
    )
    return 0


def _run_trace_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Render a journaled sweep's telemetry records as a Chrome trace."""
    import json as json_module
    from pathlib import Path

    from repro.obs import chrome_trace_from_summaries, validate_chrome_trace
    from repro.service.journal import (
        SweepJournal,
        iter_telemetry_records,
        load_jsonl_records,
    )

    root = Path(args.journal_dir)
    if root.is_file():
        journals = [root]
    elif (root / SweepJournal.LOG_NAME).exists():
        journals = [root / SweepJournal.LOG_NAME]
    else:
        journals = sorted(root.glob(f"*/{SweepJournal.LOG_NAME}"))
    if not journals:
        parser.error(f"no {SweepJournal.LOG_NAME} under {root}")
    summaries: list[dict] = []
    for path in journals:
        summaries.extend(
            record["payload"]
            for record in iter_telemetry_records(load_jsonl_records(path))
        )
    if not summaries:
        parser.error(
            f"no telemetry records in {len(journals)} journal(s) under {root} "
            "— run the sweep with --telemetry"
        )
    document = chrome_trace_from_summaries(summaries)
    problems = validate_chrome_trace(document)
    if problems:  # pragma: no cover - defensive; the exporter is validated
        print("\n".join(f"warning: {problem}" for problem in problems), file=sys.stderr)
    output = Path(args.output) if args.output else journals[0].parent / "trace.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json_module.dumps(document))
    events = len(document["traceEvents"])
    print(
        f"wrote {events} trace event(s) from {len(summaries)} task summarie(s) "
        f"to {output}"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "certify":
        return _run_certify(args)

    if args.command == "ablation":
        cfg = AblationConfig.smoke(workers=args.workers) if args.smoke else AblationConfig.paper(workers=args.workers)
        rows = _ABLATIONS[args.study](cfg)
        _emit(rows, args, title=f"ablation: {args.study}")
        return 0

    if args.command == "sweep":
        return _run_sweep_command(parser, args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "trace":
        return _run_trace_command(parser, args)

    if args.command == "robustness":
        if args.beta is not None and args.cost_model != "tolerant":
            parser.error("--beta only applies to --cost-model tolerant")
        if args.resume and not args.journal:
            parser.error("--resume requires --journal")
        _check_telemetry(parser, args)
        cfg = (
            RobustnessStudyConfig.smoke(workers=args.workers)
            if args.smoke
            else RobustnessStudyConfig.paper(workers=args.workers)
        )
        if args.usage != "max":
            cfg = cfg.with_usage(args.usage)
        if args.cost_model != "strict":
            cfg = cfg.with_cost_model(args.cost_model, penalty_beta=args.beta)
        if args.reconnect:
            cfg = cfg.with_reconnect()
        store = ExperimentStore(args.store) if args.store else None
        rows = generate_robustness_study(
            cfg,
            store=store,
            journal=args.journal,
            resume=args.resume,
            telemetry=args.telemetry,
        )
        if args.csv:
            write_csv(rows, args.csv)
        if args.json:
            write_json(rows, args.json)
        if not args.quiet:
            display = rows if args.per_shock else aggregate_robustness_rows(rows)
            print(format_table(display, title="robustness"))
        return 0

    factories, generator = _EXPERIMENTS[args.command]
    config = _make_config(factories, args)
    rows = generator(config)
    _emit(rows, args, title=args.command)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
