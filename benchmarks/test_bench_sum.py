"""Timing harness for the engine-grade SumNCG best-response path.

Writes ``BENCH_sum.json`` under ``benchmarks/out/``.

Two sections:

* **activations** — for every player whose strategy space sits at a
  cross-check size (``6 <= m <= SUM_EXHAUSTIVE_LIMIT``, where the pruned
  path and the full enumeration are both exact), time the cold full
  enumeration (``prune=False``, no seed) against the dispatch's
  class-pruned enumeration (size classes priced best bound first) — at
  the initial profile *and* at the converged equilibrium (the
  quiet-round/certification regime, where the incumbent is optimal and
  pruning bites hardest).  Every pair of replies must be bit-for-bit
  identical; the aggregate speedup is the acceptance figure.
* **dynamics** — full engine runs vs the rebuild-everything reference loop
  on the same instances, asserted bit-for-bit identical (final profile,
  rounds, changes): the engine's view cache + response memo may only buy
  time, never change a trajectory.
"""

from __future__ import annotations

import time

from repro.core.best_response import (
    SUM_EXHAUSTIVE_LIMIT,
    best_response,
    best_response_sum_exhaustive,
)
from repro.core.dynamics import (
    best_response_dynamics,
    best_response_dynamics_reference,
)
from repro.core.games import SumNCG
from repro.core.strategies import StrategyProfile
from repro.core.views import extract_view
from repro.graphs.generators.trees import random_owned_tree


#: Smallest strategy space worth timing (below this both paths are
#: microseconds and the ratio is noise).
MIN_TIMED_SPACE = 6

#: (label, n, alpha, k) — tree instances whose k-views stay at or below
#: the exact-dispatch limit, so both paths are exact and comparable.
INSTANCES = [
    ("tree18-k2", 18, 0.5, 2),
    ("tree14-k3", 14, 0.5, 3),
    ("tree20-k2", 20, 1.5, 2),
]


def _time_activations(profile: StrategyProfile, game) -> dict:
    """Cold-vs-pruned timings over one profile's cross-check players."""
    cold_s = warm_s = 0.0
    players = 0
    identical = True
    for player in profile.players():
        view = extract_view(profile, player, game.k)
        space = len(view.strategy_space)
        if not MIN_TIMED_SPACE <= space <= SUM_EXHAUSTIVE_LIMIT:
            continue
        players += 1
        start = time.perf_counter()
        cold = best_response_sum_exhaustive(
            profile, player, game, warm_start=None, prune=False
        )
        cold_s += time.perf_counter() - start
        start = time.perf_counter()
        warm = best_response(profile, player, game)
        warm_s += time.perf_counter() - start
        identical = identical and cold.strategy == warm.strategy
    return {
        "players_timed": players,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "identical_strategies": identical,
    }


def _run_benchmark() -> dict:
    instance_reports = []
    total_cold = total_warm = 0.0
    all_identical = True
    for label, n, alpha, k in INSTANCES:
        game = SumNCG(alpha, k=k)
        profile = StrategyProfile.from_owned_graph(random_owned_tree(n, seed=5))

        # Dynamics section first: it also hands us the equilibrium profile.
        start = time.perf_counter()
        engine_result = best_response_dynamics(profile, game, max_rounds=40)
        engine_s = time.perf_counter() - start
        start = time.perf_counter()
        reference_result = best_response_dynamics_reference(
            profile, game, max_rounds=40
        )
        reference_s = time.perf_counter() - start
        trajectory_identical = (
            engine_result.final_profile == reference_result.final_profile
            and engine_result.rounds == reference_result.rounds
            and engine_result.total_changes == reference_result.total_changes
            and engine_result.certified == reference_result.certified
        )

        sections = {}
        for phase, phase_profile in (
            ("initial", profile),
            ("equilibrium", engine_result.final_profile),
        ):
            report = _time_activations(phase_profile, game)
            sections[phase] = report
            total_cold += report["cold_s"]
            total_warm += report["warm_s"]
            all_identical = all_identical and report["identical_strategies"]

        instance_reports.append(
            {
                "instance": label,
                "n": n,
                "alpha": alpha,
                "k": k,
                "converged": engine_result.converged,
                "certified": engine_result.certified,
                "rounds": engine_result.rounds,
                "activations": sections,
                "dynamics": {
                    "engine_s": round(engine_s, 4),
                    "reference_s": round(reference_s, 4),
                    "trajectory_identical": trajectory_identical,
                },
            }
        )
        all_identical = all_identical and trajectory_identical
    return {
        "benchmark": "SumNCG: pruned exact dispatch vs cold enumeration",
        "exhaustive_limit": SUM_EXHAUSTIVE_LIMIT,
        "instances": instance_reports,
        "cold_s": round(total_cold, 4),
        "warm_s": round(total_warm, 4),
        "speedup": round(total_cold / total_warm, 2) if total_warm else None,
        "identical": all_identical,
    }


def test_bench_sum(benchmark, emit_report):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    emit_report(report, "BENCH_sum")
    # Identical equilibria / replies everywhere: the seed and the pruning
    # are pure accelerations.
    assert report["identical"]
    for instance in report["instances"]:
        assert instance["converged"] and instance["certified"]
        assert instance["dynamics"]["trajectory_identical"]
    # Enough cross-check work actually happened to make the ratio honest.
    assert sum(
        section["players_timed"]
        for instance in report["instances"]
        for section in instance["activations"].values()
    ) >= 10
    # The acceptance figure: the engine-path dispatch must beat the cold
    # enumeration clearly (measured 2.6-4x; asserted with slack).
    assert report["speedup"] is not None
    assert report["speedup"] >= 1.5
