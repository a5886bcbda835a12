"""Timing harness for the perturbation & recovery subsystem.

Writes ``BENCH_robustness.json`` under ``benchmarks/out/``.

The scenario is the robustness suite's inner loop: converge once, then
repeatedly shock the certified equilibrium through
``DynamicsEngine.set_strategy`` (via the registered perturbation
operators) and recover.  Each shock is recovered twice:

* **warm** — the live engine re-``run``s; only the dirty ball around the
  shock is re-solved, everything else rides the view cache and the
  best-response memo;
* **cold** — a fresh ``DynamicsEngine`` built from the shocked profile,
  which must rebuild every view and re-solve every player at least once.

Both engines run with ``collect_metrics=False`` so the timed window is
the recovery itself, not the O(n · edges) metric sweeps that would
otherwise bookend every ``run`` identically on both paths.  Empty shocks
(an operator that found no safe edit) are skipped, not timed — a no-op
"recovery" only measures engine construction overhead.

Both recoveries must land on the *same* profile (the warm replay is
bit-for-bit a cold engine, per ``tests/engine/test_certify_and_perturbation``)
and every landing point must pass ``DynamicsEngine.certify()``.  The
acceptance figure is the aggregate localized-shock speedup on the tree
instance: warm replay must recover at least 5x faster than a cold restart.
"""

from __future__ import annotations

import random
import time

from repro.core.games import MaxNCG
from repro.engine.core import DynamicsEngine
from repro.experiments.extensions.robustness import apply_perturbation
from repro.graphs.generators.erdos_renyi import owned_connected_gnp_graph
from repro.graphs.generators.trees import random_owned_tree


REPLAYS_PER_OPERATOR = 6
SHOCK_SEED = 7

#: (label, instance thunk, game, operators, asserted).  The tree carries
#: the acceptance assertion with the always-localized shortcut shock (its
#: equilibria are bridge-bound, so the deletion operators mostly degrade
#: to empty shocks there); the denser G(n, p) instance reports the
#: deletion/reset operators for breadth.
INSTANCES = [
    (
        "tree150",
        lambda: random_owned_tree(150, seed=0),
        MaxNCG(0.5, k=2),
        ("add_shortcuts",),
        True,
    ),
    (
        "gnp120",
        lambda: owned_connected_gnp_graph(120, 0.04, seed=1),
        MaxNCG(0.5, k=2),
        ("add_shortcuts", "reset_player", "drop_random_edges"),
        False,
    ),
]


def _shock_and_recover(engine, game, operator, rng):
    """One non-empty shock on the live engine, recovered warm and cold.

    Returns ``None`` when the operator found no safe edit (nothing to
    time); otherwise ``(warm_s, cold_s, identical, certified, size)``.
    """
    record = apply_perturbation(engine, operator, rng, intensity=1)
    if record.is_empty:
        return None
    shock_profile = engine.state.to_profile()

    start = time.perf_counter()
    warm = engine.run()
    warm_s = time.perf_counter() - start
    certified = warm.certified and engine.certify().is_equilibrium

    cold_engine = DynamicsEngine(shock_profile, game, collect_metrics=False)
    start = time.perf_counter()
    cold = cold_engine.run()
    cold_s = time.perf_counter() - start
    certified = certified and cold_engine.certify().is_equilibrium

    identical = (
        warm.final_profile == cold.final_profile
        and warm.rounds == cold.rounds
        and warm.total_changes == cold.total_changes
    )
    return warm_s, cold_s, identical, certified, record.size


def _run_benchmark() -> dict:
    instance_reports = []
    for label, make_owned, game, operators, asserted in INSTANCES:
        engine = DynamicsEngine(make_owned(), game, collect_metrics=False)
        base = engine.run()
        assert base.certified, f"{label}: base dynamics failed to certify"

        # One untimed warm-up shock so cache-population cost does not land
        # on the first timed replay.
        warm_up_rng = random.Random(SHOCK_SEED - 1)
        apply_perturbation(engine, "add_shortcuts", warm_up_rng, intensity=1)
        engine.run()

        operator_rows = []
        total_warm_s = 0.0
        total_cold_s = 0.0
        all_identical = True
        all_certified = True
        for operator in operators:
            rng = random.Random(SHOCK_SEED)
            warm_s = cold_s = 0.0
            shock_edges = 0
            timed = 0
            for _ in range(REPLAYS_PER_OPERATOR):
                outcome = _shock_and_recover(engine, game, operator, rng)
                if outcome is None:
                    continue
                w, c, identical, certified, size = outcome
                warm_s += w
                cold_s += c
                shock_edges += size
                timed += 1
                all_identical = all_identical and identical
                all_certified = all_certified and certified
            total_warm_s += warm_s
            total_cold_s += cold_s
            operator_rows.append(
                {
                    "operator": operator,
                    "replays": timed,
                    "empty_shocks": REPLAYS_PER_OPERATOR - timed,
                    "shock_edges_total": shock_edges,
                    "warm_s": round(warm_s, 4),
                    "cold_s": round(cold_s, 4),
                    "speedup": round(cold_s / warm_s, 2) if warm_s else None,
                }
            )
        instance_reports.append(
            {
                "instance": label,
                "n": engine.state.graph.number_of_nodes(),
                "alpha": game.alpha,
                "k": game.k,
                "base_rounds": base.rounds,
                "asserted": asserted,
                "operators": operator_rows,
                "warm_s": round(total_warm_s, 4),
                "cold_s": round(total_cold_s, 4),
                "speedup": (
                    round(total_cold_s / total_warm_s, 2) if total_warm_s else None
                ),
                "identical_recoveries": all_identical,
                "all_certified": all_certified,
            }
        )
    headline = next(r for r in instance_reports if r["asserted"])
    return {
        "benchmark": "perturbation recovery: warm replay vs cold restart",
        "replays_per_operator": REPLAYS_PER_OPERATOR,
        "instances": instance_reports,
        "speedup": headline["speedup"],
    }


def test_bench_robustness(benchmark, emit_report):
    report = benchmark.pedantic(_run_benchmark, rounds=1, iterations=1)
    emit_report(report, "BENCH_robustness")
    for instance in report["instances"]:
        # Warm replays must be the same recoveries, certified on both paths.
        assert instance["identical_recoveries"]
        assert instance["all_certified"]
        if instance["asserted"]:
            # The acceptance figure: localized shocks must actually have
            # happened, and recover >= 5x faster warm than cold.
            assert all(row["shock_edges_total"] > 0 for row in instance["operators"])
            assert instance["speedup"] is not None
            assert instance["speedup"] >= 5.0
