"""The canonical workloads: seeded inputs, one request each, output checks.

A *request* is the unit a user waits for.  On the three sweep workloads
it is one call of the public sweep API over a small grid; on
``daemon_mixed`` it is one client's miss job followed by the same grid
resubmitted (a cache hit).  Request ``r`` of a run with ``--seed S``
draws its instances from seed ``SEED_STRIDE * S + r``, so the program
only ever sees the generated specs and every request is a fresh,
reproducible input.

Requests are sized to take one to four seconds: a run's median latency
is taken over many of them, which averages out how much the cost of one
random instance differs from the next.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: Seed-commit medians and golden row digests (``run.py --record``).
BASELINE = Path(__file__).resolve().parent.parent / "baseline.json"

#: Distance between the instance-seed ranges of two benchmark seeds; far
#: above the number of requests any run can send, so ranges never meet.
SEED_STRIDE = 100_000

#: Grid cells of one daemon job (tree n=16, k=2).
DAEMON_ALPHAS = (0.5, 1.0, 2.0, 4.0)

#: Worker processes of every pool, and client threads of the daemon load:
#: sized for a 2-core host.
WORKERS = 2

#: Worker processes of each sweep workload.  On a 2-vCPU host two busy
#: workers slow each other unevenly, which made requests spanning several
#: instance groups swing by 15-20% between runs; those run serially.  A
#: large_sparse request is one instance group: the pool runs it on one
#: worker, with the instance placed in shared memory.
SWEEP_WORKERS: dict[str, int] = {
    "paper_grid": 1,
    "robustness_replay": 1,
    "large_sparse": WORKERS,
}

#: Every workload; why each exists is recorded in ``BENCHMARK.json``.
WORKLOADS = (*SWEEP_WORKERS, "daemon_mixed")


def base_seed(seed: int, request: int) -> int:
    return SEED_STRIDE * seed + request


def paper_grid_specs(seed: int, request: int) -> list:
    from repro.experiments.runner import RunSpec

    instance = base_seed(seed, request)
    alphas = (0.5, 2.0)
    # G(80, 0.075) (mean degree 6) stays at k=2: at k=3 some seeds blow
    # branch and bound up tenfold, and one such request outweighs a run's
    # median.
    return (
        [
            RunSpec(family="tree", n=40, alpha=alpha, k=k, seed=instance)
            for alpha in alphas
            for k in (2, 3)
        ]
        + [
            RunSpec(family="gnp", n=80, p=0.075, alpha=alpha, k=2, seed=instance)
            for alpha in alphas
        ]
        + [
            RunSpec(family="tree", n=16, alpha=alpha, k=k, seed=instance, usage="sum")
            for alpha in alphas
            for k in (2, 3)
        ]
    )


def large_sparse_specs(seed: int, request: int) -> list:
    from repro.experiments.runner import RunSpec

    # Two cells on one instance: a pool only runs (and the instance only
    # goes to shared memory) when a sweep has at least two tasks, and one
    # instance group keeps both on one worker.
    return [
        RunSpec(family="tree", n=1536, alpha=alpha, k=2, seed=base_seed(seed, request))
        for alpha in (1.0, 2.0)
    ]


def robustness_config(seed: int, request: int):
    from repro.experiments.config import SweepSettings
    from repro.experiments.extensions.robustness import RobustnessStudyConfig

    return RobustnessStudyConfig(
        families=("barabasi-albert",),
        n=64,
        alphas=(0.5,),
        ks=(2,),
        shocks_per_instance=2,
        settings=SweepSettings(
            num_seeds=1,
            solver="branch_and_bound",
            base_seed=base_seed(seed, request),
        ),
    )


def daemon_specs(seed: int, request: int) -> list:
    from repro.experiments.runner import RunSpec

    return [
        RunSpec(family="tree", n=16, alpha=alpha, k=2, seed=base_seed(seed, request))
        for alpha in DAEMON_ALPHAS
    ]


RUN_SPEC_GRIDS = {"paper_grid": paper_grid_specs, "large_sparse": large_sparse_specs}


def compile_request(name: str, seed: int, request: int) -> list:
    """The compiled task list of one sweep request (set-up warms this path)."""
    from repro.service.tasks import compile_robustness_tasks, compile_run_specs

    if name == "robustness_replay":
        return compile_robustness_tasks(robustness_config(seed, request))
    return compile_run_specs(RUN_SPEC_GRIDS[name](seed, request))


def run_sweep_request(name: str, seed: int, request: int, config) -> list[dict]:
    """One request of a sweep workload through the public API; its rows."""
    from repro.service.api import robustness_sweep, run_spec_sweep

    if name == "robustness_replay":
        rows, _ = robustness_sweep(robustness_config(seed, request), config)
        return rows
    specs = RUN_SPEC_GRIDS[name](seed, request)
    return [result.as_row() for result in run_spec_sweep(specs, config)]


def row_digest(rows: list[dict]) -> str:
    """Timing fields stripped, canonical JSON, sha256 (first 16 hex digits)."""
    from repro.service.tasks import strip_timing_fields

    text = json.dumps(strip_timing_fields(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_problems(rows: list[dict]) -> list[str]:
    """Rows that break the certification contract."""
    problems = []
    for position, row in enumerate(rows):
        if row.get("converged") and not row.get("certified"):
            problems.append(f"row {position}: converged but not certified")
        if row.get("warm_equals_cold") is False:
            problems.append(f"row {position}: warm recovery differs from cold")
        if row.get("outcome") in ("recovered", "unrecovered") and "warm_equals_cold" not in row:
            problems.append(f"row {position}: recovery row lacks warm_equals_cold")
    return problems


def load_golden(seed: int) -> dict[str, list[str]]:
    """Recorded row digests of ``seed``: workload -> digest per request."""
    if not BASELINE.is_file():
        return {}
    return json.loads(BASELINE.read_text())["runs"].get(str(seed), {}).get("golden", {})


def golden_problem(golden: dict, name: str, request: int, digest: str) -> str | None:
    """Mismatch against the recorded digest of this request, if one exists."""
    known = golden.get(name, [])
    if request < len(known) and known[request] != digest:
        return f"request {request}: row digest {digest} != golden {known[request]}"
    return None
