"""The registry series that sweepbench's per-layer metrics read are emitted.

sweepbench's traced pass derives its kernel, view-store, engine and
session-reuse rows from the deltas of the default registry's snapshot
around its requests.  A series nothing emits any more reads 0.0 there and
fails nothing, so this pins that every family and label it reads moves on
a small in-process sweep of each kind.
"""

import re

import pytest

from repro.experiments.config import SweepSettings
from repro.experiments.extensions.robustness import RobustnessStudyConfig
from repro.experiments.runner import RunSpec
from repro.obs import default_registry
from repro.service.api import ServiceConfig, robustness_sweep, run_spec_sweep

#: ``(family, labels)`` pairs read by ``sweepbench/harness/trial.py``.
READ_BY_SWEEPBENCH = [
    ("repro_kernel_sources_total", {"kernel": "bfs"}),
    ("repro_kernel_sources_total", {"kernel": "bfs_reduce"}),
    ("repro_view_store_ops_total", {"op": "hit"}),
    ("repro_view_store_ops_total", {"op": "miss"}),
    ("repro_engine_rounds_total", {}),
    ("repro_engine_responses_total", {"result": "computed"}),
    ("repro_engine_responses_total", {"result": "reused"}),
    ("repro_worker_cache_total", {"cache": "session"}),
]

_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _total(deltas: dict, family: str, labels: dict) -> float:
    """Sum of the ``family`` series whose labels include ``labels``."""
    total = 0
    for key, value in deltas.items():
        name, _, rest = key.partition("{")
        series = dict(_LABEL.findall(rest))
        if name == family and all(series.get(k) == v for k, v in labels.items()):
            total += value
    return total


@pytest.fixture(scope="module")
def deltas() -> dict:
    registry = default_registry()
    before = registry.snapshot()
    config = ServiceConfig(in_process=True)
    # An α-grid over one instance: the second session adopts stored views.
    run_spec_sweep(
        [RunSpec(family="tree", n=12, alpha=alpha, k=2, seed=0) for alpha in (0.5, 2.0)],
        config,
    )
    # Two operator chains per cell: the second reuses the warm session.
    robustness_sweep(
        RobustnessStudyConfig(
            families=("tree",),
            operators=("add_shortcuts", "reset_player"),
            n=10,
            alphas=(0.5,),
            ks=(2,),
            shocks_per_instance=1,
            intensity=1,
            settings=SweepSettings(num_seeds=1, solver="branch_and_bound"),
        ),
        config,
    )
    after = registry.snapshot()
    return {key: value - before.get(key, 0) for key, value in after.items()}


@pytest.mark.parametrize(
    ("family", "labels"),
    READ_BY_SWEEPBENCH,
    ids=[f"{family}{labels}" for family, labels in READ_BY_SWEEPBENCH],
)
def test_sweeps_move_every_series_sweepbench_reads(deltas, family, labels):
    assert _total(deltas, family, labels) > 0
