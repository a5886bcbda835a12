"""Property tests: telemetry must never change what the engine computes.

Tracing observes the dynamics; it must not perturb them.  These properties
pin that a traced run produces bit-identical trajectories and sweep rows
to an untraced one, across random instances, prices, radii and schedulers
— the contract that lets ``--telemetry`` be switched on in production
sweeps without invalidating journals or comparisons.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import best_response_dynamics
from repro.experiments.runner import RunSpec, run_spec_on_instance
from repro.graphs.generators import random_owned_tree
from repro.obs import Telemetry, set_telemetry
from repro.service.tasks import TIMING_FIELDS


def _trajectory(result):
    """Everything a dynamics run decides (profiles canonicalized)."""
    return (
        result.final_profile.canonical_key(),
        result.converged,
        result.cycled,
        result.rounds,
        result.total_changes,
        result.certified,
        [(r.round_index, r.num_changes) for r in result.round_records],
    )


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}


def _traced(run, handle: Telemetry):
    """``run()`` with ``handle`` installed process-wide, then the previous one."""
    previous = set_telemetry(handle)
    try:
        return run()
    finally:
        set_telemetry(previous)


@st.composite
def dynamics_cases(draw):
    n = draw(st.integers(min_value=6, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=500))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    k = draw(st.integers(min_value=1, max_value=3))
    ordering = draw(st.sampled_from(["fixed", "shuffled", "max_improvement"]))
    return n, seed, alpha, k, ordering


class TestTracingIdentity:
    @given(dynamics_cases())
    @settings(max_examples=25, deadline=None)
    def test_dynamics_trajectory_identical(self, case):
        n, seed, alpha, k, ordering = case
        spec = RunSpec(
            family="tree", n=n, alpha=alpha, k=k, seed=seed, ordering=ordering
        )
        owned = random_owned_tree(n, seed=seed)
        game = spec.game()

        def run():
            return best_response_dynamics(
                owned,
                game,
                max_rounds=30,
                ordering=ordering,
                seed=seed,
            )

        plain = run()
        traced_handle = Telemetry(tracing=True)
        traced = _traced(run, traced_handle)
        assert _trajectory(traced) == _trajectory(plain)
        # The traced run actually recorded something — the equality above
        # must not hold because tracing silently degraded to a no-op.
        assert traced_handle.drain_events()

    @given(dynamics_cases())
    @settings(max_examples=15, deadline=None)
    def test_sweep_row_identical(self, case):
        n, seed, alpha, k, ordering = case
        spec = RunSpec(
            family="tree", n=n, alpha=alpha, k=k, seed=seed, ordering=ordering
        )
        owned = random_owned_tree(n, seed=seed)
        plain = run_spec_on_instance(spec, owned)
        traced = _traced(
            lambda: run_spec_on_instance(spec, owned), Telemetry(tracing=True)
        )
        assert _strip(traced.as_row()) == _strip(plain.as_row())
