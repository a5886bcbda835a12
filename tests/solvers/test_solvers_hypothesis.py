"""Property-based tests for the combinatorial solvers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.set_cover import (
    SetCoverInstance,
    branch_and_bound_set_cover,
    greedy_set_cover,
    milp_set_cover,
)


@st.composite
def set_cover_instances(draw):
    num_candidates = draw(st.integers(min_value=1, max_value=8))
    num_elements = draw(st.integers(min_value=0, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    density = draw(st.floats(min_value=0.1, max_value=0.8))
    rng = np.random.default_rng(seed)
    coverage = rng.random((num_candidates, num_elements)) < density
    forced = ()
    if num_candidates > 1 and draw(st.booleans()):
        forced = (draw(st.integers(min_value=0, max_value=num_candidates - 1)),)
    return SetCoverInstance(coverage=coverage, forced=forced)


class TestSetCoverProperties:
    @given(set_cover_instances())
    @settings(max_examples=60, deadline=None)
    def test_exact_solvers_agree(self, instance):
        milp = milp_set_cover(instance)
        bnb = branch_and_bound_set_cover(instance)
        assert milp.feasible == bnb.feasible
        if milp.feasible:
            assert milp.objective == bnb.objective

    @given(set_cover_instances())
    @settings(max_examples=60, deadline=None)
    def test_solutions_are_feasible_covers(self, instance):
        for solver in (milp_set_cover, branch_and_bound_set_cover, greedy_set_cover):
            result = solver(instance)
            if result.feasible:
                assert instance.is_feasible_selection(set(result.selected))

    @given(set_cover_instances())
    @settings(max_examples=60, deadline=None)
    def test_greedy_never_beats_exact(self, instance):
        greedy = greedy_set_cover(instance)
        exact = branch_and_bound_set_cover(instance)
        assert greedy.feasible == exact.feasible
        if exact.feasible:
            assert greedy.objective >= exact.objective

    @given(set_cover_instances())
    @settings(max_examples=40, deadline=None)
    def test_forced_candidates_never_selected(self, instance):
        result = branch_and_bound_set_cover(instance)
        if result.feasible:
            assert not (set(result.selected) & set(instance.forced))
