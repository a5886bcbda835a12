"""Tests for the set-cover solvers (greedy, branch-and-bound, MILP)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends, get_backend
from repro.solvers.set_cover import (
    SOLVERS,
    SetCoverInstance,
    branch_and_bound_set_cover,
    greedy_set_cover,
    milp_set_cover,
    solve_set_cover,
)

EXACT_SOLVERS = ["milp", "branch_and_bound"]
ALL_SOLVERS = list(SOLVERS)


def make_instance(sets, num_elements, forced=(), labels=None):
    coverage = np.zeros((len(sets), num_elements), dtype=bool)
    for row, elements in enumerate(sets):
        for element in elements:
            coverage[row, element] = True
    return SetCoverInstance(
        coverage=coverage,
        forced=tuple(forced),
        candidate_labels=labels or [],
    )


class TestInstanceValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SetCoverInstance(coverage=np.zeros(3, dtype=bool))

    def test_rejects_bad_forced_index(self):
        with pytest.raises(ValueError):
            SetCoverInstance(coverage=np.zeros((2, 2), dtype=bool), forced=(5,))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            SetCoverInstance(
                coverage=np.zeros((2, 2), dtype=bool), candidate_labels=["a"]
            )

    def test_residual(self):
        instance = make_instance([{0, 1}, {2}], 3, forced=(0,))
        free, uncovered = instance.residual()
        assert list(free) == [1]
        assert list(uncovered) == [2]

    def test_is_feasible_selection(self):
        instance = make_instance([{0}, {1}], 2)
        assert instance.is_feasible_selection({0, 1})
        assert not instance.is_feasible_selection({0})


class TestTrivialCases:
    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_no_elements(self, method):
        instance = SetCoverInstance(coverage=np.zeros((3, 0), dtype=bool))
        result = solve_set_cover(instance, method)
        assert result.feasible
        assert result.objective == 0

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_forced_sets_cover_everything(self, method):
        instance = make_instance([{0, 1, 2}, {0}], 3, forced=(0,))
        result = solve_set_cover(instance, method)
        assert result.feasible
        assert result.objective == 0
        assert result.selected == ()

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_uncoverable_element_infeasible(self, method):
        instance = make_instance([{0}], 2)
        result = solve_set_cover(instance, method)
        assert not result.feasible

    @pytest.mark.parametrize("method", ALL_SOLVERS)
    def test_no_candidates_infeasible(self, method):
        instance = SetCoverInstance(coverage=np.zeros((0, 2), dtype=bool))
        result = solve_set_cover(instance, method)
        assert not result.feasible


class TestExactness:
    @pytest.mark.parametrize("method", EXACT_SOLVERS)
    def test_single_big_set_preferred(self, method):
        instance = make_instance([{0}, {1}, {2}, {0, 1, 2}], 3)
        result = solve_set_cover(instance, method)
        assert result.objective == 1
        assert result.selected == (3,)
        assert result.optimal

    @pytest.mark.parametrize("method", EXACT_SOLVERS)
    def test_greedy_trap(self, method):
        # Classical instance where greedy picks the large set but the optimum
        # is the two disjoint sets.
        sets = [{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}]
        instance = make_instance(sets, 6)
        result = solve_set_cover(instance, method)
        assert result.objective == 2
        assert set(result.selected) == {1, 2}

    @pytest.mark.parametrize("method", EXACT_SOLVERS)
    def test_forced_sets_do_not_count(self, method):
        sets = [{0, 1}, {2, 3}, {4}]
        instance = make_instance(sets, 5, forced=(0,))
        result = solve_set_cover(instance, method)
        assert result.objective == 2
        assert set(result.selected) == {1, 2}

    def test_selected_labels(self):
        instance = make_instance([{0}, {1}], 2, labels=["a", "b"])
        result = branch_and_bound_set_cover(instance)
        assert sorted(result.selected_labels(instance)) == ["a", "b"]

    def test_unknown_method(self):
        instance = make_instance([{0}], 1)
        with pytest.raises(ValueError):
            solve_set_cover(instance, "quantum")


class TestGreedy:
    def test_greedy_feasible(self):
        instance = make_instance([{0, 1}, {1, 2}, {2, 3}], 4)
        result = greedy_set_cover(instance)
        assert result.feasible
        assert instance.is_feasible_selection(set(result.selected))
        assert not result.optimal

    def test_greedy_logarithmic_guarantee_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            num_candidates, num_elements = 12, 10
            coverage = rng.random((num_candidates, num_elements)) < 0.3
            coverage[0] |= ~coverage.any(axis=0)  # make feasible
            instance = SetCoverInstance(coverage=coverage)
            greedy = greedy_set_cover(instance)
            exact = branch_and_bound_set_cover(instance)
            assert greedy.feasible and exact.feasible
            assert greedy.objective >= exact.objective
            harmonic = np.log(num_elements) + 1
            assert greedy.objective <= harmonic * exact.objective + 1e-9


@st.composite
def monotone_instance_chains(draw):
    """A chain of instances whose coverage only ever grows.

    Mirrors the best-response ``h`` loop: same candidates and elements
    throughout, each step OR-ing extra coverage onto the previous matrix
    (``dist <= h - 1`` grows pointwise in ``h``), with an optional shared
    forced set.
    """
    num_candidates = draw(st.integers(min_value=2, max_value=8))
    num_elements = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    steps = draw(st.integers(min_value=2, max_value=5))
    forced = (0,) if draw(st.booleans()) else ()
    rng = np.random.default_rng(seed)
    coverage = rng.random((num_candidates, num_elements)) < 0.25
    chain = []
    for _ in range(steps):
        coverage = coverage | (rng.random(coverage.shape) < 0.25)
        chain.append(SetCoverInstance(coverage=coverage.copy(), forced=forced))
    return chain


class TestWarmStart:
    @given(monotone_instance_chains())
    @settings(max_examples=60, deadline=None)
    def test_warm_cost_equals_cold_cost_along_monotone_chain(self, chain):
        """Seeding each solve with the previous solution never changes cost."""
        previous = None
        for instance in chain:
            cold = branch_and_bound_set_cover(instance)
            warm = branch_and_bound_set_cover(instance, warm_start=previous)
            assert warm.feasible == cold.feasible
            if cold.feasible:
                assert warm.objective == cold.objective
                assert instance.is_feasible_selection(set(warm.selected))
                previous = warm.selected

    @given(monotone_instance_chains())
    @settings(max_examples=30, deadline=None)
    def test_warm_start_agrees_across_solvers(self, chain):
        previous = None
        for instance in chain:
            milp = solve_set_cover(instance, "milp", warm_start=previous)
            bnb = solve_set_cover(instance, "branch_and_bound", warm_start=previous)
            assert milp.feasible == bnb.feasible
            if bnb.feasible:
                assert milp.objective == bnb.objective
                previous = bnb.selected

    def test_garbage_warm_start_is_ignored(self):
        instance = make_instance([{0}, {1}, {0, 1}], 2)
        for junk in [(), (99,), (0,)]:  # empty, out of range, not a cover
            result = branch_and_bound_set_cover(instance, warm_start=junk)
            assert result.feasible
            assert result.objective == 1

    def test_forced_index_in_warm_start_is_ignored(self):
        instance = make_instance([{0, 1}, {0}, {1}], 2, forced=(0,))
        result = branch_and_bound_set_cover(instance, warm_start=(0,))
        assert result.feasible
        assert result.objective == 0

    def test_warm_start_preferred_on_ties(self):
        # Two optimal covers of size 1: greedy picks candidate 0 (first
        # argmax), the warm start pins candidate 1.
        instance = make_instance([{0, 1}, {0, 1}], 2)
        cold = branch_and_bound_set_cover(instance)
        warm = branch_and_bound_set_cover(instance, warm_start=(1,))
        assert cold.selected == (0,)
        assert warm.selected == (1,)
        assert warm.objective == cold.objective

    def test_upper_bound_below_optimum_reports_infeasible(self):
        # The caller's "only covers of size < 2 are useful" contract: the
        # optimum is 2, so a capped search comes back empty-handed.
        instance = make_instance([{0}, {1}], 2)
        result = branch_and_bound_set_cover(instance, upper_bound=1)
        assert not result.feasible
        uncapped = branch_and_bound_set_cover(instance)
        assert uncapped.feasible and uncapped.objective == 2


class TestCrossSolverAgreement:
    def test_random_instances_agree(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            num_candidates = int(rng.integers(3, 10))
            num_elements = int(rng.integers(1, 9))
            coverage = rng.random((num_candidates, num_elements)) < 0.35
            forced = (0,) if rng.random() < 0.3 else ()
            instance = SetCoverInstance(coverage=coverage, forced=forced)
            milp = milp_set_cover(instance)
            bnb = branch_and_bound_set_cover(instance)
            assert milp.feasible == bnb.feasible
            if milp.feasible:
                assert milp.objective == bnb.objective
                assert instance.is_feasible_selection(set(milp.selected))
                assert instance.is_feasible_selection(set(bnb.selected))


class TestWarmStartHintGuards:
    """Hints handed to a solver that cannot consume them must warn loudly.

    The engine path defaults to ``branch_and_bound`` precisely because it is
    the only exact solver honouring ``warm_start`` / ``upper_bound``; a
    silent fallthrough on ``milp`` is the bug this PR fixes.
    """

    def _instance(self):
        return make_instance([{0, 1}, {1, 2}, {0, 2}], 3)

    def test_warm_start_solvers_registry(self):
        from repro.solvers.set_cover import WARM_START_SOLVERS

        assert WARM_START_SOLVERS == {"branch_and_bound"}
        assert WARM_START_SOLVERS <= set(SOLVERS)

    @pytest.mark.parametrize("hint", [{"warm_start": [0, 1]}, {"upper_bound": 2}])
    def test_milp_warns_on_dead_hints(self, hint):
        with pytest.warns(RuntimeWarning, match="cannot consume"):
            result = solve_set_cover(self._instance(), method="milp", **hint)
        assert result.feasible
        assert result.objective == 2

    def test_greedy_accepts_hints_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_set_cover(
                self._instance(), method="greedy", warm_start=[0, 1], upper_bound=3
            )
        assert result.feasible

    def test_branch_and_bound_consumes_hints_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_set_cover(
                self._instance(), method="branch_and_bound", warm_start=[0, 1]
            )
        assert result.feasible
        assert result.objective == 2

    def test_no_hints_no_warning_on_milp(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_set_cover(self._instance(), method="milp")


class TestKernelBackendParity:
    """Every available kernel backend returns the *same selection*, not just
    the same objective — including warm-start tie-break order (the invariant
    the best-response ``h`` loop leans on for stable repeated solves)."""

    BACKENDS = available_backends()

    @given(monotone_instance_chains())
    @settings(max_examples=40, deadline=None)
    def test_selections_identical_across_backends(self, chain):
        for instance in chain:
            reference = branch_and_bound_set_cover(instance, backend="numpy")
            for name in self.BACKENDS:
                result = branch_and_bound_set_cover(instance, backend=name)
                assert result.feasible == reference.feasible
                assert result.selected == reference.selected
                assert result.objective == reference.objective

    @given(monotone_instance_chains())
    @settings(max_examples=30, deadline=None)
    def test_warm_started_chains_identical_across_backends(self, chain):
        """Run the whole monotone chain once per backend, warm-starting each
        step with the previous selection: the *sequences* of selections must
        coincide element for element (same tie-breaks at every step)."""
        trajectories = {}
        for name in self.BACKENDS:
            previous = None
            selections = []
            for instance in chain:
                result = branch_and_bound_set_cover(
                    instance, warm_start=previous, backend=name
                )
                selections.append(result.selected if result.feasible else None)
                if result.feasible:
                    previous = result.selected
            trajectories[name] = selections
        reference = trajectories["numpy"]
        for name, selections in trajectories.items():
            assert selections == reference, name

    @pytest.mark.parametrize("name", BACKENDS)
    def test_warm_start_preferred_on_ties(self, name):
        # Same tie as TestWarmStart.test_warm_start_preferred_on_ties: both
        # singleton covers are optimal; every backend must keep the warm one.
        instance = make_instance([{0, 1}, {0, 1}], 2)
        warm = branch_and_bound_set_cover(instance, warm_start=(1,), backend=name)
        assert warm.selected == (1,)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_upper_bound_respected(self, name):
        # Needs two sets; upper_bound=1 makes the instance unsolvable within
        # the cap on every backend alike.
        instance = make_instance([{0}, {1}], 2)
        capped = branch_and_bound_set_cover(instance, upper_bound=1, backend=name)
        assert not capped.feasible
        full = branch_and_bound_set_cover(instance, backend=name)
        assert full.feasible and full.objective == 2

    def test_backend_object_accepted(self):
        instance = make_instance([{0, 1}, {1, 2}, {0, 2}], 3)
        backend = get_backend(self.BACKENDS[-1])
        result = solve_set_cover(instance, "branch_and_bound", backend=backend)
        assert result.feasible and result.objective == 2


# ----------------------------------------------------------------------
# Selection pinning against the original wrapper logic
# ----------------------------------------------------------------------
def _reference_greedy(instance):
    """The original greedy wrapper: trivial checks, residual, greedy loop."""
    free, uncovered = instance.residual()
    if uncovered.size == 0:
        return (), True
    if free.size == 0:
        return (), False
    coverage = instance.coverage[free][:, uncovered]
    if not bool(coverage.any(axis=0).all()):
        return (), False
    remaining = np.ones(coverage.shape[1], dtype=bool)
    selected = []
    while remaining.any():
        gains = (coverage & remaining).sum(axis=1)
        best = int(np.argmax(gains))
        selected.append(int(free[best]))
        remaining &= ~coverage[best]
    return tuple(selected), True


def _reference_branch_and_bound(instance, upper_bound=None, warm_start=None):
    """The original branch-and-bound wrapper (residual -> greedy incumbent ->
    warm start -> numpy ``cover_search``), kept verbatim in spirit as the
    reference for tie-breaks."""
    from repro.kernels import numpy_backend

    greedy, feasible = _reference_greedy(instance)
    if not feasible or not greedy:
        return greedy, feasible
    free, uncovered = instance.residual()
    coverage = instance.coverage[free][:, uncovered]
    best_size = min(len(greedy), upper_bound) if upper_bound is not None else len(greedy)
    best_selection = (
        [int(np.flatnonzero(free == idx)[0]) for idx in greedy]
        if len(greedy) <= best_size
        else None
    )
    if warm_start is not None:
        selection = {int(idx) for idx in warm_start}
        position_of = {int(original): pos for pos, original in enumerate(free)}
        if (
            selection
            and selection.issubset(position_of)
            and instance.is_feasible_selection(selection)
            and len(selection) <= best_size
        ):
            best_size = len(selection)
            best_selection = [position_of[idx] for idx in sorted(selection)]
    order_by_size = np.argsort(-coverage.sum(axis=1))
    best_size, best_selection = numpy_backend.cover_search(
        coverage, order_by_size, best_size, best_selection
    )
    if best_selection is None:
        return (), False
    return tuple(int(free[idx]) for idx in best_selection), True


def _minimum_covers(instance, free):
    """Every minimum-size feasible selection of free candidates (brute force)."""
    for size in range(1, len(free) + 1):
        covers = [
            combo
            for combo in itertools.combinations(free, size)
            if instance.is_feasible_selection(set(combo))
        ]
        if covers:
            return covers
    return []


@st.composite
def hinted_instances(draw):
    """(instance, warm_start, upper_bound) spanning forced sets, valid /
    optimal / forced / out-of-range / arbitrary warm starts and caps below,
    at and above the greedy size."""
    num_candidates = draw(st.integers(min_value=1, max_value=8))
    num_elements = draw(st.integers(min_value=0, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    rng = np.random.default_rng(seed)
    coverage = rng.random((num_candidates, num_elements)) < density
    forced = tuple(
        sorted(draw(st.sets(st.integers(0, num_candidates - 1), max_size=2)))
    )
    instance = SetCoverInstance(coverage=coverage, forced=forced)
    greedy, feasible = _reference_greedy(instance)
    free = [c for c in range(num_candidates) if c not in forced]
    extra = draw(st.sets(st.sampled_from(free), max_size=3)) if free else set()
    valid = set(greedy) | extra if feasible else extra
    kind = draw(
        st.sampled_from(
            ["none", "valid", "optimal", "forced", "out_of_range", "arbitrary"]
        )
    )
    optimal = _minimum_covers(instance, free)
    warm_start = {
        "none": None,
        "valid": tuple(sorted(valid)),
        "optimal": draw(st.sampled_from(optimal)) if optimal else None,
        "forced": tuple(sorted(valid | {forced[0] if forced else 0})),
        "out_of_range": tuple(sorted(valid | {num_candidates + seed % 3})),
        "arbitrary": tuple(
            draw(st.lists(st.integers(-1, num_candidates), max_size=4))
        ),
    }[kind]
    shift = draw(st.sampled_from([None, -2, -1, 0, 1]))
    upper_bound = None if shift is None else max(len(greedy) + shift, 0)
    return instance, warm_start, upper_bound


class TestSelectionPinning:
    """Selections — not just costs — equal the original wrapper's on every
    hint combination, so a changed tie-break cannot slip through."""

    @given(hinted_instances())
    @settings(max_examples=200, deadline=None)
    def test_branch_and_bound_selection_matches_reference(self, case):
        instance, warm_start, upper_bound = case
        expected, feasible = _reference_branch_and_bound(
            instance, upper_bound=upper_bound, warm_start=warm_start
        )
        for name in available_backends():
            result = branch_and_bound_set_cover(
                instance, upper_bound=upper_bound, warm_start=warm_start, backend=name
            )
            assert result.feasible == feasible
            assert result.selected == expected

    @given(hinted_instances())
    @settings(max_examples=100, deadline=None)
    def test_greedy_selection_matches_reference(self, case):
        instance, warm_start, upper_bound = case
        expected, feasible = _reference_greedy(instance)
        result = greedy_set_cover(
            instance, upper_bound=upper_bound, warm_start=warm_start
        )
        assert result.feasible == feasible
        assert result.selected == expected
