"""Combinatorial optimization solvers.

The only NP-hard subproblem of the reproduction is the exact best-response
computation of Section 5.3, which the paper reduces to a *constrained minimum
dominating set* (equivalently a set-cover instance with some sets forced into
the solution) and solves with Gurobi.  Since Gurobi is unavailable offline we
provide three interchangeable solvers:

* :func:`~repro.solvers.set_cover.milp_set_cover` — the same 0/1 integer
  program, solved exactly with ``scipy.optimize.milp`` (HiGHS);
* :func:`~repro.solvers.set_cover.branch_and_bound_set_cover` — a from-scratch
  exact branch-and-bound solver used as a cross-check and as a fallback when
  SciPy's MILP backend is unavailable;
* :func:`~repro.solvers.set_cover.greedy_set_cover` — the classical
  ``ln n``-approximation, exposed for the solver-quality ablation bench.

Best responses build the constrained dominating set as a
:class:`~repro.solvers.set_cover.SetCoverInstance` directly (see
:func:`repro.core.best_response.best_response_max`).  The SumNCG reply —
an exact enumeration for small strategy spaces, a hill climb beyond —
lives in :mod:`repro.solvers.sum_reply`.
"""

from repro.solvers.set_cover import (
    SetCoverInstance,
    SetCoverResult,
    greedy_set_cover,
    branch_and_bound_set_cover,
    milp_set_cover,
    solve_set_cover,
)
__all__ = [
    "SetCoverInstance",
    "SetCoverResult",
    "greedy_set_cover",
    "branch_and_bound_set_cover",
    "milp_set_cover",
    "solve_set_cover",
]
