"""Parameter grids of the experimental evaluation (Section 5.1-5.2).

The paper sweeps:

* ``α ∈ {0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1, 1.5, 2, 3, 5, 7, 10}``
* ``k ∈ {2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30, 1000}`` (``k = 1000`` plays the
  role of full knowledge),
* random trees with ``n ∈ {20, 30, 50, 70, 100, 200}`` and Erdős–Rényi graphs
  with the six ``(n, p)`` pairs of Table II,
* 20 independent instances per parameter combination.

Running the full ~36 000-dynamics sweep takes hours; every figure harness
therefore ships two grids — ``paper`` (exact) and ``smoke`` (reduced sizes
and seed counts, same structure) — selected by the benchmark/CLI layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "PAPER_ALPHAS",
    "PAPER_KS",
    "PAPER_TREE_SIZES",
    "PAPER_GNP_PARAMETERS",
    "PAPER_NUM_SEEDS",
    "FULL_KNOWLEDGE_K",
    "SMOKE_NUM_SEEDS",
    "SweepSettings",
    "resolve_workers",
]

#: α grid of Section 5.1.
PAPER_ALPHAS: tuple[float, ...] = (
    0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1, 1.5, 2, 3, 5, 7, 10,
)

#: k grid of Section 5.1 (1000 ≙ full knowledge for the instance sizes used).
PAPER_KS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30, 1000)

#: The k value the paper uses to emulate the classical full-knowledge game.
FULL_KNOWLEDGE_K: int = 1000

#: Random-tree sizes of Table I.
PAPER_TREE_SIZES: tuple[int, ...] = (20, 30, 50, 70, 100, 200)

#: Erdős–Rényi parameters of Table II.
PAPER_GNP_PARAMETERS: tuple[tuple[int, float], ...] = (
    (100, 0.060),
    (100, 0.100),
    (100, 0.200),
    (200, 0.035),
    (200, 0.050),
    (200, 0.100),
)

#: Instances per parameter combination in the paper.
PAPER_NUM_SEEDS: int = 20

#: Instances per combination in the reduced smoke grids.
SMOKE_NUM_SEEDS: int = 3


def resolve_workers(workers: int | None) -> int:
    """Translate a worker request into a concrete positive process count.

    ``None`` and ``0`` mean "use every available core"; negative values are
    rejected.  The result is always at least 1.
    """
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValueError("workers must be None or a non-negative integer")
    return max(1, workers)


@dataclass(frozen=True)
class SweepSettings:
    """Execution settings shared by every figure/table harness.

    Attributes
    ----------
    num_seeds:
        Number of independent random instances per parameter cell.
    solver:
        Best-response solver (``"branch_and_bound"`` — the engine default,
        the only exact solver that consumes warm starts — ``"milp"``,
        ``"greedy"``).
    max_rounds:
        Round cap of the dynamics (the paper's runs converge within ~8).
    workers:
        Process count for the sweep (1 = in the calling process; ``0`` =
        every core, see :func:`resolve_workers`).
    base_seed:
        Offset applied to every per-instance seed so different studies use
        disjoint random streams.
    """

    num_seeds: int = PAPER_NUM_SEEDS
    #: Mirrors :data:`repro.core.best_response.ENGINE_DEFAULT_SOLVER` (kept
    #: literal so this module stays import-free).
    solver: str = "branch_and_bound"
    max_rounds: int = 60
    workers: int = 1
    base_seed: int = 0

    @classmethod
    def paper(cls, workers: int = 1, solver: str = "branch_and_bound") -> "SweepSettings":
        return cls(num_seeds=PAPER_NUM_SEEDS, solver=solver, workers=workers)

    @classmethod
    def smoke(cls, workers: int = 1, solver: str = "greedy") -> "SweepSettings":
        """Reduced settings for CI: few seeds, cheap (greedy) best responses."""
        return cls(num_seeds=SMOKE_NUM_SEEDS, solver=solver, workers=workers)
