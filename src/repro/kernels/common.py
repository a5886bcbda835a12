"""Constants shared by every kernel backend.

These live here (not in :mod:`repro.graphs.traversal`) so the backend
modules can import them without pulling in the graph layer — the kernels
operate on flat arrays only and must stay importable from anywhere in the
dependency graph.  :mod:`repro.graphs.traversal` re-exports both names for
backwards compatibility.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UNREACHABLE", "MAX_EXPANSION_INCIDENCES", "COST_EPS"]

#: Sentinel distance used in dense matrices for unreachable pairs.
UNREACHABLE: int = np.iinfo(np.int32).max

#: Cap on the (frontier vertex, neighbour) incidences expanded per NumPy
#: batch inside the numpy BFS backend.  Wide BFS levels are cut into chunks
#: of at most this many incidences, bounding the kernel's transient scratch
#: (a handful of int64 arrays of this length, ~0.5 MB each at the default)
#: independently of how many sources are in flight; chunking does not change
#: results because pairs discovered by an earlier chunk are marked visited
#: before the next chunk expands.  The compiled backends ignore it — their
#: scratch is O(n) per source by construction.
MAX_EXPANSION_INCIDENCES: int = 1 << 16

#: Numerical tolerance when comparing (float) costs.  It lives here because
#: the ``max_reply`` kernels compare reply costs with it;
#: :mod:`repro.core.deviations` re-exports it for every other caller.
COST_EPS: float = 1e-9
