"""Packaging metadata: dependencies, extras and version pinning.

The compiled kernels ship as C source inside the package, compiled on
first use with the system compiler; these tests pin the two invariants
that keep them free of packaging: no dependency or extra drags in a
compiled toolchain, and importing / resolving kernels always yields a
working backend.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project() -> dict:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_version_matches_package():
    assert _project()["version"] == repro.__version__


def test_no_kernels_extra():
    extras = _project()["optional-dependencies"]
    assert "kernels" not in extras
    assert all("numba" not in dep for dep in _project()["dependencies"])


def test_kernels_import_resolves_a_working_backend():
    """With or without a C compiler, the kernels package imports and
    resolves a working backend — a missing compiler degrades, never breaks."""
    from repro.kernels import available_backends, resolve_backend

    assert "numpy" in available_backends()
    backend = resolve_backend(None)
    assert backend.name in {"native", "numpy"}
    assert callable(backend.bfs) and callable(backend.cover_search)
