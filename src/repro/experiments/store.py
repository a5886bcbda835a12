"""On-disk store for experiment outputs (rows, metadata, equilibrium checkpoints).

The figure and extension harnesses return plain row dictionaries; the CLI
and the benchmarks dump them to loose CSV files.  For longer campaigns —
running the paper grids overnight, comparing solver variants, re-analysing
equilibria with the structural tools — a little more organisation pays off.
:class:`ExperimentStore` keeps one directory per named experiment::

    <root>/
      index.json                  # experiment name -> summary (rows, when, config)
      <experiment>/
        rows.csv                  # the aggregated series (CSV, paper-style)
        rows.json                 # the same rows, exact types preserved
        meta.json                 # free-form configuration / provenance record
        checkpoints/<label>.json  # optional dynamics checkpoints (final profiles)

Reading functions (:func:`read_csv_rows`, :func:`read_json_rows`) invert the
writers of :mod:`repro.experiments.io`, including the ``inf`` / ``nan``
string escapes, so a store round-trip returns numerically usable rows.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.games import GameSpec
from repro.core.serialization import read_dynamics_checkpoint
from repro.core.strategies import StrategyProfile
from repro.experiments.io import write_csv, write_json

__all__ = ["read_csv_rows", "read_json_rows", "ExperimentStore"]


def _parse_scalar(text: str):
    """Parse one CSV cell back into bool / int / float / str."""
    if text == "":
        return None
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered == "inf":
        return math.inf
    if lowered == "-inf":
        return -math.inf
    if lowered == "nan":
        return math.nan
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv_rows(path: str | Path) -> list[dict]:
    """Read a CSV written by :func:`repro.experiments.io.write_csv`."""
    import csv

    target = Path(path)
    text = target.read_text()
    if not text.strip():
        return []
    with target.open(newline="") as handle:
        reader = csv.DictReader(handle)
        return [
            {key: _parse_scalar(value) for key, value in row.items()} for row in reader
        ]


def read_json_rows(path: str | Path) -> list[dict]:
    """Read a JSON array written by :func:`repro.experiments.io.write_json`."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError("expected a JSON array of rows")
    rows: list[dict] = []
    for row in payload:
        rows.append(
            {
                key: (_parse_scalar(value) if isinstance(value, str) else value)
                for key, value in row.items()
            }
        )
    return rows


class ExperimentStore:
    """Directory-backed store of named experiment results.

    Parameters
    ----------
    root:
        Directory holding the store (created on first save).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Index handling
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def _read_index(self) -> dict:
        if not self.index_path.exists():
            return {}
        return json.loads(self.index_path.read_text())

    def _write_index(self, index: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path.write_text(json.dumps(index, indent=2, sort_keys=True))

    def list_experiments(self) -> list[str]:
        """Names of the stored experiments (sorted)."""
        return sorted(self._read_index())

    def describe(self, name: str) -> dict:
        """Index entry of one experiment (row count, config, ...)."""
        index = self._read_index()
        if name not in index:
            raise KeyError(f"experiment {name!r} is not in the store")
        return index[name]

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def _experiment_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid experiment name {name!r}")
        return self.root / name

    def experiment_dir(self, name: str) -> Path:
        """Validated directory of one experiment (not created here).

        The sweep service layers its append-only journal
        (:class:`repro.service.journal.SweepJournal`) inside this
        directory, next to where :meth:`save_rows` later lands the final
        ``rows.csv`` / ``rows.json``.
        """
        return self._experiment_dir(name)

    def save_rows(self, name: str, rows: list[dict], config: dict | None = None) -> Path:
        """Persist the rows (CSV + JSON) and the optional configuration record."""
        directory = self._experiment_dir(name)
        directory.mkdir(parents=True, exist_ok=True)
        write_csv(rows, directory / "rows.csv")
        write_json(rows, directory / "rows.json")
        meta = {"config": config or {}, "num_rows": len(rows)}
        (directory / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True, default=str))
        index = self._read_index()
        index[name] = {
            "num_rows": len(rows),
            "columns": sorted({key for row in rows for key in row}),
            "has_checkpoints": (directory / "checkpoints").exists(),
        }
        self._write_index(index)
        return directory

    def load_rows(self, name: str) -> list[dict]:
        """Load the rows of a stored experiment (JSON copy, exact types)."""
        directory = self._experiment_dir(name)
        json_path = directory / "rows.json"
        if not json_path.exists():
            raise KeyError(f"experiment {name!r} has no stored rows")
        return read_json_rows(json_path)

    def load_config(self, name: str) -> dict:
        """Load the configuration record saved next to the rows."""
        meta_path = self._experiment_dir(name) / "meta.json"
        if not meta_path.exists():
            raise KeyError(f"experiment {name!r} has no metadata")
        return json.loads(meta_path.read_text()).get("config", {})

    # ------------------------------------------------------------------
    # Equilibrium checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint_document(self, name: str, label: str, document: dict) -> Path:
        """Store a serialised dynamics checkpoint document under ``label``.

        ``document`` is :func:`~repro.core.serialization.
        dynamics_result_to_dict` of one run.  The sweep service journals
        these documents (not live :class:`~repro.core.dynamics.
        DynamicsResult` objects), so a resumed sweep can persist a
        checkpoint whose engine no longer exists.
        """
        if document.get("format") != "repro-dynamics-result":
            raise ValueError("document is not a repro-dynamics-result checkpoint")
        directory = self._experiment_dir(name) / "checkpoints"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{label}.json"
        path.write_text(json.dumps(document, indent=2), encoding="utf-8")
        index = self._read_index()
        entry = index.setdefault(name, {"num_rows": 0, "columns": []})
        entry["has_checkpoints"] = True
        self._write_index(index)
        return path

    def load_checkpoint(self, name: str, label: str) -> tuple[StrategyProfile, GameSpec, dict]:
        """Load a checkpoint saved by :meth:`save_checkpoint_document`."""
        path = self._experiment_dir(name) / "checkpoints" / f"{label}.json"
        if not path.exists():
            raise KeyError(f"experiment {name!r} has no checkpoint {label!r}")
        return read_dynamics_checkpoint(path)

    def list_checkpoints(self, name: str) -> list[str]:
        """Labels of the checkpoints stored for one experiment."""
        directory = self._experiment_dir(name) / "checkpoints"
        if not directory.exists():
            return []
        return sorted(path.stem for path in directory.glob("*.json"))
