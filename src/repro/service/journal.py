"""Append-only, crash-safe result journal for orchestrated sweeps.

One journal lives inside the experiment directory of an
:class:`~repro.experiments.store.ExperimentStore` (the service writes the
final ``rows.csv`` / ``rows.json`` through the store when the sweep
completes; the journal is the durable record *while it runs*)::

    <store root>/<experiment>/
      manifest.json     # sweep identity: {"sweep_hash", "num_tasks"}
      journal.jsonl     # one JSON object per completed task (append-only)

Each record carries the task's ``spec_hash`` (the content hash of its full
description), its canonical ``index`` and the encoded result payload.
Appends are flushed *and fsynced* per record, so a SIGKILL mid-sweep loses
at most the record being written — and a torn trailing line is detected and
ignored on load, never propagated.

``--resume`` then means: reopen the journal, verify the manifest's
``sweep_hash`` matches the re-compiled sweep (resuming a *different* sweep
into the same journal is an error, not silent garbage), skip every task
whose ``spec_hash`` already has a record, and decode the journaled payloads
in place of re-running them.  Because fresh results round-trip through the
same codecs as journaled ones, an interrupted-then-resumed sweep assembles
exactly the row set of an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = [
    "SweepJournal",
    "TELEMETRY_KIND",
    "atomic_write_json",
    "iter_result_records",
    "iter_telemetry_records",
    "load_jsonl_records",
    "repair_torn_tail",
]

#: ``kind`` marker of the additive per-task telemetry record type.  Result
#: records keep their original shape (kind = task kind); telemetry records
#: ride the same append-only log but are skipped by every resume/collect
#: path, so journals written with telemetry on resume exactly like the old
#: format — and old journals (which simply contain none) stay valid.
TELEMETRY_KIND = "telemetry"


def iter_result_records(records: list[dict]) -> list[dict]:
    """The task-result records of a journal (telemetry records skipped)."""
    return [r for r in records if r.get("kind") != TELEMETRY_KIND]


def iter_telemetry_records(records: list[dict]) -> list[dict]:
    """The per-task telemetry summary records of a journal."""
    return [r for r in records if r.get("kind") == TELEMETRY_KIND]


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Durably replace ``path`` with ``payload`` as JSON.

    Write to a sibling temp file, fsync it, ``os.replace`` into place, then
    fsync the directory so the rename itself survives a crash.  Readers
    therefore only ever see the old or the new complete document — never a
    torn prefix.
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    with tmp_path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def load_jsonl_records(path: str | Path) -> list[dict]:
    """Parse an append-only jsonl file, skipping a torn trailing line.

    A kill landing mid-append leaves at most one unparseable line — a
    record that was never acknowledged, so dropping it is exactly correct.
    """
    path = Path(path)
    records: list[dict] = []
    if not path.exists():
        return records
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def repair_torn_tail(path: str | Path) -> None:
    """Truncate a torn (newline-less) trailing line before appending.

    Reopening in append mode would merge the *next* record into the torn
    prefix — one unparseable line, i.e. an acknowledged, fsynced record
    silently lost on the following load.  Cutting back to the last complete
    newline keeps every acknowledged record parseable.
    """
    path = Path(path)
    if not path.exists():
        return
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    cut = data.rfind(b"\n")
    with path.open("r+b") as handle:
        handle.truncate(cut + 1 if cut >= 0 else 0)


class SweepJournal:
    """Directory-backed journal of one sweep's completed task results."""

    MANIFEST_NAME = "manifest.json"
    LOG_NAME = "journal.jsonl"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / self.MANIFEST_NAME
        self.log_path = self.directory / self.LOG_NAME
        self._handle = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(
        self, sweep_hash: str, num_tasks: int, resume: bool = False
    ) -> dict[str, Any]:
        """Start (or resume) journaling; returns ``{spec_hash: payload}``.

        Without ``resume`` any existing journal in the directory is
        replaced — a fresh sweep owns the directory.  With ``resume`` the
        manifest must exist and carry the same ``sweep_hash``; the
        completed records (torn tail skipped, duplicate ``spec_hash``
        last-wins) are returned so the orchestrator can serve those tasks
        from the journal instead of re-running them.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        completed: dict[str, Any] = {}
        if resume:
            if not self.manifest_path.exists():
                raise ValueError(
                    f"cannot resume: no sweep journal in {self.directory}"
                )
            try:
                manifest = json.loads(self.manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"cannot resume: corrupt sweep manifest "
                    f"{self.manifest_path} ({exc}) — the journal directory "
                    "was damaged outside the journal's own crash model; "
                    "rerun without --resume to start the sweep over"
                ) from exc
            if manifest.get("sweep_hash") != sweep_hash:
                raise ValueError(
                    "cannot resume: the journal belongs to a different sweep "
                    f"(journaled {manifest.get('sweep_hash')!r}, "
                    f"requested {sweep_hash!r}) — same config and task list "
                    "required"
                )
            completed = self._load_completed()
            repair_torn_tail(self.log_path)
        else:
            if self.log_path.exists():
                self.log_path.unlink()
            # Atomic + fsynced: a crash mid-write must never leave a torn
            # manifest behind — --resume trusts this file to decide whether
            # the journaled records belong to the sweep being resumed.
            atomic_write_json(
                self.manifest_path,
                {
                    "format": "repro-sweep-journal",
                    "version": 1,
                    "sweep_hash": sweep_hash,
                    "num_tasks": num_tasks,
                },
            )
        self._handle = self.log_path.open("a", encoding="utf-8")
        return completed

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def append(self, spec_hash: str, index: int, kind: str, payload: Any) -> None:
        """Durably record one completed task (flush + fsync per record)."""
        if self._handle is None:
            raise RuntimeError("journal is not open")
        record = {
            "spec_hash": spec_hash,
            "index": index,
            "kind": kind,
            "payload": payload,
        }
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_telemetry(self, summary: dict) -> None:
        """Record one task's telemetry summary (additive record type).

        The record is keyed by the summary's own ``spec_hash`` and
        ``index``, so executors pass this method as ``on_telemetry``.
        Telemetry records are advisory: they share the log's durability
        but are invisible to :meth:`_load_completed`, so they never count
        as (or overwrite) a completed result on ``--resume``.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open")
        record = {
            "spec_hash": summary["spec_hash"],
            "index": summary["index"],
            "kind": TELEMETRY_KIND,
            "payload": summary,
        }
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _load_completed(self) -> dict[str, Any]:
        """Parse the journal, skipping a torn trailing line (crash artefact)."""
        return {
            record["spec_hash"]: record["payload"]
            for record in iter_result_records(load_jsonl_records(self.log_path))
        }
