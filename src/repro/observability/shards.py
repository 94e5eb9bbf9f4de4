"""Worker-shard protocol: per-process JSONL streams folded into a run's files.

A run directory holds two record streams: ``events``, the run timeline
(:data:`repro.observability.events.EVENT_SHARDS`), and ``trace``, the
completed spans (:data:`repro.observability.tracing.TRACE_SHARDS`).  The
coordinating process writes ``<stream>.jsonl``; every pool worker process
appends to its own ``<stream>.worker-<pid>.jsonl`` shard, so no two
processes ever write the same file.  Both streams share one protocol:

- one compact JSON object per line (:func:`write_jsonl`);
- one line reader (:func:`read_jsonl`) that can drop a truncated final
  line — a writer mid-line, or a worker killed mid-write — and fails
  loudly on corruption anywhere else;
- one merge (:meth:`ShardStream.merge`): a shard record joins the main
  file unless a record with its de-duplication key is already there, the
  union is stably ordered by ``ts`` and rewritten atomically, so
  re-merging a finalized run changes nothing;
- one live reader (:meth:`ShardStream.read_live`) computing the same
  union in memory while the run is still in flight.

Shard files stay on disk after a merge as the per-worker forensic record.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)


def write_jsonl(path: str | Path, records: list[dict], append: bool = False) -> int:
    """Write records one compact JSON object per line; returns the count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        for rec in records:
            json.dump(rec, fh, separators=(",", ":"))
            fh.write("\n")
    return len(records)


def read_jsonl(
    path: str | Path,
    check: Callable[[object], None] | None = None,
    tolerate_truncated_tail: bool = False,
) -> list:
    """Parse a JSONL file, passing each record through ``check``.

    Raises ``ValueError`` naming the first line that is not JSON or that
    ``check`` rejects (by raising ``ValueError``).  With
    ``tolerate_truncated_tail`` such a line is dropped instead when it is
    the *final* line — the mode for files a writer may still be appending
    to.  Corruption anywhere else fails either way.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"not valid JSON ({exc})") from exc
            if check is not None:
                check(record)
        except ValueError as exc:
            if tolerate_truncated_tail and lineno == len(lines):
                logger.debug("%s:%d: dropping truncated tail line (%s)", path, lineno, exc)
                break
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        records.append(record)
    return records


def canonical_json(record: dict) -> str:
    """A record as one key-sorted compact JSON line: its identity."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _ts(record: dict) -> float:
    return record.get("ts", 0.0)


@dataclass(frozen=True)
class ShardStream:
    """One record stream of a run directory and how its shards fold in.

    ``read`` parses one file of the stream, dropping a truncated final
    line; ``key`` names a record's identity for de-duplication.
    """

    name: str
    read: Callable[[Path], list[dict]]
    key: Callable[[dict], object] = canonical_json

    def main_path(self, run_dir: str | Path) -> Path:
        return Path(run_dir) / f"{self.name}.jsonl"

    def shard_path(self, run_dir: str | Path, worker_id: int) -> Path:
        return Path(run_dir) / f"{self.name}.worker-{worker_id}.jsonl"

    def merge(self, run_dir: str | Path) -> int:
        """Fold the worker shards into the main file; returns records added.

        Main-file records stay as they are.  When no shard record is new,
        the main file is left untouched (not rewritten), so a second merge
        is a byte-for-byte no-op.
        """
        main = self.main_path(run_dir)
        records = self.read(main) if main.exists() else []
        fresh = self._unseen(run_dir, records, self.read)
        if not fresh:
            return 0
        tmp = main.with_suffix(f".tmp-{os.getpid()}")
        write_jsonl(tmp, sorted(records + fresh, key=_ts))
        os.replace(tmp, main)
        logger.info("merged %d %s record(s) into %s", len(fresh), self.name, main)
        return len(fresh)

    def read_live(self, run_dir: str | Path, include_shards: bool) -> list[dict]:
        """The main file plus the shard records it lacks, ``ts``-ordered.

        What :meth:`merge` would write, computed in memory; an unreadable
        file is logged and skipped so one bad shard never hides the rest.
        Pass ``include_shards=False`` for a run whose shards are merged.
        """
        main = self.main_path(run_dir)
        records = self._read_or_skip(main) if main.exists() else []
        if include_shards:
            records += self._unseen(run_dir, records, self._read_or_skip)
        records.sort(key=_ts)
        return records

    def _read_or_skip(self, path: Path) -> list[dict]:
        try:
            return self.read(path)
        except (OSError, ValueError) as exc:
            logger.warning("unreadable %s file %s: %s", self.name, path, exc)
            return []

    def _unseen(self, run_dir: str | Path, known: list[dict], read) -> list[dict]:
        seen = {self.key(rec) for rec in known}
        fresh: list[dict] = []
        for shard in sorted(Path(run_dir).glob(f"{self.name}.worker-*.jsonl")):
            for rec in read(shard):
                key = self.key(rec)
                if key not in seen:
                    seen.add(key)
                    fresh.append(rec)
        return fresh
