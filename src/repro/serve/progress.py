"""Per-job progress streaming over the obs JSONL trace format.

Each running job gets its own trace file in the server's spool
directory, written *incrementally*: a schema header on open, then one
line per event, flushed as it happens.  The file is a valid obs trace
at every instant (:func:`repro.obs.read_trace` can load a prefix of a
live job), which is what makes tailing it the transport for progress
streaming — the server's watch loop and any out-of-band ``tail -f``
see the same bytes.

Three pieces:

* :class:`TraceStreamWriter` — the append-and-flush JSONL writer
  (thread-safe: the executor thread and the event loop both emit);
* :class:`StreamingTraceSink` — an obs :class:`~repro.obs.TraceSink`
  that forwards every appended record to a writer, so engines wired to
  a job's :class:`~repro.obs.Observability` handle stream for free;
* :class:`TraceTail` — the incremental reader: remembers its byte
  offset and returns only records appended since the last poll;
* :class:`ProgressStats` — a :class:`~repro.runner.RunnerStats` whose
  ``record`` also reports one finished work unit to a callback, which
  the server turns into a ``job_progress`` trace event.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable

from ..obs.trace import SCHEMA_VERSION, TraceRecord, TraceSink
from ..runner.instrumentation import RunnerStats

__all__ = [
    "TraceStreamWriter",
    "StreamingTraceSink",
    "TraceTail",
    "ProgressStats",
]


class TraceStreamWriter:
    """Appends obs trace records to a JSONL file, one flush per record.

    The header goes out on construction so the file is decodable from
    the first byte.  ``write`` is safe to call from any thread; closing
    is idempotent and later writes are silently dropped (a job may
    still be flushing its last records while the server tears the spool
    down).
    """

    def __init__(self, path: str | Path, *, meta: dict | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        header = {"schema_version": SCHEMA_VERSION}
        if meta:
            header.update(meta)
        self._fh = self.path.open("w")
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")
        self._fh.flush()

    def write(self, record: TraceRecord) -> None:
        line = json.dumps(record.to_json_obj(), sort_keys=True) + "\n"
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "TraceStreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamingTraceSink(TraceSink):
    """A trace sink that mirrors every appended record to a writer.

    The in-memory cap (``max_records``) still applies to what the sink
    *retains*; the file keeps the full stream, so the writer is the
    authoritative record and the memory copy is a bounded working set.
    """

    def __init__(self, writer: TraceStreamWriter,
                 max_records: int | None = None):
        super().__init__(max_records=max_records)
        self.writer = writer

    def append(self, record: TraceRecord) -> None:
        super().append(record)
        self.writer.write(record)


class TraceTail:
    """Incremental reader over a live streamed trace file.

    ``poll()`` returns the records appended since the previous call,
    tolerating a partially written final line (it is left for the next
    poll).  The header line is validated once and not returned.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._offset = 0
        self._buffer = b""
        self._header: dict | None = None

    @property
    def header(self) -> dict | None:
        """The trace header, once the first poll has seen it."""
        return self._header

    def poll(self) -> list[TraceRecord]:
        try:
            with self.path.open("rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except FileNotFoundError:
            return []
        self._offset += len(chunk)
        self._buffer += chunk
        records: list[TraceRecord] = []
        while True:
            line, sep, rest = self._buffer.partition(b"\n")
            if not sep:
                break
            self._buffer = rest
            if not line.strip():
                continue
            obj = json.loads(line)
            if self._header is None:
                version = obj.get("schema_version")
                if version != SCHEMA_VERSION:
                    raise ValueError(
                        f"{self.path}: unsupported trace schema_version "
                        f"{version!r} (expected {SCHEMA_VERSION})")
                self._header = obj
                continue
            records.append(TraceRecord.from_json_obj(obj))
        return records


class ProgressStats(RunnerStats):
    """Runner stats that report each finished work unit as progress.

    The parallel runner calls ``record`` in the parent process as
    results come back, so the callback fires once per completed unit —
    ``on_unit(done, label, cached)`` — from whatever thread is driving
    the job.  The server's callback turns that into a ``job_progress``
    trace event on the job's stream.
    """

    def __init__(self, on_unit: Callable[[int, str, bool], None],
                 **kwargs):
        super().__init__(**kwargs)
        self._on_unit = on_unit

    def record(self, label: str, wall: float, *,
               cached: bool = False) -> None:
        super().record(label, wall, cached=cached)
        self._on_unit(len(self.points), label, cached)
