"""Persistent, replayable request log for the serving tier.

Load tests become reproducible artifacts: every ``/predict`` body the
:class:`~repro.serve.server.MicroBatcher` executes is appended to a
JSONL file in the workspace — one record per *executed batch*, so the
log preserves the batch boundaries the live traffic actually produced
(micro-batch composition affects nothing bit-wise, but replaying the
true boundaries keeps the replay an honest re-run of the recorded
load, and tuning the batching knobs needs the real arrival/batch
structure).

Each record is sealed with a content fingerprint
(:func:`repro.flow.manifest.seal_record`), so truncated or hand-edited
lines are detected on read instead of silently replayed.  The first
line is a header record naming the server configuration that produced
the log.

``repro serve --replay LOG`` drives :func:`replay_log`: rebuild the
requests batch by batch, push them through a fresh engine (bit-exact
with the recording engine for the same registry), and compare every
response against the recorded one.  Per-stream history starts empty on both sides (the log starts at
server start), so a clean replay asserts byte-identical response
streams.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..flow.manifest import check_record, seal_record
from ..testing import faults
from .engine import Prediction, PredictRequest

__all__ = [
    "ReplayMismatch",
    "ReplayReport",
    "RequestLog",
    "read_request_log",
    "replay_log",
]

#: Bump when the record layout changes.
LOG_VERSION = 1

#: Fingerprint namespace for sealed log records.
LOG_TAG = "serve-request-log"

SITE_APPEND = faults.register_site("requestlog.append", persistence=True)


class RequestLog:
    """Append-only JSONL log of executed prediction batches.

    Opened by the server at startup; :meth:`append_batch` is called by
    the micro-batcher's single consumer thread (no locking needed) and
    flushes + fsyncs per record, so even a ``kill -9``'d server loses
    at most the batch in flight — and a crash mid-line leaves a *torn
    final line* that :func:`read_request_log` recognizes and skips.
    Appending to an existing log continues its batch numbering —
    replay treats the whole file as one session only when the header
    count is 1.
    """

    def __init__(self, path: Union[str, Path],
                 config: Optional[Dict] = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._n_batches = 0
        self._seal_torn_tail()
        self._fh = open(self.path, "a", encoding="utf-8")
        self._write({"kind": "header", "version": LOG_VERSION,
                     "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                     "config": dict(config or {})})

    def _seal_torn_tail(self) -> None:
        """Truncate a torn final line left by a crashed writer.

        A previous process killed mid-append leaves the file without a
        trailing newline.  Appending straight after those bytes would
        fuse them with our next record into unparsable *interior*
        corruption, so the unacknowledged tail is dropped before the
        new session starts — the same record the reader would have
        skipped anyway.
        """
        try:
            with open(self.path, "r+b") as fh:
                data = fh.read()
                if not data or data.endswith(b"\n"):
                    return
                keep = data.rfind(b"\n") + 1
                fh.truncate(keep)
                fh.flush()
                os.fsync(fh.fileno())
        except FileNotFoundError:
            return
        warnings.warn(
            f"{self.path}: torn final log line (crash artifact) "
            f"truncated before appending", RuntimeWarning, stacklevel=3)

    def _write(self, record: Dict) -> None:
        line = json.dumps(seal_record(record, tag=LOG_TAG),
                          sort_keys=True, separators=(",", ":"))
        action = faults.trigger(SITE_APPEND)
        if action == "raise":
            raise faults.FaultInjected(f"fault injected at {SITE_APPEND}")
        if action == "exit":  # record never reaches the file
            os._exit(faults.EXIT_CODE)
        if action == "torn-write":  # crash mid-line: no newline lands
            self._fh.write(line[: max(1, len(line) // 2)])
            self._sync()
            os._exit(faults.TORN_EXIT_CODE)
        self._fh.write(line + "\n")
        self._sync()

    def _sync(self) -> None:
        """Flush + fsync: the batch boundary is durable, not just
        handed to the OS."""
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - exotic fs
            pass

    def append_batch(self, requests: Sequence[PredictRequest],
                     predictions: Sequence[Prediction]) -> None:
        """Record one executed batch (requests as received, pre-chain)."""
        self._n_batches += 1
        self._write({"kind": "batch", "batch": self._n_batches,
                     "ts": round(time.time(), 6),
                     "requests": [r.as_dict() for r in requests],
                     "predictions": [p.as_dict() for p in predictions]})

    def append_dropped(self, requests: Sequence[PredictRequest],
                       reason: str) -> None:
        """Record requests the server never executed (``shed`` at the
        full queue, or ``expired`` past their deadline).

        They get their own record kind so the executed stream stays
        the only thing :func:`replay_log` re-drives — dropped requests
        never advanced per-stream history live, so replaying them
        would *break* bit-exactness, but the overload itself is part
        of the recorded load and worth keeping for analysis.
        """
        if not requests:
            return
        self._write({"kind": "dropped", "reason": str(reason),
                     "ts": round(time.time(), 6),
                     "requests": [r.as_dict() for r in requests]})

    @property
    def n_batches(self) -> int:
        return self._n_batches

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RequestLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _check_log_line(path: Path, lineno: int, raw: str,
                    is_last: bool) -> Optional[Dict]:
    """Verify one raw log line; None means skip (blank or torn tail).

    Interior corruption always fails loudly.  The one tolerated defect
    is a *torn final line*: the last line of the file, missing its
    trailing newline, that fails to parse or seal — exactly the
    artifact a crash mid-append leaves behind (the writer emits line +
    newline in one buffered write).  A complete (newline-terminated)
    final line that fails is hand-editing or bit-rot, not a crash, and
    still raises.
    """
    line = raw.strip()
    if not line:
        return None
    torn_tail_ok = is_last and not raw.endswith("\n")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        if torn_tail_ok:
            warnings.warn(
                f"{path}:{lineno}: torn final log line (crash artifact) "
                f"skipped; the sealed prefix replays", RuntimeWarning,
                stacklevel=3)
            return None
        raise ValueError(
            f"{path}:{lineno}: unparsable log line: {exc}") from None
    try:
        record = check_record(obj, tag=LOG_TAG)
    except ValueError as exc:
        if torn_tail_ok:
            warnings.warn(
                f"{path}:{lineno}: torn final log line (crash artifact) "
                f"skipped; the sealed prefix replays", RuntimeWarning,
                stacklevel=3)
            return None
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if record.get("kind") == "header" \
            and record.get("version") != LOG_VERSION:
        raise ValueError(
            f"{path}:{lineno}: unsupported log version "
            f"{record.get('version')!r} (expected {LOG_VERSION})")
    return record


def read_request_log(path: Union[str, Path]) -> Iterator[Dict]:
    """Yield verified records (header(s) included) from a log file.

    Raises :class:`ValueError` on unparsable JSON, a missing/bad
    fingerprint, or an unsupported log version — a corrupt log must
    fail loudly, never replay partially.  The single exception is a
    torn *final* line with no trailing newline (what a crashed writer
    leaves mid-append): that is skipped with a warning so the sealed
    prefix stays replayable.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        prev = None  # one-line lookahead to know which line is last
        for lineno, raw in enumerate(fh, start=1):
            if prev is not None:
                record = _check_log_line(path, prev[0], prev[1],
                                         is_last=False)
                if record is not None:
                    yield record
            prev = (lineno, raw)
        if prev is not None:
            record = _check_log_line(path, prev[0], prev[1], is_last=True)
            if record is not None:
                yield record


@dataclass
class ReplayMismatch:
    """One replayed response that differs from the recording."""

    batch: int
    index: int
    recorded: Dict
    replayed: Dict

    def describe(self) -> str:
        return (f"batch {self.batch} request {self.index}: recorded "
                f"{json.dumps(self.recorded, sort_keys=True)} != replayed "
                f"{json.dumps(self.replayed, sort_keys=True)}")


@dataclass
class ReplayReport:
    """Outcome of one :func:`replay_log` run."""

    batches: int = 0
    requests: int = 0
    dropped: int = 0
    mismatches: List[ReplayMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        state = ("bit-exact" if self.ok
                 else f"{len(self.mismatches)} mismatch(es)")
        skipped = (f", skipped {self.dropped} dropped (shed/expired)"
                   if self.dropped else "")
        return (f"replayed {self.requests} request(s) in {self.batches} "
                f"batch(es): {state}{skipped}")


def replay_log(path: Union[str, Path],
               predict_batch: Callable[[List[PredictRequest]],
                                       Sequence[Prediction]],
               max_mismatches: int = 16) -> ReplayReport:
    """Re-drive a recorded log and compare every response bit-exact.

    ``predict_batch`` is a fresh
    :class:`~repro.serve.engine.PredictionEngine`'s bound
    ``predict_batch`` (or anything with its signature).  Batches are replayed in recorded order with
    recorded boundaries, so per-stream history chains exactly as it
    did live.  Comparison is on the JSON payloads (floats round-trip
    ``repr``-exact through JSON, so equality is bit-equality).
    Collection stops after ``max_mismatches`` differences.
    """
    report = ReplayReport()
    headers = 0
    for record in read_request_log(path):
        if record.get("kind") == "header":
            headers += 1
            if headers > 1:
                # a second session appended to this file: its engine
                # started with fresh history, ours would not have —
                # replaying across the boundary cannot be bit-exact
                raise ValueError(
                    f"{path} holds {headers} recording sessions; replay "
                    f"them separately (split at the header lines)")
            continue
        if record.get("kind") == "dropped":
            # never executed live (shed / expired) — never advanced
            # history, so replaying it would skew every later stream
            report.dropped += len(record.get("requests", []))
            continue
        if record.get("kind") != "batch":
            continue
        report.batches += 1
        requests = [PredictRequest.from_dict(r)
                    for r in record["requests"]]
        report.requests += len(requests)
        replayed = [p.as_dict() for p in predict_batch(requests)]
        recorded = record["predictions"]
        if len(replayed) != len(recorded):  # pragma: no cover - defensive
            raise ValueError(
                f"batch {record['batch']}: replay produced "
                f"{len(replayed)} response(s) for {len(recorded)} "
                f"recorded")
        for i, (rec, rep) in enumerate(zip(recorded, replayed)):
            if rec != rep:
                report.mismatches.append(ReplayMismatch(
                    batch=record["batch"], index=i,
                    recorded=rec, replayed=rep))
                if len(report.mismatches) >= max_mismatches:
                    return report
    return report
