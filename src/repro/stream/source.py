"""Stream sources: offset-addressed, replayable document streams.

A :class:`StreamSource` hands a consumer timestamped
:class:`~repro.engine.document.Document` micro-batches addressed by
dense, monotonically increasing integer offsets — the coordinate
system every delivery guarantee in this subsystem is phrased in:

* *at-least-once*: a record may be delivered again (a crashed consumer
  re-reads from its last checkpointed offset, a flaky transport
  repeats a batch), but is never silently lost;
* *replayability*: :meth:`StreamSource.seek` rewinds the cursor to any
  offset, so "resume after crash" is just "seek to the committed
  offset and keep polling".

Two concrete sources cover the reproduction's needs:
:class:`MemorySource` adapts any in-memory corpus (the synthetic
generators) and :class:`ReplayLogSource` reads a JSON-lines replay log
written by :func:`write_replay_log`, the durable interchange format
for re-running a stream without regenerating it.
"""

import json
from dataclasses import dataclass

from repro.engine import Document
from repro.faults import call_with_retry, fault_point


@dataclass(frozen=True)
class StreamRecord:
    """One stream element: a document plus its delivery coordinates.

    ``offset`` is the record's dense position in the stream (the unit
    of commit/seek); ``timestamp`` is the orderable time bucket the
    document belongs to (what windowed analytics slide over).
    """

    offset: int
    timestamp: object
    document: Document


class StreamSource:
    """Protocol: a replayable stream of timestamped documents.

    Offsets are dense integers starting at 0 and strictly increasing
    in delivery order.  Implementations keep a cursor; :meth:`poll`
    advances it, :meth:`seek` rewinds (or fast-forwards) it.
    """

    def poll(self, max_records):
        """Up to ``max_records`` next records; ``[]`` when drained.

        An empty list means "nothing available right now" — a live
        source may produce more after new data arrives, so consumers
        treat it as idle, not end-of-stream.
        """
        raise NotImplementedError

    def seek(self, offset):
        """Move the cursor so the next poll starts at ``offset``."""
        raise NotImplementedError

    @property
    def position(self):
        """The offset the next :meth:`poll` will deliver first."""
        raise NotImplementedError


class MemorySource(StreamSource):
    """An in-memory source over a list of timestamped documents.

    Offsets are assigned by :meth:`append` order.  The backing list
    can grow while a consumer is attached (``append`` after a drained
    poll models a live feed), and :meth:`seek` makes every record
    re-deliverable — the property the crash/resume tests lean on.
    """

    def __init__(self, records=()):
        """``records`` is an iterable of ``(timestamp, document)``."""
        self._records = []
        self._cursor = 0
        for timestamp, document in records:
            self.append(document, timestamp)

    def append(self, document, timestamp):
        """Add one document to the stream tail; returns its offset."""
        offset = len(self._records)
        self._records.append(
            StreamRecord(
                offset=offset, timestamp=timestamp, document=document
            )
        )
        return offset

    def poll(self, max_records):
        """Deliver the next ``max_records`` records at the cursor."""
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        batch = self._records[self._cursor:self._cursor + max_records]
        self._cursor += len(batch)
        return list(batch)

    def seek(self, offset):
        """Rewind/advance the cursor to ``offset`` (clamped to tail)."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self._cursor = min(int(offset), len(self._records))

    @property
    def position(self):
        """The offset the next poll starts at."""
        return self._cursor

    def __len__(self):
        return len(self._records)


def document_to_record_dict(document, timestamp, offset):
    """JSON-safe dict form of one stream record.

    Only JSON-representable artifacts survive the round trip; a
    document carrying live objects (a transcript, an annotation) is
    rejected with a clear error rather than silently dropped, because
    a replay log that loses artifacts replays a *different* stream.
    """
    payload = {
        "offset": offset,
        "timestamp": timestamp,
        "doc_id": document.doc_id,
        "channel": document.channel,
        "text": document.text,
        "artifacts": document.artifacts,
    }
    try:
        return json.loads(json.dumps(payload))
    except TypeError as exc:
        raise ValueError(
            f"document {document.doc_id!r} has artifacts that are not "
            f"JSON-serialisable and cannot enter a replay log: {exc}"
        ) from None


def write_replay_log(path, records):
    """Write ``(timestamp, document)`` pairs as a JSONL replay log.

    Offsets are assigned by iteration order, matching what a
    :class:`MemorySource` over the same pairs would deliver.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for offset, (timestamp, document) in enumerate(records):
            handle.write(
                json.dumps(
                    document_to_record_dict(document, timestamp, offset)
                )
            )
            handle.write("\n")


#: Fields every replay-log line must carry.
_REPLAY_FIELDS = ("offset", "timestamp", "doc_id")


class ReplayLogSource(StreamSource):
    """Replays a JSONL log written by :func:`write_replay_log`.

    The whole log is loaded eagerly (replay logs are bounded by
    construction); offsets are validated to be dense and monotonic so
    a truncated or hand-edited log fails loudly at open time instead
    of corrupting commit bookkeeping later.

    The read passes through the ``replay.read`` fault point; ``retry``
    (a :class:`~repro.faults.retry.RetryPolicy`) makes the open absorb
    transient ``OSError`` faults, with ``sleep`` injecting the backoff
    sleeper for tests.
    """

    def __init__(self, path, retry=None, sleep=None):
        """``path`` is the JSONL replay log to load."""
        if retry is None:
            self._records = self._load(path)
        else:
            self._records = call_with_retry(
                lambda: self._load(path), retry, sleep=sleep,
                op="replay.read",
            )
        self._cursor = 0

    @staticmethod
    def _load(path):
        """Read and validate the whole log; the retryable unit.

        A bad line raises ``ValueError`` naming ``path:line`` and the
        fault: bytes that are not UTF-8, invalid or too deeply nested
        JSON, not an object, a missing field, or artifacts that are not
        an object.  The file is read in binary and each line decoded on
        its own, so a bad byte is reported at its line.
        """
        fault_point("replay.read")
        records = []
        with open(path, "rb") as handle:
            for line_no, raw in enumerate(handle, start=1):
                if not raw.strip():
                    continue
                where = f"replay log {path}:{line_no}"
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(
                        f"{where}: not valid UTF-8 ({exc.reason} at "
                        f"byte {exc.start})"
                    ) from None
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{where}: invalid JSON ({exc.msg} at column "
                        f"{exc.colno})"
                    ) from exc
                except RecursionError:
                    raise ValueError(
                        f"{where}: invalid JSON (nested too deeply)"
                    ) from None
                if not isinstance(entry, dict):
                    raise ValueError(
                        f"{where}: expected a JSON object, got "
                        f"{type(entry).__name__}"
                    )
                for field in _REPLAY_FIELDS:
                    if field not in entry:
                        raise ValueError(
                            f"{where}: missing field {field!r}"
                        )
                if entry["offset"] != len(records):
                    raise ValueError(
                        f"{where}: expected offset {len(records)}, found "
                        f"{entry['offset']} (log must be dense and "
                        f"in delivery order)"
                    )
                artifacts = entry.get("artifacts", {})
                if not isinstance(artifacts, dict):
                    raise ValueError(
                        f"{where}: field 'artifacts' must be a JSON "
                        f"object, got {type(artifacts).__name__}"
                    )
                document = Document(
                    doc_id=entry["doc_id"],
                    channel=entry.get("channel", ""),
                    text=entry.get("text", ""),
                    artifacts=dict(artifacts),
                )
                records.append(
                    StreamRecord(
                        offset=entry["offset"],
                        timestamp=entry["timestamp"],
                        document=document,
                    )
                )
        return records

    def poll(self, max_records):
        """Deliver the next ``max_records`` records at the cursor."""
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        batch = self._records[self._cursor:self._cursor + max_records]
        self._cursor += len(batch)
        return list(batch)

    def seek(self, offset):
        """Rewind/advance the cursor to ``offset`` (clamped to tail)."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self._cursor = min(int(offset), len(self._records))

    @property
    def position(self):
        """The offset the next poll starts at."""
        return self._cursor

    def __len__(self):
        return len(self._records)
