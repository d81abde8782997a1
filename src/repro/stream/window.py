"""Sliding-window analytics: an evicting index plus the batch analytics.

"The increase and decrease of occurrences of each concept in a certain
period" (paper Section IV-D) must be available after every
micro-batch.  :class:`WindowedAnalytics` keeps the last
``window_buckets`` integer time buckets of documents in a
window-scoped :class:`~repro.mining.index.ConceptIndex` — ingest adds a
document, an advancing maximum bucket evicts every bucket below the
floor — and each snapshot is one call to the batch analytic
(:func:`~repro.mining.trends.trend_series`,
:func:`~repro.mining.trends.emerging_concepts`,
:func:`~repro.mining.assoc2d.associate`,
:func:`~repro.mining.relfreq.relative_frequency`) on that index.  A
windowed view is therefore the same analytics over a smaller fact
set: bit-identical to the batch function over exactly the window's
documents by construction, with one implementation to maintain.
"""

from dataclasses import dataclass

from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series


@dataclass(frozen=True)
class AssocSpec:
    """A registered 2-D association snapshotted over the window.

    Dimensions follow the batch convention: ``("concept", category)``
    or ``("field", name)``.
    """

    row_dimension: tuple
    col_dimension: tuple
    confidence: float = 0.95
    interval_method: str = "wilson"


@dataclass(frozen=True)
class RelFreqSpec:
    """A registered relative-frequency query snapshotted over the window.

    ``focus_keys`` is a tuple of full concept keys selecting the focus
    subset (documents carrying *all* of them); ``candidate_dimension``
    names the dimension whose concepts are ranked.
    """

    focus_keys: tuple
    candidate_dimension: tuple
    min_focus_count: int = 1


def _normalise_assoc(spec):
    """Tuple-ize an :class:`AssocSpec`'s dimension fields."""
    return AssocSpec(
        row_dimension=tuple(spec.row_dimension),
        col_dimension=tuple(spec.col_dimension),
        confidence=spec.confidence,
        interval_method=spec.interval_method,
    )


def _normalise_relfreq(spec):
    """Tuple-ize a :class:`RelFreqSpec`'s key and dimension fields."""
    return RelFreqSpec(
        focus_keys=tuple(tuple(key) for key in spec.focus_keys),
        candidate_dimension=tuple(spec.candidate_dimension),
        min_focus_count=spec.min_focus_count,
    )


class WindowedAnalytics:
    """A sliding window of documents with batch-analytic snapshots.

    ``window_buckets`` is the window width in integer time buckets:
    after a document with bucket ``t`` arrives, only documents with
    buckets in ``[t - window_buckets + 1, t]`` remain live.  Documents
    older than the current floor are *late* — counted and dropped, not
    ingested — so window state never depends on arrival order beyond
    the in-window upsert semantics.

    Re-ingesting a live ``doc_id`` replaces it (the old entry is
    dropped first), mirroring the at-least-once/idempotent contract of
    the stream consumer.
    """

    def __init__(self, window_buckets, assoc_specs=(), relfreq_specs=(),
                 keep_documents=False):
        """Register the analyses to snapshot over the window."""
        if window_buckets < 1:
            raise ValueError("window_buckets must be >= 1")
        self.window_buckets = int(window_buckets)
        self.assoc_specs = [_normalise_assoc(s) for s in assoc_specs]
        self.relfreq_specs = [_normalise_relfreq(s) for s in relfreq_specs]
        self._keep_documents = keep_documents
        self._reset()

    def _reset(self):
        """Blank every window structure (fresh or pre-restore)."""
        self._index = ConceptIndex(keep_documents=self._keep_documents)
        self._by_bucket = {}  # bucket -> [doc_id, ...] in ingest order
        self._max_bucket = None
        self.late_dropped = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    # ingest / evict
    # ------------------------------------------------------------------

    def ingest(self, doc_id, keys, timestamp, text=None):
        """Add one document to the window; returns False if late.

        ``keys`` is the document's full concept-key set (as produced
        by the main :class:`ConceptIndex`); ``timestamp`` its integer
        time bucket.  Advancing the maximum bucket evicts every bucket
        that falls off the window floor.
        """
        if timestamp is None:
            raise ValueError(
                f"document {doc_id!r} has no timestamp; windowed "
                f"analytics need a time bucket per document"
            )
        floor = self.window_floor
        if floor is not None and timestamp < floor:
            self.late_dropped += 1
            return False
        keys = {tuple(key) for key in keys}
        if doc_id in self._index:
            self._forget(doc_id)
        self._index.add_keys(
            doc_id, keys, timestamp=timestamp, text=text,
            on_duplicate="raise",
        )
        self._by_bucket.setdefault(timestamp, []).append(doc_id)
        if self._max_bucket is None or timestamp > self._max_bucket:
            self._max_bucket = timestamp
            self._evict_below(self.window_floor)
        return True

    def _forget(self, doc_id):
        """Drop one live document from its bucket and the index."""
        timestamp = self._index.timestamp_of(doc_id)
        self._by_bucket[timestamp].remove(doc_id)
        if not self._by_bucket[timestamp]:
            del self._by_bucket[timestamp]
        self._index.remove(doc_id)

    def _evict_below(self, floor):
        """Evict every document in a bucket below ``floor``."""
        stale = sorted(b for b in self._by_bucket if b < floor)
        for bucket in stale:
            for doc_id in list(self._by_bucket[bucket]):
                self._forget(doc_id)
                self.evicted += 1

    # ------------------------------------------------------------------
    # window state
    # ------------------------------------------------------------------

    @property
    def index(self):
        """The window-scoped concept index (read it, don't mutate it)."""
        return self._index

    @property
    def max_bucket(self):
        """Highest time bucket seen so far (None before any ingest)."""
        return self._max_bucket

    @property
    def window_floor(self):
        """Oldest bucket still inside the window (None when empty)."""
        if self._max_bucket is None:
            return None
        return self._max_bucket - self.window_buckets + 1

    @property
    def buckets(self):
        """Sorted non-empty buckets currently inside the window."""
        return sorted(self._by_bucket)

    def __len__(self):
        return len(self._index)

    # ------------------------------------------------------------------
    # snapshots: the batch mining functions on the window's index
    # ------------------------------------------------------------------

    def trend_snapshot(self, key, buckets=None):
        """``(bucket, count)`` series for ``key`` over the window.

        :func:`repro.mining.trends.trend_series` on the window's index.
        """
        return trend_series(self._index, key, buckets=buckets)

    def emerging_snapshot(self, dimension, buckets=None, min_total=3):
        """Rising concepts of a dimension, steepest slope first.

        :func:`repro.mining.trends.emerging_concepts` on the window's
        index.
        """
        return emerging_concepts(
            self._index, dimension, buckets=buckets, min_total=min_total
        )

    def assoc_snapshot(self, spec_index=0):
        """The registered association's table over the window.

        :func:`repro.mining.assoc2d.associate` on the window's index.
        """
        spec = self.assoc_specs[spec_index]
        if not len(self._index):
            raise ValueError("cannot analyse an empty window")
        return associate(
            self._index, spec.row_dimension, spec.col_dimension,
            confidence=spec.confidence,
            interval_method=spec.interval_method,
        )

    def relfreq_snapshot(self, spec_index=0):
        """The registered relevancy ranking over the window.

        :func:`repro.mining.relfreq.relative_frequency` on the window's
        index.
        """
        spec = self.relfreq_specs[spec_index]
        return relative_frequency(
            self._index, spec.focus_keys, spec.candidate_dimension,
            min_focus_count=spec.min_focus_count,
        )

    # ------------------------------------------------------------------
    # checkpoint round trip
    # ------------------------------------------------------------------

    def to_state(self):
        """JSON-safe snapshot of the window's documents and cursor.

        Only documents and cursor counters are serialised: the
        window's index and bucket lists are a pure function of the
        surviving documents replayed in insertion order, so
        :meth:`restore_state` rebuilds them exactly.
        """
        docs = []
        for doc_id in self._index.document_ids:
            entry = {
                "doc_id": doc_id,
                "keys": sorted(
                    list(key) for key in self._index.keys_of(doc_id)
                ),
                "timestamp": self._index.timestamp_of(doc_id),
            }
            if self._keep_documents:
                entry["text"] = self._index.text_of(doc_id)
            docs.append(entry)
        return {
            "window_buckets": self.window_buckets,
            "max_bucket": self._max_bucket,
            "late_dropped": self.late_dropped,
            "evicted": self.evicted,
            "documents": docs,
        }

    def check_state(self, state):
        """Raise ``ValueError`` if ``state`` cannot restore this window.

        Touches nothing, so a caller can validate before it mutates
        any of its own state.
        """
        if state["window_buckets"] != self.window_buckets:
            raise ValueError(
                f"checkpoint window is {state['window_buckets']} "
                f"buckets, consumer is configured for "
                f"{self.window_buckets}"
            )

    def restore_state(self, state):
        """Rebuild the window from a :meth:`to_state` snapshot.

        Documents are re-ingested in their original insertion order,
        which reproduces the window's index and buckets exactly.
        """
        self.check_state(state)
        self._reset()
        for entry in state["documents"]:
            self.ingest(
                entry["doc_id"],
                [tuple(key) for key in entry["keys"]],
                entry["timestamp"],
                text=entry.get("text"),
            )
        self._max_bucket = state["max_bucket"]
        self.late_dropped = state["late_dropped"]
        self.evicted = state["evicted"]
        return self
