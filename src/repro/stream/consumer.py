"""The streaming consumer: micro-batches through a stage graph.

:class:`StreamConsumer` turns a one-shot :mod:`repro.engine` stage
graph into a long-running incremental consumer:

* **Micro-batching with backpressure** — records are polled from the
  :class:`~repro.stream.source.StreamSource` into a bounded prefetch
  queue (at most ``queue_capacity`` micro-batches in flight beyond
  the committed offset), so a slow stage graph throttles polling
  instead of buffering the stream unboundedly.
* **At-least-once, idempotent** — a record delivered twice is
  harmless: offsets at or below the committed offset are skipped
  outright, and a re-delivered ``doc_id`` at a fresh offset upserts
  the main index (``on_duplicate="replace"``) and the analytics
  window instead of raising.
* **Checkpoint / resume** — every ``checkpoint_interval`` committed
  batches the consumer snapshots its offset, the main index and the
  window state through a :class:`~repro.stream.checkpoint.Checkpointer`.
  :meth:`restore` rewinds the source to the committed offset and
  rebuilds both structures, so a killed consumer resumes with final
  state bit-identical to an uninterrupted run — provided the stage
  graph is deterministic per document (no cross-document RNG
  ordering), which is the same contract the engine's parallel
  executor already imposes.

The wall clock is instrumentation only and injectable, exactly as in
:class:`~repro.engine.runner.PipelineRunner`.  So is observability
(see :mod:`repro.obs`): every micro-batch opens a ``stream:batch``
span (the runner's ``pipeline:run`` span nests inside it), every
checkpoint a ``stream:checkpoint`` span and every restore a
``stream:restore`` span, while stream counters land in the ambient
metrics registry.  Nothing observed feeds back into delivery, window
state or checkpoints — a traced crash/resume run ends bit-identical
to an untraced uninterrupted one (asserted in ``tests/obs``).
"""

import time
from collections import deque
from dataclasses import dataclass, field

from repro.engine import PipelineReport, PipelineRunner, StageStats
from repro.faults import fault_point
from repro.mining.sharded import shard_count_of
from repro.mining.stage import ConceptIndexStage
from repro.obs import get_metrics, get_tracer
from repro.stream.checkpoint import index_from_state, index_to_state


@dataclass
class StreamReport:
    """Cumulative counters for one consumer (survives checkpoints)."""

    polled: int = 0  # records taken off the source
    batches: int = 0  # micro-batches committed
    processed: int = 0  # documents that survived the stage graph
    discarded: int = 0  # documents the stage graph dropped
    upserts: int = 0  # re-delivered doc_ids replaced in the index
    skipped: int = 0  # records at/below the committed offset
    checkpoints: int = 0  # checkpoints written
    restored: bool = False  # this consumer resumed from a checkpoint
    wall_time: float = 0.0
    last_offset: int = -1  # committed offset (-1 = nothing committed)

    def to_json_dict(self):
        """Plain-dict form for machine-readable reports."""
        return {
            "polled": self.polled,
            "batches": self.batches,
            "processed": self.processed,
            "discarded": self.discarded,
            "upserts": self.upserts,
            "skipped": self.skipped,
            "checkpoints": self.checkpoints,
            "restored": self.restored,
            "wall_time_s": self.wall_time,
            "last_offset": self.last_offset,
        }

    def render_text(self):
        """Human-readable one-block summary."""
        return (
            f"stream: {self.batches} batches, {self.processed} docs "
            f"indexed, {self.discarded} discarded, {self.upserts} "
            f"upserts, {self.skipped} re-deliveries skipped, "
            f"{self.checkpoints} checkpoints, committed offset "
            f"{self.last_offset}, {self.wall_time:.3f}s"
        )


@dataclass
class _StageTotals:
    """Per-stage counters accumulated across micro-batches."""

    totals: dict = field(default_factory=dict)  # name -> StageStats
    order: list = field(default_factory=list)

    def absorb(self, report):
        """Fold one micro-batch :class:`PipelineReport` into totals."""
        for stats in report.stages:
            if stats.name not in self.totals:
                self.totals[stats.name] = StageStats(name=stats.name)
                self.order.append(stats.name)
            total = self.totals[stats.name]
            total.docs_in += stats.docs_in
            total.docs_out += stats.docs_out
            total.discarded += stats.discarded
            total.batches += stats.batches
            total.wall_time += stats.wall_time
            total.parallel = total.parallel or stats.parallel

    def report(self, total_in, total_out, wall_time):
        """The accumulated totals as one :class:`PipelineReport`."""
        return PipelineReport(
            stages=[self.totals[name] for name in self.order],
            total_in=total_in,
            total_out=total_out,
            wall_time=wall_time,
        )


class StreamConsumer:
    """Drives a stage graph incrementally over a stream source.

    ``stages`` is an ordered engine stage list ending (anywhere) in a
    :class:`~repro.mining.stage.ConceptIndexStage` configured with
    ``on_duplicate="replace"`` or ``"skip"`` — the consumer refuses a
    ``"raise"`` index stage because at-least-once delivery would then
    crash on the first redelivered record.  ``window`` is an optional
    :class:`~repro.stream.window.WindowedAnalytics` fed with every
    surviving document; ``checkpointer`` an optional
    :class:`~repro.stream.checkpoint.Checkpointer`.

    ``failpoint`` is a test hook: a callable invoked with event names
    (``"batch-committed"``, ``"checkpoint-written"``) that may raise to
    simulate a crash at the worst possible moment.
    """

    def __init__(self, source, stages, window=None, checkpointer=None,
                 batch_docs=32, queue_capacity=4, checkpoint_interval=4,
                 runner_batch_size=64, backend=None,
                 clock=None, failpoint=None, tracer=None, metrics=None,
                 epochs=None):
        """Wire the consumer; raises on an unsafe index stage.

        ``backend`` is the embedded runner's ready execution backend
        (see :class:`~repro.engine.PipelineRunner`; ``None`` runs
        inline): pure stages fan out across it, bit-identical to
        serial, and it stays warm across micro-batches.  The consumer
        borrows it; whoever built it closes it.

        ``tracer``/``metrics`` override the ambient observability
        collectors (``None`` resolves the ambient slot per step, so an
        already-built consumer is traceable by activation).

        ``epochs`` is an optional
        :class:`~repro.stream.epoch.EpochStore`: when given, the
        consumer publishes an immutable snapshot of the main index at
        every commit boundary (and after every restore), stamped with
        the committed offset, so concurrent readers always see a fully
        applied micro-batch.  An initial epoch (-1, the empty index)
        is published immediately so a serving layer wired before the
        first batch already has a view to answer from.
        """
        if batch_docs < 1:
            raise ValueError("batch_docs must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.source = source
        self.window = window
        self.checkpointer = checkpointer
        self.batch_docs = batch_docs
        self.queue_capacity = queue_capacity
        self.checkpoint_interval = checkpoint_interval
        self._clock = clock if clock is not None else time.perf_counter
        self._failpoint = failpoint
        self._index_stage = None
        for stage in stages:
            if isinstance(stage, ConceptIndexStage):
                self._index_stage = stage
        if self._index_stage is None:
            raise ValueError(
                "stage graph has no ConceptIndexStage; the consumer "
                "needs one to maintain the live index"
            )
        if self._index_stage.on_duplicate == "raise":
            raise ValueError(
                'the index stage must use on_duplicate="replace" or '
                '"skip"; at-least-once delivery re-indexes documents '
                "and a raising index would crash on the first "
                "redelivery"
            )
        self._tracer = tracer
        self._metrics = metrics
        self.epochs = epochs
        self._runner = PipelineRunner(
            stages, batch_size=runner_batch_size, backend=backend,
            clock=self._clock, tracer=tracer, metrics=metrics,
        )
        self._queue = deque()
        self._committed_offset = -1
        self._since_checkpoint = 0
        self.report = StreamReport()
        self._stage_totals = _StageTotals()
        self._publish_epoch()

    @property
    def index(self):
        """The live main :class:`ConceptIndex` the stage graph fills."""
        return self._index_stage.index

    @property
    def committed_offset(self):
        """Offset of the last committed record (-1 before any)."""
        return self._committed_offset

    def _obs(self):
        """The (tracer, metrics) pair in effect for this consumer."""
        tracer = self._tracer if self._tracer is not None else get_tracer()
        metrics = (
            self._metrics if self._metrics is not None else get_metrics()
        )
        return tracer, metrics

    def stage_report(self):
        """Accumulated per-stage totals across every micro-batch.

        Every stage of the graph appears, even if every document so
        far was discarded or skipped — a silent funnel (zero
        out-count) must show up as a zero row, not a missing row.
        """
        _, metrics = self._obs()
        report = self._stage_totals.report(
            total_in=self.report.processed + self.report.discarded,
            total_out=self.report.processed,
            wall_time=self.report.wall_time,
        )
        report.metrics = metrics.snapshot() or None
        return report

    # ------------------------------------------------------------------
    # delivery loop
    # ------------------------------------------------------------------

    def _fill_queue(self):
        """Prefetch micro-batches up to the backpressure bound."""
        while len(self._queue) < self.queue_capacity:
            records = self.source.poll(self.batch_docs)
            if not records:
                break
            self.report.polled += len(records)
            self._queue.append(records)

    def step(self):
        """Consume one micro-batch; False when the source is idle.

        One step = poll (bounded), run the stage graph over the fresh
        records, fold survivors into the window, commit the offset,
        and checkpoint when the interval elapses.

        The stage graph runs even when every record in the batch was a
        skipped re-delivery: the runner then reports a zero-count row
        for every stage, so the accumulated per-stage totals always
        carry one entry per stage per committed batch — a stage that
        discarded (or never received) everything shows a zero
        out-count instead of silently vanishing from the funnel.
        """
        self._fill_queue()
        if not self._queue:
            return False
        tracer, metrics = self._obs()
        records = self._queue.popleft()
        started = self._clock()
        with tracer.span(
            "stream:batch",
            category="stream",
            tags={
                "records": len(records),
                "first_offset": records[0].offset,
                "last_offset": records[-1].offset,
            },
        ) as batch_span:
            fresh = []
            for record in records:
                if record.offset <= self._committed_offset:
                    self.report.skipped += 1
                    continue
                fresh.append(record)
            documents = []
            upserts_before = self.report.upserts
            for record in fresh:
                document = record.document
                if "timestamp" not in document.artifacts:
                    document.put("timestamp", record.timestamp)
                if document.doc_id in self.index:
                    self.report.upserts += 1
                documents.append(document)
            upserts_here = self.report.upserts - upserts_before
            result = self._runner.run(documents)
            self._stage_totals.absorb(result.report)
            self.report.processed += len(result.documents)
            self.report.discarded += len(result.discarded)
            if self.window is not None and result.documents:
                index = self.index
                for document in result.documents:
                    doc_id = document.doc_id
                    text = (
                        index.text_of(doc_id)
                        if index.keeps_documents else None
                    )
                    self.window.ingest(
                        doc_id,
                        index.keys_of(doc_id),
                        index.timestamp_of(doc_id),
                        text=text,
                    )
            batch_span.tag("fresh", len(fresh))
            batch_span.tag("skipped", len(records) - len(fresh))
            batch_span.tag("processed", len(result.documents))
            batch_span.tag("discarded", len(result.discarded))
        self._committed_offset = max(
            self._committed_offset, records[-1].offset
        )
        self.report.last_offset = self._committed_offset
        self.report.batches += 1
        self._since_checkpoint += 1
        elapsed = self._clock() - started
        self.report.wall_time += elapsed
        metrics.counter("stream.batches").inc()
        metrics.counter("stream.records").inc(len(records))
        metrics.counter("stream.skipped").inc(len(records) - len(fresh))
        metrics.counter("stream.processed").inc(len(result.documents))
        metrics.counter("stream.discarded").inc(len(result.discarded))
        metrics.counter("stream.upserts").inc(upserts_here)
        metrics.histogram("stream.batch_wall_s").observe(elapsed)
        metrics.gauge("stream.committed_offset").set(
            self._committed_offset
        )
        if self.window is not None:
            metrics.gauge("stream.window_docs").set(len(self.window))
        self._publish_epoch()
        self._fire("batch-committed")
        if (
            self.checkpointer is not None
            and self._since_checkpoint >= self.checkpoint_interval
        ):
            self.checkpoint()
        return True

    def run(self, max_batches=None, checkpoint_at_end=True):
        """Consume until the source drains (or ``max_batches``).

        Writes a final checkpoint by default so an uninterrupted run
        ends fully committed.  Returns the cumulative
        :class:`StreamReport`.
        """
        batches = 0
        while max_batches is None or batches < max_batches:
            if not self.step():
                break
            batches += 1
        if (
            checkpoint_at_end
            and self.checkpointer is not None
            and self._since_checkpoint > 0
        ):
            self.checkpoint()
        return self.report

    def close(self):
        """Nothing to release: the backend is borrowed, not owned."""
        return None

    def __enter__(self):
        """Context manager: the consumer itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        """Context-manager exit: :meth:`close`."""
        self.close()
        return False

    def _fire(self, event):
        """Hit the event's fault point, then the legacy test hook.

        Every commit boundary doubles as a named ambient fault point
        (``stream.batch-committed``, ``stream.checkpoint-written``) so
        chaos plans can crash the consumer at the worst possible
        moments without wiring a ``failpoint`` callable in; the
        callable hook is kept for targeted single-crash tests.
        """
        fault_point(f"stream.{event}")
        if self._failpoint is not None:
            self._failpoint(event)

    def _publish_epoch(self):
        """Publish the committed state as an immutable epoch snapshot.

        No-op without an epoch store.  Runs at construction (epoch -1,
        empty index), after every committed micro-batch, and after a
        restore — exactly the moments the index is in a fully applied
        state.
        """
        if self.epochs is not None:
            self.epochs.publish(self.index, self._committed_offset)

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Snapshot offset + index + window through the checkpointer.

        The snapshot itself is never observed: tracing a checkpoint
        times it and counts it but writes nothing into the state, so
        traced and untraced checkpoints are byte-identical.
        """
        if self.checkpointer is None:
            raise RuntimeError("consumer has no checkpointer")
        tracer, metrics = self._obs()
        with tracer.span(
            "stream:checkpoint",
            category="stream",
            tags={"offset": self._committed_offset},
        ):
            state = {
                "offset": self._committed_offset,
                "report": self.report.to_json_dict(),
                "index": index_to_state(self.index),
                "window": (
                    self.window.to_state() if self.window is not None
                    else None
                ),
            }
            self.checkpointer.save(state)
        self._since_checkpoint = 0
        self.report.checkpoints += 1
        metrics.counter("stream.checkpoints").inc()
        self._fire("checkpoint-written")
        return self

    def restore(self):
        """Resume from the last checkpoint; False if none exists.

        Rebuilds the main index in place of the stage graph's, replays
        the window state, restores the cumulative counters, and seeks
        the source to the record after the committed offset.
        """
        if self.checkpointer is None:
            raise RuntimeError("consumer has no checkpointer")
        tracer, metrics = self._obs()
        state = self.checkpointer.load()
        if state is None:
            return False
        with tracer.span(
            "stream:restore",
            category="stream",
            tags={"offset": state["offset"]},
        ):
            return self._restore_from(state, metrics)

    def _restore_from(self, state, metrics):
        """Apply a loaded checkpoint ``state`` to this consumer.

        The configured stage graph's index layout is authoritative:
        the snapshot is rebuilt into however many shards the stage was
        wired with (zero for a single index), so a consumer upgraded
        to a sharded layout restores pre-sharding (version-1)
        checkpoints transparently — and vice versa.
        """
        restored_index = index_from_state(
            state["index"],
            shards=shard_count_of(self._index_stage.index),
        )
        # Validate everything before the first assignment: a rejected
        # checkpoint must leave the consumer exactly as it was.
        if self.window is not None:
            if state["window"] is None:
                raise ValueError(
                    "checkpoint carries no window state but the "
                    "consumer is configured with windowed analytics"
                )
            self.window.check_state(state["window"])
        saved = state["report"]
        report = StreamReport(
            polled=saved["polled"],
            batches=saved["batches"],
            processed=saved["processed"],
            discarded=saved["discarded"],
            upserts=saved["upserts"],
            skipped=saved["skipped"],
            checkpoints=saved["checkpoints"],
            restored=True,
            wall_time=saved["wall_time_s"],
            last_offset=saved["last_offset"],
        )
        self._index_stage.index = restored_index
        if self.window is not None:
            self.window.restore_state(state["window"])
        self.report = report
        self._committed_offset = state["offset"]
        self._since_checkpoint = 0
        self._queue.clear()
        self.source.seek(self._committed_offset + 1)
        self._publish_epoch()
        metrics.counter("stream.restores").inc()
        return True
