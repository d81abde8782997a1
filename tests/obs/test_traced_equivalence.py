"""Observability is write-only: traced runs == untraced runs.

The acceptance bar for the obs layer — activating a tracer and a
metrics registry around the engine, the stream consumer or the linking
hot paths must not change a single output bit.  Also pins the span
hierarchy (pipeline:run -> stage -> batch, stream:batch above them)
and the zero-row funnel guarantee for fully-discarded / fully-skipped
micro-batches.
"""

import random
from contextlib import nullcontext

import pytest

from repro.engine import Document, FunctionStage, MapStage, PipelineRunner
from repro.exec import ThreadBackend
from repro.linking.fagin import fagin_merge
from repro.mining.stage import ConceptIndexStage
from repro.obs import MetricsRegistry, Tracer, activated
from repro.stream import (
    AssocSpec,
    Checkpointer,
    MemorySource,
    StreamConsumer,
    WindowedAnalytics,
    index_to_state,
)


class AddOne(MapStage):
    """value <- doc_id + 1 (pure, per-document)."""

    name = "add-one"

    def process_document(self, document):
        """Record a derived artifact."""
        document.put("value", document.doc_id + 1)


class DropOdd(MapStage):
    """Discard documents with odd ids."""

    name = "drop-odd"

    def process_document(self, document):
        """Discard odd doc ids with a recorded reason."""
        if document.doc_id % 2:
            document.discard(self.stage_name, "odd")


def _docs(n):
    return [Document(doc_id=i) for i in range(n)]


def _spans_by_name(tracer):
    by_name = {}
    for span in tracer.finished():
        by_name.setdefault(span.name, []).append(span)
    return by_name


class TestEngineEquivalence:
    @pytest.mark.parametrize("workers", [0, 4])
    def test_traced_outputs_bit_identical(self, workers):
        def build(backend):
            return PipelineRunner(
                [AddOne(), DropOdd()], batch_size=4, backend=backend
            )

        with ThreadBackend(workers) if workers else nullcontext() as backend:
            untraced = build(backend).run(_docs(23))
            with activated(Tracer(), MetricsRegistry()):
                traced = build(backend).run(_docs(23))
        assert traced.documents == untraced.documents
        assert traced.discarded == untraced.discarded
        # Reports agree on everything except instrumentation extras.
        for mine, theirs in zip(
            traced.report.stages, untraced.report.stages
        ):
            assert mine.name == theirs.name
            assert mine.docs_in == theirs.docs_in
            assert mine.docs_out == theirs.docs_out
            assert mine.discarded == theirs.discarded
            assert mine.batches == theirs.batches
        assert untraced.report.metrics is None
        assert traced.report.metrics["counters"]["engine.runs"] == 1

    @pytest.mark.parametrize("workers", [0, 4])
    def test_stage_batch_nesting(self, workers):
        tracer = Tracer()
        with activated(tracer, MetricsRegistry()), (
            ThreadBackend(workers) if workers else nullcontext()
        ) as backend:
            PipelineRunner(
                [AddOne(), DropOdd()], batch_size=4, backend=backend
            ).run(_docs(10))
        by_name = _spans_by_name(tracer)
        (run,) = by_name["pipeline:run"]
        assert run.parent_id is None
        stages = by_name["stage:add-one"] + by_name["stage:drop-odd"]
        assert all(s.parent_id == run.span_id for s in stages)
        stage_ids = {s.span_id for s in stages}
        batches = by_name["batch"]
        assert len(batches) == 6  # 3 batches per stage
        assert all(b.parent_id in stage_ids for b in batches)

    def test_hot_path_nests_under_ambient_span(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        lists = [
            [("a", 0.9), ("b", 0.5)],
            [("b", 0.8), ("a", 0.4)],
        ]
        untraced = fagin_merge(lists, k=1)
        with activated(tracer, metrics):
            with tracer.span("stage:record-link") as stage:
                traced = fagin_merge(lists, k=1)
        assert traced == untraced
        (merge,) = _spans_by_name(tracer)["fagin:fa"]
        assert merge.parent_id == stage.span_id
        assert merge.tags["lists"] == 2
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["linking.fagin.fa.merges"] == 1


# ----------------------------------------------------------------------
# stream: traced crash/resume == untraced uninterrupted
# ----------------------------------------------------------------------

CITIES = ["seattle", "boston", "denver"]
CARS = ["suv", "compact", "luxury"]


class Crash(RuntimeError):
    """Simulated consumer death at a failpoint."""


def _make_pairs(n=40, seed=5):
    """Deterministic (timestamp, document) arrivals; fresh each call."""
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        fields = {"city": rng.choice(CITIES), "car": rng.choice(CARS)}
        document = Document(
            doc_id=i, channel="test", text=f"call {i}",
            artifacts={"index_fields": fields},
        )
        pairs.append((i // 9, document))
    return pairs


def _filter(document):
    """Drop a deterministic subset to exercise funnel accounting."""
    if document.doc_id % 13 == 9:
        document.discard("filter", "synthetic noise")


def _build(checkpoint_path=None, crash_on=None, crash_at=None):
    """A fresh consumer over a freshly generated stream."""
    seen = {"count": 0}

    def failpoint(event):
        if event == crash_on:
            seen["count"] += 1
            if seen["count"] >= crash_at:
                raise Crash(f"{event} #{seen['count']}")

    return StreamConsumer(
        MemorySource(_make_pairs()),
        [
            FunctionStage("filter", _filter, pure=True),
            ConceptIndexStage(on_duplicate="replace"),
        ],
        window=WindowedAnalytics(
            3,
            assoc_specs=[AssocSpec(("field", "city"), ("field", "car"))],
        ),
        checkpointer=(
            Checkpointer(checkpoint_path) if checkpoint_path else None
        ),
        batch_docs=7,
        checkpoint_interval=2,
        failpoint=failpoint if crash_on else None,
    )


def _assert_same_final_state(resumed, reference):
    """Bit-identical index, window and funnel counters."""
    assert index_to_state(resumed.index) == index_to_state(
        reference.index
    )
    assert resumed.window.to_state() == reference.window.to_state()
    assert resumed.committed_offset == reference.committed_offset
    assert resumed.report.processed == reference.report.processed
    assert resumed.report.discarded == reference.report.discarded
    assert resumed.report.upserts == reference.report.upserts
    assert resumed.report.batches == reference.report.batches
    table = resumed.window.assoc_snapshot(0)
    expected = reference.window.assoc_snapshot(0)
    assert table.cells() == expected.cells()


class TestStreamEquivalence:
    @pytest.mark.parametrize("crash_at", [1, 3, 5])
    def test_traced_crash_resume_matches_untraced_uninterrupted(
        self, tmp_path, crash_at
    ):
        """The property the checkpoint format must preserve: tracing a
        crashed-and-resumed consumer leaves its final state identical
        to an untraced consumer that never crashed."""
        reference = _build()
        reference.run()

        tracer = Tracer()
        with activated(tracer, MetricsRegistry()):
            crashed = _build(
                tmp_path / "ck.json", "batch-committed", crash_at
            )
            with pytest.raises(Crash):
                crashed.run()
            resumed = _build(tmp_path / "ck.json")
            resumed.restore()
            resumed.run()
        _assert_same_final_state(resumed, reference)
        by_name = _spans_by_name(tracer)
        assert len(by_name["stream:batch"]) >= crash_at
        assert "stream:checkpoint" in by_name
        if crash_at > 2:  # a checkpoint landed before the crash
            assert "stream:restore" in by_name
        # Every stream:batch span contains a nested pipeline run.
        batch_ids = {s.span_id for s in by_name["stream:batch"]}
        runs = by_name["pipeline:run"]
        assert all(r.parent_id in batch_ids for r in runs)

    def test_traced_uninterrupted_matches_untraced(self, tmp_path):
        reference = _build()
        reference.run()
        with activated(Tracer(), MetricsRegistry()):
            traced = _build(tmp_path / "ck.json")
            traced.run()
        _assert_same_final_state(traced, reference)
        # The checkpoint file itself is identical modulo wall time,
        # which lives only inside the report block.
        state = Checkpointer(tmp_path / "ck.json").load()
        assert state["offset"] == reference.committed_offset
        assert state["index"] == index_to_state(reference.index)
        assert state["window"] == reference.window.to_state()


class TestZeroRowFunnel:
    def test_fully_discarding_run_keeps_downstream_stage_rows(self):
        """A batch in which every document is discarded must still
        produce a row for every stage (zero out-count, not absence)."""

        class DropAll(MapStage):
            """Discards everything."""

            name = "drop-all"

            def process_document(self, document):
                """Discard unconditionally."""
                document.discard(self.stage_name, "all")

        report = PipelineRunner(
            [DropAll(), AddOne()], batch_size=4
        ).run(_docs(9)).report
        drop = report.stage("drop-all")
        assert (drop.docs_in, drop.docs_out, drop.discarded) == (9, 0, 9)
        downstream = report.stage("add-one")
        assert (downstream.docs_in, downstream.docs_out) == (0, 0)
        assert report.total_out == 0

    def test_fully_skipped_micro_batch_still_emits_stage_rows(
        self, tmp_path
    ):
        """Re-delivering only already-committed offsets must produce
        zero-count stage rows, not an empty stage report (regression:
        the consumer used to skip the stage graph for such batches)."""
        consumer = _build(tmp_path / "ck.json")
        consumer.run()

        resumed = _build(tmp_path / "ck.json")
        assert resumed.restore()
        resumed.source.seek(0)
        assert resumed.step()  # a micro-batch of pure re-deliveries
        report = resumed.stage_report()
        assert [s.name for s in report.stages] == ["filter", "index"]
        for stats in report.stages:
            assert (stats.docs_in, stats.docs_out) == (0, 0)
        assert resumed.report.skipped > 0
