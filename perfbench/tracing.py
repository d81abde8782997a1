"""The traced run: timing wrappers, span analysis and per-layer metrics.

Nothing here changes the program.  :class:`Instrumentation` activates
:mod:`repro.obs` (a :class:`~repro.obs.Tracer` and a
:class:`~repro.obs.MetricsRegistry`) and, for as long as it is open,
wraps the public entry points of each layer in a span of its own:

====================  =========================================  =========
span                  wrapped entry point                        layer
====================  =========================================  =========
asr:transcribe        ASRSystem.transcribe                       asr
annotation:annotate   AnnotationEngine.annotate                  annotation
linking:record-link   CallRecordLinker.link                      linking
linking:entity-link   EntityLinker.link                          linking
cleaning:clean        CleaningPipeline.clean                     cleaning
doc:<stage>           each MapStage's process_document, and the  engine
                      per-call transcribe_turns of the ASR stage
stream:step           StreamConsumer.step                        stream
stream:window-ingest  WindowedAnalytics.ingest                   stream
stream:publish        EpochStore.publish                         stream
serve:engine          QueryEngine.query (server thread)          serve
====================  =========================================  =========

The program's own spans (``pipeline:run``, ``stage:*``, ``analytic:*``,
``fagin:*``, ``link:call-record``, ``stream:batch`` /
``stream:checkpoint`` / ``stream:restore``, ``query:*``) land in the
same tracer, so one trace holds both.  Spans stay in memory and are
written out once, at the end of the run.

Each span carries an ``id`` shared by everything one document or one
query caused: ``doc:*`` spans are tagged with the document id and
``serve:http`` spans with the query number; a span without its own id
takes the nearest ancestor's.  The server answers on its own thread,
so its spans have no parent in the tracer; the analysis re-parents
each of them under the client round trip that encloses it in time.

Self time is a span's duration minus the part of it its children
cover.
"""

import functools
import json
import os
from bisect import bisect_right

from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    activated,
    get_tracer,
)

#: Span-name prefix -> layer (a module under ``src/repro``), longest
#: prefix first.  Self time of ``bench:*`` spans is benchmark glue.
LAYER_OF_PREFIX = (
    ("asr:", "asr"),
    ("annotation:", "annotation"),
    ("linking:", "linking"),
    ("link:", "linking"),
    ("fagin:", "linking"),
    ("cleaning:", "cleaning"),
    ("doc:", "engine"),
    ("stage:", "engine"),
    ("pipeline:", "engine"),
    ("batch", "engine"),
    ("analytic:", "mining"),
    ("study:churn", "churn"),
    ("study:calls", "core"),
    ("stream:", "stream"),
    ("query:", "serve"),
    ("serve:", "serve"),
    ("bench:", "bench"),
)


def layer_of(name):
    """The layer a span name belongs to (``"other"`` if unknown)."""
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return "other"


def _wrap(owner, attribute, make_wrapper, saved):
    """Replace ``owner.attribute`` by ``make_wrapper(original)``."""
    original = owner.__dict__[attribute]
    saved.append((owner, attribute, original))
    setattr(owner, attribute, make_wrapper(original))


def _span_method(name, tag_result=None):
    """Wrapper factory: time each call of a method in span ``name``.

    ``tag_result(span, result)`` may tag the span from the return value.
    """

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with get_tracer().span(name, category="bench") as span:
                result = original(*args, **kwargs)
                if tag_result is not None:
                    tag_result(span, result)
            return result

        return wrapper

    return make


def _doc_span(original):
    """Wrap a stage's per-document hook in a ``doc:<stage>`` span
    tagged with the document id."""

    @functools.wraps(original)
    def wrapper(stage, document):
        with get_tracer().span(
            f"doc:{stage.stage_name}", category="bench",
            tags={"id": document.doc_id},
        ):
            return original(stage, document)

    return wrapper


def _map_stage_classes():
    """Every MapStage subclass defining its own process_document."""
    from repro.engine import MapStage

    found = []
    pending = list(MapStage.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "process_document" in cls.__dict__:
            found.append(cls)
    return found


class Instrumentation:
    """Activates tracing and the benchmark's wrappers; restores on exit.

    Fill ``call_ids`` with ``id(transcript.turns)`` -> call id so the
    ASR stage (which hands ``transcribe_turns`` only the turns) can tag
    its per-call spans.  ``checkpoint_bytes`` sums the checkpoint file
    size after every ``StreamConsumer.checkpoint``.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.call_ids = {}
        self.similarity_evals = 0
        self.checkpoint_bytes = 0
        self.queries_sent = 0
        self._saved = []
        self._activation = None

    def __enter__(self):
        import repro.core.pipeline as pipeline
        from repro.annotation.matcher import AnnotationEngine
        from repro.asr.system import ASRSystem
        from repro.cleaning.pipeline import CleaningPipeline
        from repro.linking.similarity import SimilarityRegistry
        from repro.linking.single import EntityLinker
        from repro.serve.engine import QueryEngine
        from repro.stream.consumer import StreamConsumer
        from repro.stream.epoch import EpochStore
        from repro.stream.window import WindowedAnalytics

        saved = self._saved
        _wrap(ASRSystem, "transcribe",
              _span_method("asr:transcribe"), saved)
        _wrap(AnnotationEngine, "annotate", _span_method(
            "annotation:annotate",
            lambda span, doc: span.tag("tokens", len(doc.tokens)),
        ), saved)
        _wrap(pipeline.CallRecordLinker, "link", _span_method(
            "linking:record-link",
            lambda span, record: span.tag("linked", record is not None),
        ), saved)
        _wrap(EntityLinker, "link", _span_method(
            "linking:entity-link",
            lambda span, result: span.tag("linked", result.linked),
        ), saved)
        _wrap(CleaningPipeline, "clean", _span_method(
            "cleaning:clean",
            lambda span, cleaned: span.tag("discarded", cleaned.discarded),
        ), saved)
        _wrap(StreamConsumer, "step", _span_method("stream:step"), saved)
        _wrap(StreamConsumer, "checkpoint", self._checkpoint_wrapper,
              saved)
        _wrap(WindowedAnalytics, "ingest",
              _span_method("stream:window-ingest"), saved)
        _wrap(EpochStore, "publish", _span_method("stream:publish"), saved)
        _wrap(QueryEngine, "query", _span_method("serve:engine"), saved)
        _wrap(SimilarityRegistry, "similarity", self._count_similarity,
              saved)
        for cls in _map_stage_classes():
            _wrap(cls, "process_document", _doc_span, saved)
        _wrap(pipeline, "transcribe_turns",
              self._transcribe_wrapper, saved)
        self._activation = activated(self.tracer, self.metrics)
        self._activation.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._activation.__exit__(exc_type, exc, tb)
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []
        return False

    def _count_similarity(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.similarity_evals += 1
            return original(*args, **kwargs)

        return wrapper

    def _checkpoint_wrapper(self, original):
        @functools.wraps(original)
        def wrapper(consumer, *args, **kwargs):
            result = original(consumer, *args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(
                consumer.checkpointer.path
            )
            return result

        return wrapper

    def _transcribe_wrapper(self, original):
        call_ids = self.call_ids

        @functools.wraps(original)
        def wrapper(asr, turns, *args, **kwargs):
            with get_tracer().span(
                "doc:transcribe", category="bench",
                tags={"id": call_ids.get(id(turns))},
            ):
                return original(asr, turns, *args, **kwargs)

        return wrapper

    def span(self, name):
        """A benchmark-level span (``bench:*`` / ``study:*``)."""
        return self.tracer.span(name, category="bench")

    def query_span(self, payload):
        """The client-side span of one HTTP round trip (tags ``id``)."""
        self.queries_sent += 1
        return self.tracer.span(
            "serve:http", category="bench",
            tags={"id": f"q{self.queries_sent}", "kind": payload["kind"]},
        )

    def paused(self):
        """Record nothing inside the block (output checks run here)."""
        return activated(NULL_TRACER, NULL_METRICS)

    def counters(self):
        """The metrics registry's counters (a plain dict)."""
        return dict(self.metrics.snapshot().get("counters", {}))


class SpanTree:
    """Finished spans with cross-thread parents resolved.

    ``main_thread`` is the tracer's number for the thread that drives
    the workload; ``root`` restricts the analysis to spans inside that
    span's time interval (server-thread spans included).
    """

    def __init__(self, spans, main_thread, root=None):
        if root is not None:
            spans = [
                s for s in spans
                if s.start >= root.start and s.end <= root.end
            ]
        self.spans = spans
        self.by_id = {s.span_id: s for s in spans}
        self.parent = {s.span_id: s.parent_id for s in spans}
        self._adopt_server_spans(main_thread)
        self.children = {}
        for s in spans:
            parent = self.parent[s.span_id]
            if parent in self.by_id:
                self.children.setdefault(parent, []).append(s)

    def _adopt_server_spans(self, main_thread):
        """Parent each other-thread root span under the enclosing
        ``serve:http`` round trip (the client waits inside it)."""
        trips = sorted(
            (s for s in self.spans if s.name == "serve:http"),
            key=lambda s: s.start,
        )
        starts = [s.start for s in trips]
        for s in self.spans:
            if s.thread == main_thread or self.parent[s.span_id] in (
                self.by_id
            ):
                continue
            position = bisect_right(starts, s.start) - 1
            if position >= 0 and trips[position].end >= s.end:
                self.parent[s.span_id] = trips[position].span_id

    def self_time(self, span):
        """Duration minus the union of the children's intervals."""
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get(span.span_id, ())
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def trace_id(self, span):
        """The ``id`` tag of the span or its nearest ancestor."""
        while span is not None:
            if "id" in span.tags:
                return span.tags["id"]
            span = self.by_id.get(self.parent[span.span_id])
        return None

    def named(self, prefix):
        """Spans whose name starts with ``prefix``."""
        return [s for s in self.spans if s.name.startswith(prefix)]

    def total(self, prefix):
        """Summed duration of the spans named ``prefix*``."""
        return sum(s.duration for s in self.named(prefix))

    def total_self(self, prefix, where=None):
        """Summed self time of the spans named ``prefix*``."""
        return sum(
            self.self_time(s) for s in self.named(prefix)
            if where is None or where(s)
        )

    def descendants(self, roots):
        """The ``roots`` and every span below them."""
        out = []
        pending = list(roots)
        while pending:
            span = pending.pop()
            out.append(span)
            pending.extend(self.children.get(span.span_id, ()))
        return out

    def layer_shares(self, spans, base):
        """Self time per layer over ``spans``, as a share of ``base``."""
        seconds = {}
        for span in spans:
            layer = layer_of(span.name)
            seconds[layer] = seconds.get(layer, 0.0) + self.self_time(span)
        return {
            layer: {"self_s": value, "share": value / base if base else 0.0}
            for layer, value in sorted(
                seconds.items(), key=lambda item: -item[1]
            )
        }

    def self_by_name(self):
        """Self time and count per span name (ids stripped)."""
        table = {}
        for span in self.spans:
            name = span.name
            entry = table.setdefault(name, {"count": 0, "self_s": 0.0})
            entry["count"] += 1
            entry["self_s"] += self.self_time(span)
        return dict(
            sorted(table.items(), key=lambda item: -item[1]["self_s"])
        )


def write_spans(path, tree):
    """Write every span as one JSON line: name, start, end, parent, id."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(tree.spans, key=lambda s: s.span_id):
            record = {
                "span": span.span_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": tree.parent.get(span.span_id, span.parent_id),
                "thread": span.thread,
                "id": tree.trace_id(span),
                "tags": {
                    k: v for k, v in span.tags.items() if k != "id"
                },
            }
            handle.write(json.dumps(record, default=str) + "\n")
