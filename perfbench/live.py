"""Workload ``live``: ``bivoc serve`` fed by ``bivoc stream``, on one thread.

The consumer warm-starts from a checkpoint of 10,000 indexed calls
(about 6 days at the paper's 1,800 calls/day), then ingests 1,600
reference-transcript calls in ``bivoc serve``'s default micro-batches
of 25.  Each commit publishes an epoch and maintains the 3-day window;
a checkpoint is written every 16 batches.  After each commit one
closed-loop HTTP client sends a session of 16 queries to
``InsightServer``: 4 distinct specs (one cube), each sent 4 times, so
the epoch-keyed cache both misses and hits.  Ingest and queries
alternate on the calling thread, so the numbers measure the program
and not the scheduler.

The sizes are half of what a fuller study would use (20,000 history
documents, 3,200 calls): the whole run, with three set-ups, has to stay
under a minute on a 2-core box, and 64 commits x 16 queries still give
the p99 more than ten samples beyond it.

It is the only workload that exercises epoch publish with
copy-on-write, checkpoints, the window, the query cache under a moving
epoch, and HTTP beside writes: a change that makes publishing cheaper
at the cost of query time shows up here.  Annotation is most of its
ingest.  The checkpoint interval is 16 rather than the CLI default of
4: at 4, checkpoints would take most of the ingest time and hide every
other layer.

The warm start is built only from public calls: a small set of calls
is annotated once, its artifacts are re-labelled with new ids and
days, a consumer whose stage graph is only the index stage indexes
them and saves with ``StreamConsumer.checkpoint()``, and the live
consumer loads that with ``restore()``, as ``bivoc serve`` warm-starts.
"""

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core import BIVoCConfig
from repro.core.pipeline import BIVoCSystem
from repro.engine import Document, PipelineRunner
from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex, field_key
from repro.mining.relfreq import relative_frequency
from repro.mining.stage import ConceptIndexStage
from repro.mining.trends import emerging_concepts, trend_series
from repro.serve import InsightServer, QueryCache, QueryEngine, result_to_wire
from repro.stream import (
    AssocSpec,
    Checkpointer,
    EpochStore,
    MemorySource,
    RelFreqSpec,
    StreamConsumer,
    WindowedAnalytics,
)
from repro.stream.checkpoint import index_to_state
from repro.synth.carrental import CarRentalConfig, generate_car_rental

from common import (
    CACHE_CAPACITY,
    KEEPALIVE_PROBES,
    Rep,
    index_digest,
    session_schedules,
    sha256_of,
)
from queries import (
    Client,
    carrental_vocabulary,
    check_served,
    keepalive_round_trips,
    send,
)

#: Sizes per scale.  The ``sample_*`` calls are annotated once and
#: re-labelled into ``history`` documents spread over the
#: ``history_days`` days before day 0; the live corpus is ``agents`` x
#: ``days`` x ``calls``.
SCALES = {
    "full": {"sample_agents": 10, "sample_days": 2, "sample_calls": 5,
             "history": 10000, "history_days": 6,
             "agents": 80, "days": 2, "calls": 10, "customers": 800,
             "batch": 25, "interval": 16,
             "distinct": 4, "per_session": 16},
    "tiny": {"sample_agents": 3, "sample_days": 2, "sample_calls": 2,
             "history": 300, "history_days": 3,
             "agents": 4, "days": 2, "calls": 3, "customers": 40,
             "batch": 4, "interval": 2,
             "distinct": 2, "per_session": 4},
}

WINDOW_DAYS = 3
HISTORY_ID_BASE = 10 ** 6
ASSOC = AssocSpec(("field", "city"), ("field", "car_type"))
RELFREQ = RelFreqSpec(
    (field_key("detected_intent", "strong"),), ("field", "call_type")
)


def make_window():
    """The windowed analytics ``bivoc stream --source carrental`` keeps."""
    return WindowedAnalytics(
        WINDOW_DAYS, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
    )


def _corpora(seed, scale):
    size = SCALES[scale]
    sample_corpus = generate_car_rental(CarRentalConfig(
        n_agents=size["sample_agents"], n_days=size["sample_days"],
        calls_per_agent_per_day=size["sample_calls"],
        n_customers=10 * size["sample_agents"], seed=seed,
    ))
    live_corpus = generate_car_rental(CarRentalConfig(
        n_agents=size["agents"], n_days=size["days"],
        calls_per_agent_per_day=size["calls"],
        n_customers=size["customers"], seed=seed + 7919,  # not the sample's
    ))
    return sample_corpus, live_corpus


def _schedules(seed, scale, live_corpus):
    """One query session per commit."""
    size = dict(SCALES[scale])
    size["sessions"] = -(-len(live_corpus.transcripts) // size["batch"])
    return session_schedules(
        seed, "live",
        carrental_vocabulary(range(-size["history_days"], size["days"])),
        size,
    )


def input_fingerprint(seed, scale):
    """Digest of the generated inputs (both corpora and schedules)."""
    sample_corpus, live_corpus = _corpora(seed, scale)
    return sha256_of({
        "sample": [t.turns for t in sample_corpus.transcripts],
        "live": [t.turns for t in live_corpus.transcripts],
        "schedules": _schedules(seed, scale, live_corpus),
    })


def _call_document(transcript):
    return Document(
        doc_id=transcript.call_id, channel="call", text=transcript.text,
        artifacts={"transcript": transcript},
    )


def _history(annotated, count, days):
    """``count`` re-labelled copies of the annotated calls, spread over
    the ``days`` days before day 0, as ``(day, Document)`` records."""
    records = []
    for i in range(count):
        source = annotated[i % len(annotated)]
        day = -days + (i * days) // count
        fields = dict(source.get("index_fields"))
        if "day" in fields:
            fields["day"] = day
        records.append((day, Document(
            doc_id=HISTORY_ID_BASE + i, channel="call", text=source.text,
            artifacts={"annotated": source.get("annotated"),
                       "index_fields": fields, "timestamp": day},
        )))
    return records


@dataclass
class State:
    """A warm-started consumer behind a running server."""

    consumer: object
    epochs: object
    engine: object
    server: object
    client: object
    saved: object  # the consumer that wrote the warm-start checkpoint
    live_ids: list
    schedules: list

    def close(self):
        """Stop the server, engine and consumer."""
        self.server.stop()
        self.engine.close()
        self.consumer.close()


def setup(seed, scale, workdir):
    """Build the warm-start checkpoint and a restored, serving consumer."""
    size = SCALES[scale]
    sample_corpus, live_corpus = _corpora(seed, scale)
    system = BIVoCSystem(BIVoCConfig(use_asr=False, link_mode="content"))

    sample_stages = system.build_call_stages(sample_corpus)[:-1]
    with PipelineRunner(sample_stages) as runner:
        annotated = runner.run(
            [_call_document(t) for t in sample_corpus.transcripts]
        ).documents
    history = _history(annotated, size["history"], size["history_days"])

    path = os.path.join(workdir, "live.ckpt.json")
    for stale in (path, path + ".prev"):
        if os.path.exists(stale):
            os.remove(stale)
    saved = StreamConsumer(
        MemorySource(history), [ConceptIndexStage(on_duplicate="replace")],
        window=make_window(), checkpointer=Checkpointer(path),
        batch_docs=1000, checkpoint_interval=len(history) + 1,
    )
    saved.run()
    saved.close()

    arrivals = sorted(
        live_corpus.transcripts, key=lambda t: (t.day, t.call_id)
    )
    source = MemorySource(
        history + [(t.day, _call_document(t)) for t in arrivals]
    )
    stages = system.build_call_stages(
        live_corpus, index_stage=ConceptIndexStage(on_duplicate="replace")
    )
    epochs = EpochStore()
    consumer = StreamConsumer(
        source, stages, window=make_window(),
        checkpointer=Checkpointer(path), batch_docs=size["batch"],
        checkpoint_interval=size["interval"], epochs=epochs,
    )
    if not consumer.restore():
        raise RuntimeError("warm-start checkpoint missing after save")
    engine = QueryEngine(epochs, cache=QueryCache(capacity=CACHE_CAPACITY))
    server = InsightServer(engine, port=0).start()
    return State(
        consumer=consumer, epochs=epochs, engine=engine, server=server,
        client=Client(server.host, server.port), saved=saved,
        live_ids=[t.call_id for t in arrivals],
        schedules=_schedules(seed, scale, live_corpus),
    )


def _window_outputs(window, index):
    """Window snapshots and the batch functions over the same documents.

    The batch side gets an index of exactly the main index's documents
    whose day is inside the window.
    """
    floor = window.window_floor
    batch = ConceptIndex()
    for doc_id in index.document_ids:
        timestamp = index.timestamp_of(doc_id)
        if timestamp >= floor:
            batch.add_keys(doc_id, index.keys_of(doc_id), timestamp=timestamp)
    snapshot = window.assoc_snapshot(0)
    reference = associate(
        batch, ASSOC.row_dimension, ASSOC.col_dimension,
        confidence=ASSOC.confidence, interval_method=ASSOC.interval_method,
    )
    windowed = {
        "assoc": [snapshot.row_values, snapshot.col_values,
                  snapshot.cells()],
        "relfreq": window.relfreq_snapshot(0),
        "trends": {}, "emerging": {},
    }
    expected = {
        "assoc": [reference.row_values, reference.col_values,
                  reference.cells()],
        "relfreq": relative_frequency(
            batch, RELFREQ.focus_keys, RELFREQ.candidate_dimension,
            min_focus_count=RELFREQ.min_focus_count,
        ),
        "trends": {}, "emerging": {},
    }
    for dimension in (ASSOC.row_dimension, ASSOC.col_dimension,
                      RELFREQ.candidate_dimension):
        for key in batch.keys_of_dimension(dimension):
            windowed["trends"][key] = window.trend_snapshot(key)
            expected["trends"][key] = trend_series(batch, key)
        windowed["emerging"][dimension] = window.emerging_snapshot(
            dimension, min_total=1
        )
        expected["emerging"][dimension] = emerging_concepts(
            batch, dimension, min_total=1
        )
    return windowed, expected


def run(state, obs=None):
    """Ingest the live calls, querying after each commit."""
    quiet = obs.paused if obs is not None else nullcontext
    on_query = obs.query_span if obs is not None else None
    consumer = state.consumer
    live = len(state.live_ids)
    rep = Rep(docs=0, doc_seconds=0.0)

    with quiet():
        restored_ok = (
            index_to_state(consumer.index)
            == index_to_state(state.saved.index)
            and consumer.window.to_state() == state.saved.window.to_state()
        )
    rep.check("restored index == saved index", live, restored_ok)

    processed_before = consumer.report.processed
    wrong = 0
    commits = 0
    while True:
        started = time.perf_counter()
        more = consumer.step()
        rep.doc_seconds += time.perf_counter() - started
        if not more:
            break
        snapshot = state.epochs.current()
        payloads = state.schedules[commits]
        served = send(state.client, payloads, snapshot.epoch, on_query)
        rep.served.append(served)
        with quiet():
            wrong += len(check_served(served, snapshot.index))
        commits += 1
    rep.docs = consumer.report.processed - processed_before
    if obs is not None:
        with quiet():
            rep.keepalive_seconds = keepalive_round_trips(
                state.server.host, state.server.port,
                state.schedules[0][0], KEEPALIVE_PROBES,
            )
    rep.count("served answers == plan_query", rep.queries, wrong)
    rep.notes["wrong_answers"] = wrong

    index = consumer.index
    rep.check(
        "every live call committed and indexed", live,
        rep.docs == live and all(i in index for i in state.live_ids),
    )
    with quiet():
        windowed, expected = _window_outputs(consumer.window, index)
    rep.check("window snapshots == batch mining", live,
              windowed == expected)

    rep.notes["commits"] = commits
    rep.notes["checkpoints"] = consumer.report.checkpoints
    rep.stage_report = consumer.stage_report()
    rep.digest = {
        "index": index_digest(index),
        "window": sha256_of({
            "assoc": result_to_wire(
                "assoc2d", consumer.window.assoc_snapshot(0)
            ),
            "relfreq": result_to_wire("relfreq", windowed["relfreq"]),
            "trends": sorted(windowed["trends"].items()),
            "emerging": sorted(windowed["emerging"].items()),
        }),
        "stream": sha256_of([
            consumer.committed_offset, consumer.report.batches,
            consumer.report.checkpoints, rep.docs,
        ]),
    }
    return rep
