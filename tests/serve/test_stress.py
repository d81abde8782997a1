"""Concurrency stress: one writer ingesting, N readers querying.

The acceptance bar for the serving subsystem: while a consumer commits
micro-batches, concurrent readers issue analytic queries and *every*
response must be ``==`` to the batch computation over the exact stream
prefix named by its epoch stamp — serial and pooled, single-index and
sharded, with tracing active.  A torn read (a response mixing two
epochs, or observing a half-applied batch) cannot produce a value that
equals any prefix's batch reference, so the equality sweep doubles as
the no-torn-read check.
"""

import threading

import pytest

from repro.exec import make_backend
from repro.obs import MetricsRegistry, Tracer, activated
from repro.serve import QueryCache, QueryEngine, QuerySpec, plan_query
from repro.stream import EpochStore

from tests.serve.corpus import make_consumer, make_pairs, reference_index

N_READERS = 4
QUERIES_PER_READER = 30

PAYLOADS = [
    {"kind": "assoc2d", "rows": ["field", "city"],
     "cols": ["field", "car"]},
    {"kind": "relfreq", "focus": [["field", "city", "boston"]],
     "candidates": ["field", "car"], "min_focus_count": 0},
    {"kind": "trends", "key": ["field", "car", "suv"],
     "filters": {"buckets": [0, 4]}},
    {"kind": "emerging", "dimension": ["field", "channel"],
     "min_total": 1},
    {"kind": "cube",
     "dimensions": [["field", "city"], ["field", "channel"]]},
    {"kind": "drilldown", "keys": [["field", "car", "suv"]],
     "filters": {"channel": "email"}},
]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("workers", [0, 2])
def test_reader_responses_equal_batch_reference(shards, workers):
    """Every concurrent response == its epoch's batch computation."""
    pairs = make_pairs()
    epochs = EpochStore(history=None)  # retain every epoch to verify
    consumer = make_consumer(pairs, shards=shards, epochs=epochs)
    # Commit one batch up front: association analysis (correctly)
    # refuses an empty index, so readers start at a non-empty epoch.
    assert consumer.step()
    backend = make_backend("thread", workers=workers) if workers else None
    engine = QueryEngine(
        epochs, backend=backend, cache=QueryCache(capacity=32)
    )
    specs = [QuerySpec.parse(dict(p)) for p in PAYLOADS]

    start = threading.Barrier(N_READERS + 1)
    samples = []       # (epoch, spec_index, value) observations
    samples_lock = threading.Lock()
    errors = []

    def writer():
        """Ingest the whole stream, batch by batch."""
        start.wait()
        while consumer.step():
            pass

    def reader(rng_offset):
        """Fire rotating queries, collecting stamped responses."""
        start.wait()
        try:
            for i in range(QUERIES_PER_READER):
                spec = specs[(i + rng_offset) % len(specs)]
                result = engine.query(spec)
                with samples_lock:
                    samples.append(
                        (result.epoch, (i + rng_offset) % len(specs),
                         result.value)
                    )
        except Exception as exc:  # propagated to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(n,))
        for n in range(N_READERS)
    ]
    tracer = Tracer()
    with activated(tracer, MetricsRegistry()):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    engine.close()
    if backend is not None:
        backend.close()
    assert not errors, errors

    published = set(epochs.epochs())
    observed_epochs = {epoch for epoch, _, _ in samples}
    # Every stamp names a real commit boundary: no torn epochs.
    assert observed_epochs <= published
    assert len(samples) == N_READERS * QUERIES_PER_READER

    # Re-run each distinct (epoch, spec) as a one-shot batch job on an
    # independently built index over that exact stream prefix.
    references = {}
    for epoch, spec_index, value in samples:
        key = (epoch, spec_index)
        if key not in references:
            batch_index = reference_index(pairs, epoch, shards=shards)
            references[key] = plan_query(specs[spec_index], batch_index)
        assert value == references[key]

    # Tracing was live the whole time: the query spans must be there.
    assert any(
        span.name.startswith("query:") for span in tracer.finished()
    )


def test_final_epoch_matches_full_batch():
    """After draining, the served view equals the full-corpus batch."""
    pairs = make_pairs()
    epochs = EpochStore(history=None)
    consumer = make_consumer(pairs, shards=4, epochs=epochs)
    consumer.run()
    engine = QueryEngine(epochs)
    full = reference_index(pairs, len(pairs) - 1, shards=4)
    for payload in PAYLOADS:
        spec = QuerySpec.parse(dict(payload))
        assert engine.query(spec).value == plan_query(spec, full)
