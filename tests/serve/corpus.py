"""Shared stream corpus + wiring for the serving tests.

One deterministic synthetic feed (structured city/car/channel fields
plus a coarse time bucket) used by the epoch, engine, server and
stress tests, together with the two constructions the bit-identity
assertions compare:

* :func:`make_consumer` — the *streaming* side: a
  :class:`~repro.stream.consumer.StreamConsumer` indexing the feed and
  publishing epoch snapshots;
* :func:`reference_index` — the *batch* side: a fresh index built
  directly from the same stream prefix, with no streaming machinery
  involved.

A served answer at epoch ``e`` must equal (``==``) the analytic run
against ``reference_index(pairs, e)`` — that is the snapshot-isolation
contract.
"""

from repro.engine import Document
from repro.mining.index import ConceptIndex
from repro.mining.sharded import ShardedConceptIndex
from repro.mining.stage import ConceptIndexStage
from repro.stream import MemorySource, StreamConsumer
from repro.util.rng import derive_rng

CITIES = ["seattle", "boston", "denver"]
CARS = ["suv", "compact", "luxury"]
CHANNELS = ["call", "email", "sms"]

N_DOCS = 48       # not a multiple of BATCH_DOCS: ragged final epoch
BATCH_DOCS = 7


def make_pairs(n=N_DOCS, seed=11):
    """Deterministic ``(timestamp, document)`` arrivals; fresh each call."""
    rng = derive_rng(seed, "serve-test-corpus")
    pairs = []
    for i in range(n):
        fields = {
            "city": rng.choice(CITIES),
            "car": rng.choice(CARS),
            "channel": rng.choice(CHANNELS),
        }
        document = Document(
            doc_id=f"d{i}",
            channel=fields["channel"],
            text=f"voice of customer {i}",
            artifacts={"index_fields": fields},
        )
        pairs.append((i // 10, document))
    return pairs


def _new_index(shards, keep_documents=False):
    """A fresh empty index in the requested layout."""
    if shards:
        return ShardedConceptIndex(shards, keep_documents=keep_documents)
    return ConceptIndex(keep_documents=keep_documents)


def reference_index(pairs, upto_offset, shards=0):
    """Batch-build the index for the stream prefix ``[0, upto_offset]``.

    Mirrors exactly what :class:`ConceptIndexStage` does per document
    (fields + timestamp, no stored text) but with no consumer, no
    batching, no snapshots — the independent reference the served
    answers are compared against.
    """
    index = _new_index(shards)
    for offset, (timestamp, document) in enumerate(pairs):
        if offset > upto_offset:
            break
        index.add(
            document.doc_id,
            fields=document.artifacts["index_fields"],
            timestamp=timestamp,
            on_duplicate="replace",
        )
    return index


def make_consumer(pairs, shards=0, epochs=None, batch_docs=BATCH_DOCS):
    """A stream consumer indexing ``pairs``, publishing into ``epochs``."""
    return StreamConsumer(
        MemorySource(pairs),
        [ConceptIndexStage(on_duplicate="replace", shards=shards)],
        batch_docs=batch_docs,
        epochs=epochs,
    )
