"""Pieces the three workloads share: the measured unit, digests, and
the analyst serving phase that follows a batch study."""

import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.serve import InsightServer, QueryCache, QueryEngine
from repro.stream import EpochStore
from repro.stream.checkpoint import index_to_state

from queries import (
    Client,
    check_served,
    draw_sessions,
    keepalive_round_trips,
    send,
)

#: Result-cache size, as ``bivoc serve`` configures it by default.
CACHE_CAPACITY = 128

#: Keep-alive round trips the traced run times (see queries.Client).
KEEPALIVE_PROBES = 20


@dataclass
class Rep:
    """One measured unit of a workload and everything checked after it.

    ``docs`` documents reached a complete result in ``doc_seconds``;
    ``served`` lists one :class:`queries.Served` per query session;
    ``checks`` maps a check name to ``(operations covered, failed)``;
    ``digest`` maps an output name to the SHA-256 of its canonical form;
    ``keepalive_seconds`` holds the traced run's keep-alive round trips.
    """

    docs: int
    doc_seconds: float
    served: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    digest: dict = field(default_factory=dict)
    stage_report: object = None
    notes: dict = field(default_factory=dict)
    keepalive_seconds: list = field(default_factory=list)

    @property
    def queries(self):
        """Queries sent."""
        return sum(len(s.payloads) for s in self.served)

    @property
    def latencies_ms(self):
        """Every round trip, in milliseconds, in send order."""
        return [
            seconds * 1000.0 for s in self.served for seconds in s.seconds
        ]

    def check(self, name, operations, passed):
        """Record a check that covers ``operations`` operations as a
        whole: if it fails, every one of them counts as failed."""
        self.checks[name] = (operations, 0 if passed else operations)

    def count(self, name, operations, failed):
        """Record a check that failed ``failed`` of ``operations``."""
        self.checks[name] = (operations, failed)

    @property
    def attempted(self):
        """Operations attempted: documents plus queries."""
        return self.docs + self.queries

    @property
    def failed(self):
        """Operations the failed checks cover (at most all of them)."""
        return min(
            self.attempted, sum(failed for _, failed in self.checks.values())
        )


def sha256_of(value):
    """Hex SHA-256 of a value's canonical JSON form."""
    encoded = json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def index_digest(index):
    """Digest of a concept index's full state (documents, keys, times)."""
    return sha256_of(index_to_state(index))


def answers_digest(served_list):
    """Digest of every served answer body, in send order."""
    return sha256_of(
        [json.loads(body) for served in served_list for body in served.bodies]
    )


def serve_index(rep, index, sessions, obs=None):
    """Publish ``index`` and send each session's queries over HTTP.

    The analyst's view of a finished batch study.  Each session starts
    with an empty result cache, as it would after the study's index is
    published again.  Every answer is checked against ``plan_query`` on
    the published snapshot after the last query, outside the timed round
    trips (and, in the traced run, with tracing paused).
    """
    on_query = obs.query_span if obs is not None else None
    quiet = obs.paused if obs is not None else nullcontext
    epochs = EpochStore()
    snapshot = epochs.publish(index, len(index) - 1)
    cache = QueryCache(capacity=CACHE_CAPACITY)
    engine = QueryEngine(epochs, cache=cache)
    server = InsightServer(engine, port=0).start()
    client = Client(server.host, server.port)
    served = []
    try:
        for schedule in sessions:
            cache.clear()
            served.append(send(client, schedule, snapshot.epoch, on_query))
        if obs is not None:
            with quiet():
                rep.keepalive_seconds = keepalive_round_trips(
                    server.host, server.port, sessions[0][0],
                    KEEPALIVE_PROBES,
                )
    finally:
        server.stop()
        engine.close()
    rep.served.extend(served)
    references = {}
    with quiet():
        wrong = sum(
            len(check_served(s, snapshot.index, references)) for s in served
        )
    rep.count("served answers == plan_query", rep.queries, wrong)
    rep.notes["wrong_answers"] = wrong


def session_schedules(seed, workload, vocabulary, size):
    """The seeded query sessions of a workload (see :mod:`queries`); the
    RNG is the workload's own, independent of the corpus generator."""
    return draw_sessions(
        random.Random(f"{workload}:{seed}:queries"), vocabulary,
        size["sessions"], size["distinct"], size["per_session"],
    )
