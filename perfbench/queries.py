"""The analyst query mix and the closed-loop HTTP client that sends it.

Every workload ends in the serving layer: the batch studies publish
their finished concept index and an analyst explores it, and the live
workload queries the epoch each commit publishes.  Queries travel over
HTTP to :class:`repro.serve.InsightServer`, one connection and one
request in flight at a time (a closed loop with one client).

Queries come in sessions that each start with an empty result cache:
after every commit on ``live`` (a new epoch), and after a cache clear on
the batch studies.  A session names a few *distinct* specs and sends
each the same number of times in a seeded order, so the epoch-keyed
cache misses on the first sight of a spec and hits on every repeat.
One distinct spec per session is a cube, the slowest cold query; the
cube shapes are dealt from a deck of every shape, so a run of as many
sessions as the deck holds uses each shape once whatever the seed.  The
other specs follow :data:`KIND_WEIGHTS`, apportioned exactly over the
run, with parameters drawn from the corpus vocabulary.  So the p99
falls among cold cubes of a fixed mix and the p50 among cache hits,
and neither percentile sits on the boundary between the two.
"""

import http.client
import json
import time

from repro.serve import QuerySpec, plan_query, result_to_wire

#: Kind weights of the non-cube specs.  ``status`` is a health check,
#: not an analyst query, and is left out.
KIND_WEIGHTS = (
    ("relfreq", 3),
    ("assoc2d", 2),
    ("trends", 3),
    ("emerging", 2),
    ("drilldown", 3),
)


class Vocabulary:
    """The dimensions and keys a query may name, for one corpus kind.

    ``dimensions`` are ``(kind, name)`` pairs (cubes, relevancy
    candidates, emerging); ``assoc_dimensions`` the low-cardinality
    ones association tables pair up, so that a cold association stays
    cheaper than a cold cube; ``keys`` full concept keys usable as
    focus / trend / drill-down keys; ``buckets`` the time buckets trend
    filters may range over.
    """

    def __init__(self, dimensions, assoc_dimensions, keys, buckets):
        self.dimensions = [tuple(d) for d in dimensions]
        self.assoc_dimensions = [tuple(d) for d in assoc_dimensions]
        self.keys = [tuple(k) for k in keys]
        self.buckets = list(buckets)


def carrental_vocabulary(buckets):
    """Dimensions and keys of a call-center concept index."""
    from repro.synth.lexicon import CITIES, VEHICLE_TYPES

    keys = (
        [("field", "call_type", v) for v in ("reservation", "unbooked")]
        + [("field", "detected_intent", v) for v in ("strong", "weak")]
        + [("field", "agent_value_selling", "True"),
           ("field", "agent_discount", "True")]
        + [("field", "car_type", v) for v in VEHICLE_TYPES]
        + [("concept", "place", v) for v in CITIES[:6]]
    )
    dimensions = [
        ("field", "city"), ("field", "car_type"), ("field", "call_type"),
        ("field", "detected_intent"), ("concept", "place"),
        ("concept", "vehicle type"), ("field", "agent_value_selling"),
        ("field", "agent_discount"),
    ]
    assoc_dimensions = [
        ("field", "call_type"), ("field", "detected_intent"),
        ("field", "agent_value_selling"), ("field", "agent_discount"),
    ]
    return Vocabulary(dimensions, assoc_dimensions, keys, buckets)


def telecom_vocabulary(buckets):
    """Dimensions and keys of the churn-driver concept index."""
    from repro.annotation.domains import CHURN_DRIVER_SURFACES

    keys = [("field", "channel", v) for v in ("email", "sms")] + [
        ("concept", "churn driver", driver)
        for driver in sorted(CHURN_DRIVER_SURFACES)
    ]
    dimensions = [("concept", "churn driver"), ("field", "channel")]
    return Vocabulary(dimensions, dimensions, keys, buckets)


def _bucket_filter(rng, vocabulary):
    """A random inclusive ``[lo, hi]`` bucket range, or None."""
    if len(vocabulary.buckets) < 2 or rng.random() < 0.5:
        return None
    lo, hi = sorted(rng.sample(vocabulary.buckets, 2))
    return [lo, hi]


def draw_payload(rng, vocabulary, kind, cube_dims=None):
    """One query payload of ``kind`` with seeded parameters.

    ``cube_dims`` fixes a cube's dimensions (dealt by :class:`Deck`).
    """
    dims = vocabulary.dimensions
    keys = vocabulary.keys
    if kind == "cube":
        payload = {"kind": "cube",
                   "dimensions": [list(d) for d in cube_dims]}
        if rng.random() < 0.3:
            dim = payload["dimensions"][0]
            values = [k[2] for k in keys if list(k[:2]) == dim]
            if values:
                payload["slice"] = [dim, rng.choice(values)]
        return payload
    if kind == "relfreq":
        focus = rng.choice(keys)
        candidates = rng.choice([d for d in dims if d != focus[:2]])
        return {"kind": "relfreq", "focus": [list(focus)],
                "candidates": list(candidates),
                "min_focus_count": rng.randint(1, 3)}
    if kind == "assoc2d":
        rows, cols = rng.sample(vocabulary.assoc_dimensions, 2)
        return {"kind": "assoc2d", "rows": list(rows), "cols": list(cols),
                "confidence": rng.choice([0.9, 0.95, 0.99]),
                "method": rng.choice(["wilson", "normal"])}
    if kind == "trends":
        payload = {"kind": "trends", "key": list(rng.choice(keys))}
        buckets = _bucket_filter(rng, vocabulary)
        if buckets is not None:
            payload["filters"] = {"buckets": buckets}
        return payload
    if kind == "emerging":
        payload = {"kind": "emerging",
                   "dimension": list(rng.choice(dims)),
                   "min_total": rng.choice([1, 2, 3, 5])}
        buckets = _bucket_filter(rng, vocabulary)
        if buckets is not None:
            payload["filters"] = {"buckets": buckets}
        return payload
    if kind == "drilldown":
        chosen = rng.sample(keys, rng.randint(1, 2))
        return {"kind": "drilldown", "keys": [list(k) for k in chosen]}
    raise ValueError(f"unknown query kind {kind!r}")


class Deck:
    """Deals ``items`` in a seeded order, reshuffling after each pass."""

    def __init__(self, rng, items):
        self._rng = rng
        self._items = list(items)
        self._pending = []

    def deal(self):
        """The next item."""
        if not self._pending:
            self._pending = list(self._items)
            self._rng.shuffle(self._pending)
        return self._pending.pop()


def cube_deck(rng, vocabulary):
    """A :class:`Deck` of cube shapes: every dimension alone and every
    ordered pair of dimensions."""
    dims = vocabulary.dimensions
    return Deck(
        rng,
        [(a,) for a in dims] + [(a, b) for a in dims for b in dims if a != b],
    )


def kind_plan(rng, slots):
    """Kinds for ``slots`` non-cube specs, in exact proportion to
    :data:`KIND_WEIGHTS` (largest remainder), in a seeded order."""
    total = sum(weight for _, weight in KIND_WEIGHTS)
    shares = [(kind, slots * weight / total) for kind, weight in KIND_WEIGHTS]
    counts = {kind: int(share) for kind, share in shares}
    by_remainder = sorted(
        shares, key=lambda item: item[1] - int(item[1]), reverse=True
    )
    for kind, _ in by_remainder[:slots - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def _draw_distinct(rng, vocabulary, kinds, cube_dims):
    """A cube of shape ``cube_dims`` plus one payload per entry of
    ``kinds``, all with distinct fingerprints."""
    payloads = []
    seen = set()
    for kind in ["cube"] + list(kinds):
        for _ in range(100):
            payload = draw_payload(rng, vocabulary, kind, cube_dims)
            fingerprint = QuerySpec.parse(payload).fingerprint()
            if fingerprint not in seen:
                break
        else:
            raise RuntimeError("query vocabulary too small for the mix")
        seen.add(fingerprint)
        payloads.append(payload)
    return payloads


def draw_sessions(rng, vocabulary, sessions, distinct, per_session):
    """``sessions`` lists of ``per_session`` payloads each.

    A session holds ``distinct`` specs (one cube), each sent
    ``per_session // distinct`` times, shuffled.
    """
    deck = cube_deck(rng, vocabulary)
    others = distinct - 1
    kinds = kind_plan(rng, sessions * others)
    schedules = []
    for n in range(sessions):
        payloads = _draw_distinct(
            rng, vocabulary, kinds[n * others:(n + 1) * others], deck.deal()
        )
        schedule = payloads * (per_session // distinct)
        rng.shuffle(schedule)
        schedules.append(schedule)
    return schedules


class Client:
    """Sends each query on a new connection, closed before the next.

    Over one keep-alive connection every answer waits about 40 ms: the
    server writes the headers and the body in two sends, and Nagle's
    algorithm holds the body until the client's delayed ACK of the
    headers.  A new connection starts in quick-ACK mode, so its round
    trip measures the server's work; :func:`keepalive_round_trips`
    measures the stall itself (``serve.keepalive_p50_ms``).
    """

    def __init__(self, host, port):
        self.host = host
        self.port = port

    def query(self, body):
        """POST one encoded payload; ``(status, raw body, seconds)``."""
        started = time.perf_counter()
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=120
        )
        try:
            status, data = _post(connection, body)
        finally:
            connection.close()
        return status, data, time.perf_counter() - started


def _post(connection, body):
    """One ``POST /query`` on ``connection``; ``(status, raw body)``."""
    connection.request(
        "POST", "/query", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


def keepalive_round_trips(host, port, payload, count):
    """Seconds per round trip of ``count`` copies of ``payload`` sent
    one after another over a single keep-alive connection."""
    body = json.dumps(payload).encode("utf-8")
    connection = http.client.HTTPConnection(host, port, timeout=120)
    seconds = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            _post(connection, body)
            seconds.append(time.perf_counter() - started)
    finally:
        connection.close()
    return seconds


class Served:
    """The answers one session's queries received at one epoch."""

    def __init__(self, epoch):
        self.epoch = epoch
        self.payloads = []
        self.statuses = []
        self.bodies = []
        self.seconds = []


def send(client, payloads, epoch, on_query=None):
    """Send ``payloads`` in order; returns the :class:`Served` record.

    ``on_query`` wraps each round trip (the traced run opens a span
    there); it receives the payload and returns a context manager.
    """
    served = Served(epoch)
    for payload in payloads:
        body = json.dumps(payload).encode("utf-8")
        if on_query is None:
            status, data, seconds = client.query(body)
        else:
            with on_query(payload):
                status, data, seconds = client.query(body)
        served.payloads.append(payload)
        served.statuses.append(status)
        served.bodies.append(data)
        served.seconds.append(seconds)
    return served


def reference_answer(payload, index):
    """What a served answer must equal: ``plan_query`` on the snapshot,
    rendered to the wire form and through one JSON round trip."""
    spec = QuerySpec.parse(payload)
    value = plan_query(spec, index)
    return json.loads(json.dumps(result_to_wire(spec.kind, value)))


def check_served(served, index, references=None):
    """Positions of answers that differ from the batch computation.

    ``index`` is the snapshot of the epoch the queries were sent at;
    ``references`` may carry reference answers over from earlier calls
    on the same snapshot.
    """
    references = {} if references is None else references
    wrong = []
    for position, (payload, status, data) in enumerate(
        zip(served.payloads, served.statuses, served.bodies)
    ):
        if status != 200:
            wrong.append(position)
            continue
        body = json.loads(data)
        key = json.dumps(payload, sort_keys=True)
        if key not in references:
            references[key] = reference_answer(payload, index)
        if (body.get("epoch") != served.epoch
                or body.get("result") != references[key]):
            wrong.append(position)
    return wrong
