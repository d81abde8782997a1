"""Declarative query specs and their plans over the algebra.

A query arrives as a plain JSON-safe dict — kind plus parameters plus
optional paper-style drill-down ``filters`` — and leaves this module
as a canonical :class:`QuerySpec` with an executable plan.  Planning
never reimplements an analytic: every spec lowers onto the *existing*
batch entry points (:func:`~repro.mining.relfreq.relative_frequency`,
:func:`~repro.mining.assoc2d.associate`,
:func:`~repro.mining.trends.trend_series` /
:func:`~repro.mining.trends.emerging_concepts`,
:func:`~repro.mining.olap.concept_cube`) which run through the
partial/merge/finalize algebra — so a served answer is, by
construction, the same computation a batch caller would get on the
same snapshot, serial or pooled, sharded or not.

Canonicalization matters for the cache: two payloads meaning the same
query (filters spelled explicitly vs. lowered, lists vs. tuples,
key order) normalize to one :meth:`QuerySpec.fingerprint`, so they hit
one cache slot per epoch.

Supported filters (``"filters": {...}``) and their lowerings:

* ``channel`` — restrict to one ingestion channel: extra focus key
  (relfreq), extra intersection key (drilldown), or a slice on the
  ``("field", "channel")`` dimension (cube);
* ``buckets`` — ``[lo, hi]`` inclusive integer time-bucket range:
  forced bucket list for trends / emerging;
* ``category`` — a concept category: the candidate dimension
  (relfreq), ranked dimension (emerging), or an extra cube dimension.

A filter a kind cannot express raises :class:`QueryError` — the
serving layer refuses rather than silently answering a different
question.
"""

import json
from dataclasses import dataclass

from repro.mining.assoc2d import associate
from repro.mining.index import field_key
from repro.mining.olap import concept_cube
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series

#: Query kinds the engine answers, in documentation order.
QUERY_KINDS = (
    "relfreq", "assoc2d", "trends", "emerging", "cube",
    "drilldown", "status",
)

#: Filter names accepted in a spec's ``filters`` clause.
FILTER_NAMES = ("channel", "buckets", "category")

#: Widest ``buckets: [lo, hi]`` filter a query may ask for.  The range
#: is expanded into a bucket list, so an unbounded span would let a
#: tiny request body allocate without limit; 10,000 daily buckets is
#: over 27 years.
MAX_BUCKET_SPAN = 10_000


class QueryError(ValueError):
    """A malformed or unanswerable query spec (HTTP 400 territory)."""


def _as_key(value, what):
    """Normalise one concept key (3-sequence) to a tuple."""
    try:
        key = tuple(value)
    except TypeError:
        raise QueryError(f"{what} must be a [kind, name, value] key, "
                         f"got {value!r}") from None
    if len(key) != 3:
        raise QueryError(
            f"{what} must have exactly 3 parts [kind, name, value], "
            f"got {list(key)!r}"
        )
    return tuple(str(part) for part in key)


def _as_dimension(value, what):
    """Normalise one dimension (2-sequence) to a tuple."""
    try:
        dim = tuple(value)
    except TypeError:
        raise QueryError(f"{what} must be a [kind, name] dimension, "
                         f"got {value!r}") from None
    if len(dim) != 2:
        raise QueryError(
            f"{what} must have exactly 2 parts [kind, name], "
            f"got {list(dim)!r}"
        )
    return tuple(str(part) for part in dim)


def _as_int(value, what, minimum=None):
    """Normalise an integer parameter, bounds-checked."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise QueryError(f"{what} must be >= {minimum}, got {value}")
    return value


def _bucket_list(value, what):
    """Normalise an explicit bucket list (kept as given, ordered)."""
    try:
        buckets = list(value)
    except TypeError:
        raise QueryError(f"{what} must be a list of time buckets, "
                         f"got {value!r}") from None
    return buckets


def _take_filters(payload):
    """Pop and validate the ``filters`` clause of a payload."""
    filters = payload.pop("filters", None)
    if filters is None:
        return {}
    if not isinstance(filters, dict):
        raise QueryError(f"filters must be an object, got {filters!r}")
    unknown = sorted(set(filters) - set(FILTER_NAMES))
    if unknown:
        raise QueryError(
            f"unknown filter(s) {unknown}; supported: "
            f"{list(FILTER_NAMES)}"
        )
    return dict(filters)


def _reject_filters(filters, kind, *names):
    """Raise for filters the kind cannot lower onto its analytic."""
    for name in names:
        if name in filters:
            raise QueryError(
                f"filter {name!r} is not expressible for kind "
                f"{kind!r}; issue the drill-down through the spec's "
                f"own parameters instead"
            )


def _bucket_range(filters):
    """The ``buckets`` filter as a concrete inclusive integer range."""
    lo_hi = filters.pop("buckets")
    try:
        lo, hi = lo_hi
    except (TypeError, ValueError):
        raise QueryError(
            f"buckets filter must be [lo, hi], got {lo_hi!r}"
        ) from None
    lo = _as_int(lo, "buckets filter lo")
    hi = _as_int(hi, "buckets filter hi", minimum=lo)
    if hi - lo + 1 > MAX_BUCKET_SPAN:
        raise QueryError(
            f"buckets filter [{lo}, {hi}] spans {hi - lo + 1} buckets; "
            f"at most {MAX_BUCKET_SPAN} are allowed"
        )
    return list(range(lo, hi + 1))


@dataclass(frozen=True)
class QuerySpec:
    """One canonical, cache-addressable analytic query.

    ``kind`` is one of :data:`QUERY_KINDS`; ``params`` is the fully
    lowered, canonical parameter tuple — nested tuples only, so specs
    are hashable and equality means "same analytic computation".
    Build via :meth:`parse`, never by hand.
    """

    kind: str
    params: tuple

    @classmethod
    def parse(cls, payload):
        """Parse and canonicalize one JSON-safe query payload.

        ``payload`` is a dict with ``kind`` plus kind-specific
        parameters and an optional ``filters`` clause (lowered here).
        Raises :class:`QueryError` on anything malformed, unknown
        parameters included — a typo must never silently broaden a
        query.
        """
        if not isinstance(payload, dict):
            raise QueryError(f"query must be an object, got {payload!r}")
        payload = dict(payload)
        kind = payload.pop("kind", None)
        if kind not in QUERY_KINDS:
            raise QueryError(
                f"unknown query kind {kind!r}; supported: "
                f"{list(QUERY_KINDS)}"
            )
        filters = _take_filters(payload)
        parser = _PARSERS[kind]
        params = parser(payload, filters)
        if payload:
            raise QueryError(
                f"unknown parameter(s) {sorted(payload)} for kind "
                f"{kind!r}"
            )
        if filters:
            # A parser consumes every filter it can lower; leftovers
            # mean the combination is not expressible.
            _reject_filters(filters, kind, *FILTER_NAMES)
        return cls(kind=kind, params=params)

    def param(self, name):
        """One canonical parameter by name."""
        return dict(self.params)[name]

    def to_wire(self):
        """The canonical JSON-safe form (lists, not tuples)."""
        return {"kind": self.kind, "params": _jsonify(dict(self.params))}

    def fingerprint(self):
        """Stable cache-key string for this exact computation."""
        return json.dumps(
            self.to_wire(), sort_keys=True, separators=(",", ":")
        )


def _jsonify(value):
    """Tuples to lists, recursively — the wire form of params."""
    if isinstance(value, tuple) or isinstance(value, list):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def _params(mapping):
    """Canonical params tuple: name-sorted (name, value) pairs."""
    return tuple(sorted(mapping.items()))


# ----------------------------------------------------------------------
# per-kind parsers: payload + filters -> canonical params
# ----------------------------------------------------------------------

def _parse_relfreq(payload, filters):
    """Relevancy analysis: focus keys + candidate dimension."""
    focus = [
        _as_key(key, "focus key")
        for key in payload.pop("focus", [])
    ]
    if "channel" in filters:
        focus.append(field_key("channel", filters.pop("channel")))
    if not focus:
        raise QueryError("relfreq needs at least one focus key "
                         "(or a channel filter)")
    candidates = payload.pop("candidates", None)
    if "category" in filters:
        if candidates is not None:
            raise QueryError(
                "give either candidates or a category filter, not both"
            )
        candidates = ("concept", filters.pop("category"))
    if candidates is None:
        raise QueryError("relfreq needs a candidates dimension "
                         "(or a category filter)")
    return _params({
        "focus": tuple(sorted(set(focus))),
        "candidates": _as_dimension(candidates, "candidates"),
        "min_focus_count": _as_int(
            payload.pop("min_focus_count", 1), "min_focus_count",
            minimum=0,
        ),
    })


def _parse_assoc2d(payload, filters):
    """Two-dimensional association: row x column dimensions."""
    _reject_filters(filters, "assoc2d", "channel", "buckets", "category")
    try:
        rows = payload.pop("rows")
        cols = payload.pop("cols")
    except KeyError as exc:
        raise QueryError(f"assoc2d needs {exc.args[0]!r}") from None
    row_values = payload.pop("row_values", None)
    col_values = payload.pop("col_values", None)
    confidence = payload.pop("confidence", 0.95)
    if not isinstance(confidence, (int, float)) or isinstance(
        confidence, bool
    ):
        raise QueryError(f"confidence must be a number, "
                         f"got {confidence!r}")
    method = payload.pop("method", "wilson")
    return _params({
        "rows": _as_dimension(rows, "rows"),
        "cols": _as_dimension(cols, "cols"),
        "row_values": (
            None if row_values is None
            else tuple(str(v) for v in row_values)
        ),
        "col_values": (
            None if col_values is None
            else tuple(str(v) for v in col_values)
        ),
        "confidence": float(confidence),
        "method": str(method),
    })


def _parse_trends(payload, filters):
    """Time series of one concept key."""
    _reject_filters(filters, "trends", "channel", "category")
    try:
        key = payload.pop("key")
    except KeyError:
        raise QueryError("trends needs 'key'") from None
    buckets = payload.pop("buckets", None)
    if "buckets" in filters:
        if buckets is not None:
            raise QueryError(
                "give either buckets or a buckets filter, not both"
            )
        buckets = _bucket_range(filters)
    return _params({
        "key": _as_key(key, "key"),
        "buckets": (
            None if buckets is None
            else tuple(_bucket_list(buckets, "buckets"))
        ),
    })


def _parse_emerging(payload, filters):
    """Rising-trend ranking of one dimension."""
    _reject_filters(filters, "emerging", "channel")
    dimension = payload.pop("dimension", None)
    if "category" in filters:
        if dimension is not None:
            raise QueryError(
                "give either dimension or a category filter, not both"
            )
        dimension = ("concept", filters.pop("category"))
    if dimension is None:
        raise QueryError("emerging needs a dimension "
                         "(or a category filter)")
    buckets = payload.pop("buckets", None)
    if "buckets" in filters:
        if buckets is not None:
            raise QueryError(
                "give either buckets or a buckets filter, not both"
            )
        buckets = _bucket_range(filters)
    return _params({
        "dimension": _as_dimension(dimension, "dimension"),
        "buckets": (
            None if buckets is None
            else tuple(_bucket_list(buckets, "buckets"))
        ),
        "min_total": _as_int(
            payload.pop("min_total", 3), "min_total", minimum=0
        ),
    })


def _parse_cube(payload, filters):
    """OLAP cube over index dimensions, with one optional view op."""
    _reject_filters(filters, "cube", "buckets")
    dimensions = [
        _as_dimension(dim, "cube dimension")
        for dim in payload.pop("dimensions", [])
    ]
    if "category" in filters:
        extra = ("concept", str(filters.pop("category")))
        if extra not in dimensions:
            dimensions.append(extra)
    slice_ = payload.pop("slice", None)
    if "channel" in filters:
        if slice_ is not None:
            raise QueryError(
                "give either slice or a channel filter, not both"
            )
        channel_dim = ("field", "channel")
        if channel_dim not in dimensions:
            dimensions.append(channel_dim)
        slice_ = [channel_dim, filters.pop("channel")]
    if not dimensions:
        raise QueryError("cube needs at least one dimension "
                         "(or a category/channel filter)")
    rollup = payload.pop("rollup", None)
    if slice_ is not None and rollup is not None:
        raise QueryError("give at most one of slice / rollup")
    if slice_ is not None:
        try:
            slice_dim, slice_value = slice_
        except (TypeError, ValueError):
            raise QueryError(
                f"slice must be [[kind, name], value], got {slice_!r}"
            ) from None
        slice_ = (
            _as_dimension(slice_dim, "slice dimension"),
            str(slice_value),
        )
        if slice_[0] not in dimensions:
            raise QueryError(
                f"slice dimension {list(slice_[0])!r} is not a cube "
                f"dimension"
            )
    if rollup is not None:
        rollup = tuple(
            _as_dimension(dim, "rollup dimension") for dim in rollup
        )
        missing = [d for d in rollup if d not in dimensions]
        if missing:
            raise QueryError(
                f"rollup dimension(s) {[list(d) for d in missing]!r} "
                f"are not cube dimensions"
            )
    return _params({
        "dimensions": tuple(dimensions),
        "slice": slice_,
        "rollup": rollup,
    })


def _parse_drilldown(payload, filters):
    """Fig-4 drill-down: the documents behind a key conjunction."""
    _reject_filters(filters, "drilldown", "buckets", "category")
    keys = [
        _as_key(key, "drilldown key")
        for key in payload.pop("keys", [])
    ]
    if "channel" in filters:
        keys.append(field_key("channel", filters.pop("channel")))
    if not keys:
        raise QueryError("drilldown needs at least one key "
                         "(or a channel filter)")
    with_text = payload.pop("with_text", False)
    if not isinstance(with_text, bool):
        raise QueryError(f"with_text must be a boolean, "
                         f"got {with_text!r}")
    return _params({
        "keys": tuple(sorted(set(keys))),
        "with_text": with_text,
    })


def _parse_status(payload, filters):
    """Health/status query: no parameters."""
    _reject_filters(filters, "status", "channel", "buckets", "category")
    return _params({})


_PARSERS = {
    "relfreq": _parse_relfreq,
    "assoc2d": _parse_assoc2d,
    "trends": _parse_trends,
    "emerging": _parse_emerging,
    "cube": _parse_cube,
    "drilldown": _parse_drilldown,
    "status": _parse_status,
}


# ----------------------------------------------------------------------
# planning: canonical spec -> computation over one snapshot
# ----------------------------------------------------------------------

def _run_relfreq(spec, index, backend):
    """Execute a relfreq spec through the batch entry point."""
    return relative_frequency(
        index,
        list(spec.param("focus")),
        spec.param("candidates"),
        min_focus_count=spec.param("min_focus_count"),
        backend=backend,
    )


def _run_assoc2d(spec, index, backend):
    """Execute an assoc2d spec through the batch entry point."""
    row_values = spec.param("row_values")
    col_values = spec.param("col_values")
    return associate(
        index,
        spec.param("rows"),
        spec.param("cols"),
        confidence=spec.param("confidence"),
        interval_method=spec.param("method"),
        row_values=None if row_values is None else list(row_values),
        col_values=None if col_values is None else list(col_values),
        backend=backend,
    )


def _run_trends(spec, index, backend):
    """Execute a trends spec through the batch entry point."""
    buckets = spec.param("buckets")
    return trend_series(
        index,
        spec.param("key"),
        buckets=None if buckets is None else list(buckets),
        backend=backend,
    )


def _run_emerging(spec, index, backend):
    """Execute an emerging spec through the batch entry point."""
    buckets = spec.param("buckets")
    return emerging_concepts(
        index,
        spec.param("dimension"),
        buckets=None if buckets is None else list(buckets),
        min_total=spec.param("min_total"),
        backend=backend,
    )


def _run_cube(spec, index, backend):
    """Execute a cube spec, applying the optional view operation."""
    cube = concept_cube(
        index, list(spec.param("dimensions")), backend=backend
    )
    slice_ = spec.param("slice")
    if slice_ is not None:
        return cube.slice(slice_[0], slice_[1])
    rollup = spec.param("rollup")
    if rollup is not None:
        return cube.rollup(list(rollup))
    return cube


def _run_drilldown(spec, index, backend):
    """Execute a drill-down: intersect postings, optionally with text."""
    keys = spec.param("keys")
    docs = index.documents_with(keys[0])
    for key in keys[1:]:
        docs &= index.documents_with(key)
    doc_ids = sorted(docs, key=str)
    texts = None
    if spec.param("with_text"):
        if not index.keeps_documents:
            raise QueryError(
                "drilldown with_text needs an index built with "
                "keep_documents=True"
            )
        texts = [index.text_of(doc_id) for doc_id in doc_ids]
    return {"doc_ids": doc_ids, "texts": texts}


def _run_status(spec, index, backend):
    """Execute a status query: the snapshot's structural counters."""
    return index.stats()


_RUNNERS = {
    "relfreq": _run_relfreq,
    "assoc2d": _run_assoc2d,
    "trends": _run_trends,
    "emerging": _run_emerging,
    "cube": _run_cube,
    "drilldown": _run_drilldown,
    "status": _run_status,
}

#: Kinds whose results are cached per (fingerprint, epoch).  Status is
#: excluded: it is already O(1) and callers expect live cache counters.
CACHEABLE_KINDS = frozenset(QUERY_KINDS) - {"status"}


def plan_query(spec, index, backend=None):
    """Execute one canonical spec against one index snapshot.

    ``backend`` is forwarded to the partial-aggregate ``compute``
    exactly as a batch caller would pass it — which is the whole
    point: the served result *is* the batch result on the snapshot,
    on any execution backend.
    """
    return _RUNNERS[spec.kind](spec, index, backend)
