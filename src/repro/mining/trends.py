"""Concept trend analysis over time.

"Even a simple function that examines the increase and decrease of
occurrences of each concept in a certain period may allow us to
analyze trends in the topics." (paper Section IV-D)

Both analyses run through the partial/merge/finalize algebra
(:mod:`repro.mining.algebra`): each shard contributes integer
per-bucket occurrence counts, merges sum them exactly, and bucket
ranges, zero-filling and slopes are derived once from the merged
integers — bit-identical to the single-index form.
"""

from repro.mining.algebra import PartialAggregate, compute, merge_counts


def observed_bucket_range(observed):
    """Zero-fill-ready bucket list spanning the observed buckets.

    Integer buckets (the corpora's day/month indices) expand to the
    full contiguous ``min..max`` range so zero-count periods stay in
    the series — dropping them flattens every gap and makes
    :func:`trend_slope` overestimate rises.  Non-enumerable bucket
    types fall back to the sorted observed buckets.
    """
    buckets = sorted(observed)
    if not buckets:
        return []
    if all(
        isinstance(bucket, int) and not isinstance(bucket, bool)
        for bucket in buckets
    ):
        return list(range(buckets[0], buckets[-1] + 1))
    return buckets


def _bucket_counts(shard, key):
    """Per-bucket occurrence counts of one key in one shard."""
    counts = {}
    for doc_id in shard.postings_view(key):
        timestamp = shard.timestamp_of(doc_id)
        if timestamp is None:
            continue
        counts[timestamp] = counts.get(timestamp, 0) + 1
    return counts


def _series_from_counts(counts, buckets):
    """The ``(bucket, count)`` series over a bucket list (zero-filled)."""
    if buckets is None:
        buckets = observed_bucket_range(counts)
    return [(bucket, counts.get(bucket, 0)) for bucket in buckets]


class TrendSeriesAggregate(PartialAggregate):
    """One key's time series as a shard-mergeable aggregate.

    Partial state: ``{bucket: count}`` for the key's documents in the
    shard (documents without a timestamp are skipped); merges sum the
    buckets, finalize zero-fills the range.
    """

    analytic = "trend-series"

    def __init__(self, key, buckets=None):
        """``key`` is a concept key; ``buckets`` forces the range."""
        self.key = tuple(key)
        self.buckets = None if buckets is None else list(buckets)

    def identity(self):
        """Empty bucket counts."""
        return {}

    def partial(self, shard):
        """One shard's per-bucket counts for the key."""
        return _bucket_counts(shard, self.key)

    def merge(self, accumulated, update):
        """Sum the per-bucket counts (exact)."""
        return merge_counts(accumulated, update)

    def finalize(self, state, index):
        """The zero-filled ``(bucket, count)`` series."""
        return _series_from_counts(state, self.buckets)


class EmergingConceptsAggregate(PartialAggregate):
    """Rising-trend ranking of a dimension as a mergeable aggregate.

    Partial state: ``{key: {bucket: count}}`` for every key of the
    dimension in the shard — keys whose shard documents all lack
    timestamps still appear (with empty counts) so the merged key set
    matches the single-index dimension catalogue exactly.
    """

    analytic = "emerging-concepts"

    def __init__(self, dimension, buckets=None, min_total=3):
        """``dimension`` to rank; see :func:`emerging_concepts`."""
        self.dimension = tuple(dimension)
        self.buckets = None if buckets is None else list(buckets)
        self.min_total = min_total

    def identity(self):
        """Empty per-key bucket counts."""
        return {}

    def partial(self, shard):
        """One shard's per-key, per-bucket counts."""
        per_key = {}
        for key in shard.keys_of_dimension(self.dimension):
            per_key[key] = _bucket_counts(shard, key)
        return per_key

    def merge(self, accumulated, update):
        """Sum the per-key bucket counts (exact)."""
        merged = dict(accumulated)
        for key, counts in update.items():
            merged[key] = merge_counts(merged.get(key, {}), counts)
        return merged

    def finalize(self, state, index):
        """Rank keys by least-squares slope of their merged series."""
        results = []
        for key in sorted(state):
            series = _series_from_counts(state[key], self.buckets)
            total = sum(count for _, count in series)
            if total < self.min_total:
                continue
            results.append((key, trend_slope(series), total))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results


def trend_series(index, key, buckets=None, backend=None):
    """Occurrences of ``key`` per time bucket.

    Documents indexed without a timestamp are skipped.  Returns a list
    of ``(bucket, count)`` sorted by bucket; ``buckets`` forces the
    bucket list (zero-filled) so series align across concepts.  With
    ``buckets=None`` the series spans the key's full observed bucket
    range (:func:`observed_bucket_range`), so interior zero-count
    periods are reported as zeros rather than silently dropped.

    Runs through the partial-aggregate algebra (per shard on a sharded
    index, optionally across an execution ``backend``) — bit-identical
    to the single-index computation.
    """
    return compute(
        TrendSeriesAggregate(key, buckets=buckets), index, backend=backend
    )


def emerging_concepts(index, dimension, buckets=None, min_total=3,
                      backend=None):
    """Concepts of a dimension ranked by rising trend.

    Returns ``(key, slope, total)`` tuples, steepest rise first —
    the "increase and decrease of occurrences of each concept" analysis
    the paper sketches.  Concepts with fewer than ``min_total``
    occurrences are dropped (their slopes are noise).

    Runs through the partial-aggregate algebra (per shard on a sharded
    index, optionally across an execution ``backend``) — bit-identical
    to the single-index computation.
    """
    aggregate = EmergingConceptsAggregate(
        dimension, buckets=buckets, min_total=min_total
    )
    return compute(aggregate, index, backend=backend)


def trend_slope(series):
    """Least-squares slope of a ``(bucket, count)`` series.

    Buckets must be numeric.  Positive slope = rising topic.  Returns
    0.0 for series shorter than 2 points.
    """
    if len(series) < 2:
        return 0.0
    xs = [float(bucket) for bucket, _ in series]
    ys = [float(count) for _, count in series]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0.0:
        return 0.0
    numerator = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    )
    return numerator / denominator
