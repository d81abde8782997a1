"""WindowedAnalytics: windowed snapshots == batch mining.

The central claim of the streaming subsystem: after any sequence of
ingests (including upserts, late arrivals and evictions), every
snapshot is *bit-identical* to running the batch mining function over
an index holding exactly the window's documents.  The expected window
membership is computed here independently (last-write-wins per doc_id,
buckets within ``[max - W + 1, max]``), so the test does not trust the
window's own bookkeeping.
"""

import random

import pytest

from repro.mining.assoc2d import associate
from repro.mining.index import ConceptIndex, concept_key, field_key
from repro.mining.relfreq import relative_frequency
from repro.mining.trends import emerging_concepts, trend_series
from repro.stream import AssocSpec, RelFreqSpec, WindowedAnalytics

CITIES = ["seattle", "boston", "denver", "miami"]
CARS = ["suv", "compact", "luxury"]
TOPICS = ["billing", "coverage", "roaming"]

WINDOW = 3

ASSOC = AssocSpec(("field", "city"), ("field", "car"))
RELFREQ = RelFreqSpec(
    (field_key("car", "suv"),), ("field", "city"), min_focus_count=1
)


def _keys(rng):
    keys = {
        field_key("city", rng.choice(CITIES)),
        field_key("car", rng.choice(CARS)),
    }
    if rng.random() < 0.7:
        keys.add(concept_key("topic", rng.choice(TOPICS)))
    return keys


def _deliveries(seed, n=150):
    """(doc_id, keys, timestamp) with upserts and late arrivals."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        timestamp = i // 12
        if rng.random() < 0.1 and i > 10:
            # Re-deliver an earlier document with fresh keys (upsert).
            doc_id = rng.randrange(max(1, i - 20), i)
        else:
            doc_id = i
        if rng.random() < 0.08:
            timestamp = max(0, timestamp - rng.randrange(1, 6))  # late
        out.append((doc_id, _keys(rng), timestamp))
    return out


def _expected_window(deliveries, window_buckets):
    """Independent window model: last write wins, floor filtering."""
    live = {}
    max_bucket = None
    for doc_id, keys, timestamp in deliveries:
        floor = (
            None if max_bucket is None
            else max_bucket - window_buckets + 1
        )
        if floor is not None and timestamp < floor:
            continue  # late: dropped
        live[doc_id] = (keys, timestamp)
        if max_bucket is None or timestamp > max_bucket:
            max_bucket = timestamp
    if max_bucket is None:
        return {}
    floor = max_bucket - window_buckets + 1
    return {
        doc_id: (keys, timestamp)
        for doc_id, (keys, timestamp) in live.items()
        if timestamp >= floor
    }


def _batch_index(expected):
    index = ConceptIndex()
    for doc_id, (keys, timestamp) in expected.items():
        index.add_keys(doc_id, keys, timestamp=timestamp)
    return index


def _feed(deliveries):
    window = WindowedAnalytics(
        WINDOW, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
    )
    for doc_id, keys, timestamp in deliveries:
        window.ingest(doc_id, keys, timestamp)
    return window


def _assert_tables_identical(actual, expected):
    assert actual.row_values == expected.row_values
    assert actual.col_values == expected.col_values
    # AssociationCell is a frozen dataclass: == is exact, including
    # the interval-bounded strength floats (bit-identical claim).
    assert actual.cells() == expected.cells()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
class TestBatchEquivalence:
    def test_membership_matches_independent_model(self, seed):
        deliveries = _deliveries(seed)
        window = _feed(deliveries)
        expected = _expected_window(deliveries, WINDOW)
        assert sorted(window.index.document_ids) == sorted(expected)
        for doc_id, (keys, timestamp) in expected.items():
            assert window.index.keys_of(doc_id) == set(keys)
            assert window.index.timestamp_of(doc_id) == timestamp

    def test_assoc_snapshot_bit_identical(self, seed):
        deliveries = _deliveries(seed)
        window = _feed(deliveries)
        batch = _batch_index(_expected_window(deliveries, WINDOW))
        _assert_tables_identical(
            window.assoc_snapshot(0),
            associate(batch, ASSOC.row_dimension, ASSOC.col_dimension),
        )

    def test_relfreq_snapshot_bit_identical(self, seed):
        deliveries = _deliveries(seed)
        window = _feed(deliveries)
        batch = _batch_index(_expected_window(deliveries, WINDOW))
        assert window.relfreq_snapshot(0) == relative_frequency(
            batch, RELFREQ.focus_keys, RELFREQ.candidate_dimension,
            min_focus_count=RELFREQ.min_focus_count,
        )

    def test_trend_snapshots_bit_identical(self, seed):
        deliveries = _deliveries(seed)
        window = _feed(deliveries)
        batch = _batch_index(_expected_window(deliveries, WINDOW))
        # Explicit buckets reach below the window floor (evicted and
        # never-seen periods read as zeros) and past the newest bucket.
        explicit = list(
            range(window.window_floor - 2, window.max_bucket + 2)
        )
        for buckets in (None, explicit):
            for dimension in (
                ("field", "city"), ("field", "car"), ("concept", "topic")
            ):
                for key in batch.keys_of_dimension(dimension):
                    assert window.trend_snapshot(
                        key, buckets=buckets
                    ) == trend_series(batch, key, buckets=buckets)
                assert window.emerging_snapshot(
                    dimension, buckets=buckets, min_total=1
                ) == emerging_concepts(
                    batch, dimension, buckets=buckets, min_total=1
                )

    def test_state_round_trip_preserves_everything(self, seed):
        deliveries = _deliveries(seed)
        window = _feed(deliveries)
        restored = WindowedAnalytics(
            WINDOW, assoc_specs=[ASSOC], relfreq_specs=[RELFREQ]
        ).restore_state(window.to_state())
        assert restored.to_state() == window.to_state()
        _assert_tables_identical(
            restored.assoc_snapshot(0), window.assoc_snapshot(0)
        )
        assert restored.relfreq_snapshot(0) == window.relfreq_snapshot(0)
        assert restored.late_dropped == window.late_dropped
        assert restored.evicted == window.evicted


class TestWindowMechanics:
    def test_eviction_drops_old_buckets(self):
        window = WindowedAnalytics(2)
        window.ingest(0, {field_key("a", "x")}, 0)
        window.ingest(1, {field_key("a", "x")}, 1)
        window.ingest(2, {field_key("a", "y")}, 3)
        assert sorted(window.index.document_ids) == [2]
        assert window.evicted == 2
        assert window.window_floor == 2
        # Dimension values of evicted docs disappear entirely.
        assert window.index.values_of_dimension(("field", "a")) == ["y"]

    def test_late_arrival_dropped_and_counted(self):
        window = WindowedAnalytics(2)
        window.ingest(0, {field_key("a", "x")}, 5)
        assert not window.ingest(1, {field_key("a", "y")}, 2)
        assert window.late_dropped == 1
        assert len(window) == 1

    def test_upsert_replaces_keys_and_timestamp(self):
        window = WindowedAnalytics(5)
        window.ingest(0, {field_key("a", "x")}, 1)
        window.ingest(0, {field_key("a", "y")}, 2)
        assert len(window) == 1
        assert window.index.keys_of(0) == {field_key("a", "y")}
        assert window.trend_snapshot(field_key("a", "x")) == []
        assert window.trend_snapshot(field_key("a", "y")) == [(2, 1)]

    def test_missing_timestamp_rejected(self):
        window = WindowedAnalytics(2)
        with pytest.raises(ValueError, match="no timestamp"):
            window.ingest(0, {field_key("a", "x")}, None)

    def test_restore_rejects_mismatched_window(self):
        window = WindowedAnalytics(2)
        window.ingest(0, {field_key("a", "x")}, 0)
        other = WindowedAnalytics(3)
        with pytest.raises(ValueError, match="configured for 3"):
            other.restore_state(window.to_state())

    def test_empty_window_snapshot_raises_like_batch(self):
        window = WindowedAnalytics(2, assoc_specs=[ASSOC])
        with pytest.raises(ValueError, match="empty window"):
            window.assoc_snapshot(0)
