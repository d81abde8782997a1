"""ProcessBackend contract: ordering, validation, the helper, metrics."""

import pytest

from repro.exec import ProcessBackend, process_pool
from repro.obs import MetricsRegistry, Tracer, activated


def _square(x):
    return x * x


def _add(x, y):
    return x + y


class TestMapContract:
    """Order preservation and column validation, inline and pooled."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_order_preserved(self, workers):
        with ProcessBackend(workers) as backend:
            assert backend.map(_square, range(20)) == [
                i * i for i in range(20)
            ]

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_multi_column_zip(self, workers):
        with ProcessBackend(workers) as backend:
            assert backend.map(_add, [1, 2, 3], [10, 20, 30]) == [
                11, 22, 33
            ]

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError, match="equal lengths"):
            ProcessBackend(2).map(_add, [1, 2], [1, 2, 3])

    def test_empty_columns_yield_empty(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_square, []) == []
            assert backend._pool is None


class TestIntrospection:
    """The pool width is what the runner reads to decide fan-out."""

    def test_effective_workers(self):
        assert ProcessBackend(1).workers == 1
        assert ProcessBackend(3).workers == 3


class TestFactory:
    """process_pool: the one rule for turning --workers into a pool."""

    def test_workers_floor_at_one(self):
        for workers in (-1, 0, 1):
            with process_pool(workers) as backend:
                assert backend is None

    def test_pool_for_two_or_more_workers_closed_on_exit(self):
        with process_pool(2) as backend:
            assert isinstance(backend, ProcessBackend)
            assert backend.workers == 2
            assert backend.map(_square, range(6)) == [
                i * i for i in range(6)
            ]
            assert backend._pool is not None
        assert backend._pool is None

    def test_invalid_worker_counts_raise(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessBackend(0)
        with pytest.raises(ValueError, match="workers"):
            ProcessBackend(-3)


class TestObservability:
    """Fan-outs record task/worker/chunk counts — and only record."""

    def test_map_records_kind_tasks_and_workers(self):
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ProcessBackend(3) as backend:
                backend.map(_square, range(7))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["exec.map.process"] == 1
        assert snapshot["counters"]["exec.tasks"] == 7
        assert snapshot["gauges"]["exec.workers"] == 3

    def test_process_map_records_chunks(self):
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ProcessBackend(2) as backend:
                backend.map(_square, range(12))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["exec.map.process"] == 1
        # ceil(12 / (2 workers * 4)) = 2 tasks a chunk -> 6 chunks.
        assert snapshot["gauges"]["exec.chunks"] == 6

    def test_metered_results_equal_bare_results(self):
        with ProcessBackend(3) as backend:
            bare = backend.map(_square, range(9))
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ProcessBackend(3) as backend:
                metered = backend.map(_square, range(9))
        assert metered == bare
