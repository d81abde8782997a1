"""ExecBackend protocol: ordering, lifecycle, factories, metrics."""

import pytest

from repro.exec import (
    BACKEND_KINDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.obs import MetricsRegistry, Tracer, activated


def _square(x):
    return x * x


def _add(x, y):
    return x + y


class TestMapContract:
    """Order preservation and column validation, every backend."""

    @pytest.mark.parametrize("backend", [
        SerialBackend(), ThreadBackend(4), ProcessBackend(2),
    ], ids=["serial", "thread", "process"])
    def test_order_preserved(self, backend):
        with backend:
            assert backend.map(_square, range(20)) == [
                i * i for i in range(20)
            ]

    @pytest.mark.parametrize("backend", [
        SerialBackend(), ThreadBackend(3), ProcessBackend(2),
    ], ids=["serial", "thread", "process"])
    def test_multi_column_zip(self, backend):
        with backend:
            assert backend.map(_add, [1, 2, 3], [10, 20, 30]) == [
                11, 22, 33
            ]

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SerialBackend().map(_add, [1, 2], [1, 2, 3])

    def test_empty_columns_yield_empty(self):
        with ThreadBackend(4) as backend:
            assert backend.map(_square, []) == []


class TestIntrospection:
    """Workers / fan-out / pickling flags drive the callers' choices."""

    def test_effective_workers(self):
        assert SerialBackend().effective_workers() == 1
        assert ThreadBackend(5).effective_workers() == 5
        assert ProcessBackend(3).effective_workers() == 3

    def test_can_fan_out(self):
        assert not SerialBackend().can_fan_out()
        assert not ThreadBackend(1).can_fan_out()
        assert ThreadBackend(2).can_fan_out()
        assert ProcessBackend(2).can_fan_out()

    def test_requires_pickling_only_for_process(self):
        assert not SerialBackend().requires_pickling
        assert not ThreadBackend(2).requires_pickling
        assert ProcessBackend(2).requires_pickling


class TestFactory:
    """make_backend: names to instances, knob validation."""

    def test_kind_table(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread", workers=3), ThreadBackend)
        assert isinstance(
            make_backend("process", workers=2), ProcessBackend
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_process_knobs_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="process-backend knobs"):
            make_backend("thread", workers=2, chunk_size=8)

    def test_workers_floor_at_one(self):
        assert make_backend("thread", workers=0).effective_workers() == 1

    def test_invalid_worker_counts_raise(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadBackend(0)
        with pytest.raises(ValueError, match="workers"):
            ProcessBackend(0)
        with pytest.raises(ValueError, match="chunk_size"):
            ProcessBackend(2, chunk_size=0)


class TestObservability:
    """Fan-outs record kind/worker/chunk counts — and only record."""

    def test_map_records_kind_tasks_and_workers(self):
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ThreadBackend(3) as backend:
                backend.map(_square, range(7))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["exec.map.thread"] == 1
        assert snapshot["counters"]["exec.tasks"] == 7
        assert snapshot["gauges"]["exec.workers"] == 3

    def test_process_map_records_chunks(self):
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ProcessBackend(2, chunk_size=3) as backend:
                backend.map(_square, range(12))
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["exec.map.process"] == 1
        assert snapshot["gauges"]["exec.chunks"] == 4

    def test_metered_results_equal_bare_results(self):
        with ThreadBackend(3) as backend:
            bare = backend.map(_square, range(9))
        metrics = MetricsRegistry()
        with activated(Tracer(), metrics):
            with ThreadBackend(3) as backend:
                metered = backend.map(_square, range(9))
        assert metered == bare

    def test_backend_kinds_is_the_cli_contract(self):
        assert BACKEND_KINDS == ("serial", "thread", "process")
