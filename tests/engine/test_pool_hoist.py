"""The runner's warm execution backend: built once, borrowed per run.

A parallel runner uses exactly one executor no matter how many
parallel stages or runs it executes (the backend's pool spawns once
and is warm-reused), the runner only borrows the backend — closing the
runner never shuts it down, the backend's owner does — the runner and
the query engine take no execution argument besides ``backend``, and
parallel output stays bit-identical to serial in every configuration.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Document, MapStage, PipelineRunner
from repro.exec import ThreadBackend, make_backend
import repro.exec.backend as backend_module


class Square(MapStage):
    """value <- doc_id ** 2 (pure)."""

    name = "square"

    def process_document(self, document):
        """Record the squared id."""
        document.put("value", document.doc_id ** 2)


class Offset(MapStage):
    """value <- value + 7 (pure)."""

    name = "offset"

    def process_document(self, document):
        """Shift the running value."""
        document.put("value", document.get("value") + 7)


class Offset2(Offset):
    """Second offset stage (stage names must be unique per graph)."""

    name = "offset-2"


def _docs(n):
    return [Document(doc_id=i) for i in range(n)]


def _values(result):
    return [d.get("value") for d in result.documents]


class CountingExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor that counts constructions and shutdowns."""

    created = 0
    closed = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        type(self).closed += 1
        super().shutdown(*args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    """Patch the thread backend's executor class and reset counters."""
    CountingExecutor.created = 0
    CountingExecutor.closed = 0
    monkeypatch.setattr(
        backend_module, "ThreadPoolExecutor", CountingExecutor
    )
    return CountingExecutor


class TestOneExecutorPerRunner:
    def test_single_pool_spans_all_stages(self, counting):
        with make_backend("thread", workers=3) as backend:
            with PipelineRunner(
                [Square(), Offset(), Offset2()], batch_size=4,
                backend=backend,
            ) as runner:
                result = runner.run(_docs(32))
                # Three parallel stages, one executor.
                assert counting.created == 1
                assert counting.closed == 0
                assert all(s.parallel for s in result.report.stages)
            # The runner only borrowed the backend.
            assert counting.closed == 0
        # The owner's context exit released it.
        assert counting.closed == 1

    def test_runs_share_the_warm_pool(self, counting):
        with ThreadBackend(2) as backend:
            runner = PipelineRunner([Square()], batch_size=4, backend=backend)
            runner.run(_docs(16))
            runner.run(_docs(16))
            # Warm-reuse: the second run did not respawn workers.
            assert counting.created == 1
        assert counting.closed == 1

    def test_serial_run_builds_no_pool(self, counting):
        runner = PipelineRunner([Square(), Offset()], batch_size=4)
        result = runner.run(_docs(16))
        runner.close()
        assert counting.created == 0
        assert not any(s.parallel for s in result.report.stages)

    def test_workers_one_builds_no_pool(self, counting):
        with ThreadBackend(1) as backend:
            result = PipelineRunner(
                [Square()], batch_size=4, backend=backend
            ).run(_docs(16))
        assert counting.created == 0
        assert not any(s.parallel for s in result.report.stages)


class TestExternalPool:
    def test_injected_pool_is_used_and_kept_open(self, counting):
        with ThreadBackend(3) as backend:
            runner = PipelineRunner(
                [Square(), Offset()], batch_size=4, backend=backend
            )
            first = runner.run(_docs(24))
            second = runner.run(_docs(24))
            runner.close()
            # The runner used the injected backend's one pool and left
            # it usable between runs — and after close().
            assert counting.created == 1
            assert counting.closed == 0
            assert all(s.parallel for s in first.report.stages)
            assert backend.map(lambda x: x + 1, [41, 1]) == [42, 2]
        assert _values(first) == _values(second)


class TestExclusiveExecutorKnobs:
    """One execution argument: two executors can never compete.

    Every constructor takes a single ``backend``; the ``pool`` and
    ``workers`` knobs no longer exist, so an ambiguous pair cannot be
    passed at all — the runner and the query engine reject it alike.
    """

    def test_pool_with_workers_raises(self):
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(TypeError, match="unexpected keyword"):
                PipelineRunner([Square()], workers=3, pool=pool)

    def test_pool_with_backend_raises(self):
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(TypeError, match="'pool'"):
                PipelineRunner([Square()], pool=pool, backend=None)

    def test_backend_instance_with_workers_raises(self):
        with ThreadBackend(2) as backend:
            with pytest.raises(TypeError, match="'workers'"):
                PipelineRunner([Square()], workers=3, backend=backend)

    def test_query_engine_raises_the_same_way(self):
        from repro.serve.engine import QueryEngine
        from repro.stream.epoch import EpochStore

        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(TypeError, match="unexpected keyword"):
                QueryEngine(EpochStore(), pool=pool, workers=3)


class TestBitIdentity:
    def test_parallel_matches_serial(self):
        stages = [Square(), Offset()]
        serial = PipelineRunner(
            [Square(), Offset()], batch_size=4
        ).run(_docs(40))
        with make_backend("thread", workers=4) as backend:
            hoisted = PipelineRunner(
                stages, batch_size=4, backend=backend
            ).run(_docs(40))
            # A second runner borrowing the same backend.
            injected = PipelineRunner(
                [Square(), Offset()], batch_size=4, backend=backend
            ).run(_docs(40))
        assert _values(hoisted) == _values(serial)
        assert _values(injected) == _values(serial)
        assert [d.doc_id for d in hoisted.documents] == list(range(40))
