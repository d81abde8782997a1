"""The process backend: a warm ProcessPoolExecutor behind ``map``.

:class:`ProcessBackend` escapes the GIL for CPU-bound fan-out — the
per-document pipeline stages (annotation, entity linking) are pure
Python compute, where a thread pool only interleaves.

The contract has three parts:

* **Picklable task envelopes** — everything shipped to a worker must
  pickle, which is why the runner hands this backend a module-level
  envelope (its stage task), never a span-opening closure.  An
  unpicklable payload raises a clear :class:`BackendError` naming the
  work unit *before* any task is submitted, so a poisoned payload can
  never wedge the warm pool.
* **Chunked, order-preserving map** — tasks travel in contiguous
  chunks (``ceil(n / (workers * 4))``, so each worker sees a handful
  of chunks for load balance) and results come back in submission
  order regardless of completion order, keeping every caller's
  left-fold bit-identical to the inline run.
* **Worker warm-reuse and clean teardown** — the pool spawns lazily on
  the first real fan-out and is reused across calls; ``close`` (also
  run by context-exit and on ``KeyboardInterrupt`` during a map) shuts
  it down so no worker process outlives its backend.

A task that raises in a worker propagates the *original* exception to
the caller, with the worker-side traceback chained on (the stdlib
attaches it as ``__cause__``), so an injected ``fault_point`` crash in
one worker reads exactly like the inline failure would.

Spawn-safety: envelopes are defined at module level and hold only
picklable state, so the backend works under the ``spawn`` start method
(fresh interpreters) as well as ``fork``.  Result determinism does not
depend on the child interpreter's hash randomization, which the
equivalence suites in ``tests/prop`` and ``tests/exec`` assert.

Observability is write-only: each fan-out records task, worker and
chunk counts on the ambient metrics registry and never feeds anything
back into results.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import get_context

from repro.obs import get_metrics


class BackendError(RuntimeError):
    """A task payload the backend cannot execute (e.g. unpicklable)."""


def _materialize(columns):
    """Concrete equal-length argument columns for one ``map`` call."""
    made = [list(column) for column in columns]
    lengths = {len(column) for column in made}
    if len(lengths) > 1:
        raise ValueError(
            f"map columns must have equal lengths, got {sorted(lengths)}"
        )
    return made, (lengths.pop() if lengths else 0)


class ProcessBackend:
    """A warm, reused :class:`ProcessPoolExecutor` behind ``map``.

    ``workers`` is the pool width; ``mp_context`` selects the
    multiprocessing start method (``"fork"`` / ``"spawn"`` /
    ``"forkserver"`` or a ready context object; ``None`` keeps the
    platform default).  ``workers <= 1`` — or a single task — degrades
    to inline execution without ever spawning a pool.
    """

    def __init__(self, workers, mp_context=None):
        """See the class docstring for the knobs."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._mp_context = mp_context
        self._pool = None

    def __enter__(self):
        """Context manager: the backend itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        """Context-manager exit always closes — ``KeyboardInterrupt``
        included, so an interrupted run never strands workers."""
        self.close()
        return False

    def _ensure_pool(self):
        """The warm pool, spawned lazily on first real fan-out."""
        if self._pool is None:
            context = self._mp_context
            if isinstance(context, str):
                context = get_context(context)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._pool

    def _chunk_for(self, count):
        """Chunk size for ``count`` tasks (about 4 chunks per worker)."""
        return max(1, -(-count // (self.workers * 4)))

    def _preflight(self, fn, label):
        """Refuse an unpicklable task callable before submission.

        Failing here — instead of deep inside the executor's feeder
        thread — yields one clear error naming the work unit and
        leaves the warm pool healthy for the next caller.
        """
        try:
            pickle.dumps(fn)
        except Exception as exc:
            what = label if label is not None else repr(fn)
            raise BackendError(
                f"{what} is not picklable and cannot cross the process "
                f"boundary ({exc}); run it inline (workers <= 1), or "
                f"make the payload picklable"
            ) from exc

    def map(self, fn, *columns, label=None):
        """``[fn(*args) for args in zip(*columns)]`` on the warm pool.

        Results come back in submission order regardless of completion
        order — the property every caller's left-fold relies on.
        ``label`` names the work unit (a stage) for error messages.  A
        worker-side exception re-raises here as the original exception
        type with the remote traceback chained; the pool stays warm.
        ``KeyboardInterrupt`` while collecting results shuts the pool
        down before propagating.
        """
        made, count = _materialize(columns)
        if self.workers <= 1 or count <= 1:
            results = [fn(*args) for args in zip(*made)]
            self._record(count)
            return results
        self._preflight(fn, label)
        chunk = self._chunk_for(count)
        pool = self._ensure_pool()
        try:
            results = list(pool.map(fn, *made, chunksize=chunk))
        except KeyboardInterrupt:
            self.close()
            raise
        except BrokenProcessPool as exc:
            self.close()
            what = label if label is not None else repr(fn)
            raise BackendError(
                f"process pool died while executing {what}; the pool "
                f"was shut down (a fresh map will respawn it)"
            ) from exc
        self._record(count, chunks=-(-count // chunk))
        return results

    def _record(self, tasks, chunks=1):
        """Write-only metrics for one fan-out (never read back)."""
        metrics = get_metrics()
        metrics.counter("exec.map.process").inc()
        metrics.counter("exec.tasks").inc(tasks)
        metrics.gauge("exec.workers").set(self.workers)
        metrics.gauge("exec.chunks").set(chunks)

    def close(self):
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


@contextmanager
def process_pool(workers):
    """The execution backend for ``workers``, closed on exit.

    Yields ``None`` (inline execution) for ``workers <= 1`` and a
    :class:`ProcessBackend` of that width otherwise.  The caller owns
    it; the runners and consumers it is passed to only borrow it.
    """
    if workers <= 1:
        yield None
        return
    with ProcessBackend(workers) as backend:
        yield backend
