"""The execution-backend protocol and its in-process implementations.

:class:`ExecBackend` is the one contract every parallel hot path codes
against: an **order-preserving** ``map`` over equal-length column
iterables, plus lifecycle (``close`` / context manager) and a few
introspection hooks.  Order preservation is the load-bearing clause —
callers fold results left-to-right in submission order, so any backend
satisfying it is bit-identical to serial execution by construction
(see :mod:`repro.mining.algebra` for the merge-determinism argument).

Implementations here stay inside one process:

* :class:`SerialBackend` — inline execution; the reference semantics.
* :class:`ThreadBackend` — one warm :class:`ThreadPoolExecutor` reused
  across ``map`` calls (worker warm-reuse: thread spawn is paid once
  per backend, not once per stage or per query).  ``workers <= 1``
  degrades to inline execution without ever spawning a pool.

The multiprocess implementation lives in :mod:`repro.exec.procpool`;
the factory (``make_backend``) lives in :mod:`repro.exec.factory`,
above every concrete backend.

Observability is write-only: each fan-out records the backend kind,
worker count and task/chunk counts on the ambient metrics registry and
never feeds anything back into results.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.obs import get_metrics

#: Backend names accepted by ``--backend`` and :func:`make_backend`.
BACKEND_KINDS = ("serial", "thread", "process")


class BackendError(RuntimeError):
    """A task payload the backend cannot execute (e.g. unpicklable)."""


class ExecBackend:
    """Order-preserving task fan-out behind one ``map`` call.

    Subclasses implement :meth:`map`; everything else has working
    defaults.  ``requires_pickling`` tells callers whether task
    callables and arguments cross a process boundary — span-opening
    closures, for example, must stay on backends where it is False.
    """

    #: Kind label recorded in metrics and span tags.
    kind = "backend"
    #: True when tasks are pickled across a process boundary.
    requires_pickling = False

    def effective_workers(self):
        """How many tasks can run concurrently (1 = inline)."""
        return 1

    def can_fan_out(self):
        """True when ``map`` may actually run tasks concurrently."""
        return self.effective_workers() > 1

    def map(self, fn, *columns, label=None):
        """``[fn(*args) for args in zip(*columns)]``, order preserved.

        ``label`` names the work unit (a stage, an analytic) for error
        messages and has no effect on execution.  Results come back in
        submission order regardless of completion order — the property
        every caller's left-fold merge relies on.
        """
        raise NotImplementedError

    def close(self):
        """Release owned executors (idempotent; no-op by default)."""
        return None

    def __enter__(self):
        """Context manager: the backend itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        """Context-manager exit always closes — ``KeyboardInterrupt``
        included, so an interrupted run never strands workers."""
        self.close()
        return False

    def _record(self, tasks, chunks=1):
        """Write-only metrics for one fan-out (never read back)."""
        metrics = get_metrics()
        metrics.counter(f"exec.map.{self.kind}").inc()
        metrics.counter("exec.tasks").inc(tasks)
        metrics.gauge("exec.workers").set(self.effective_workers())
        metrics.gauge("exec.chunks").set(chunks)


def _materialize(columns):
    """Concrete equal-length argument columns for one ``map`` call."""
    made = [list(column) for column in columns]
    lengths = {len(column) for column in made}
    if len(lengths) > 1:
        raise ValueError(
            f"map columns must have equal lengths, got {sorted(lengths)}"
        )
    return made, (lengths.pop() if lengths else 0)


class SerialBackend(ExecBackend):
    """Inline execution — the reference every backend must match."""

    kind = "serial"

    def map(self, fn, *columns, label=None):
        """Run every task inline, in order."""
        made, count = _materialize(columns)
        results = [fn(*args) for args in zip(*made)]
        self._record(count)
        return results


class ThreadBackend(ExecBackend):
    """A warm, reused :class:`ThreadPoolExecutor` behind ``map``.

    The executor is created lazily on the first fan-out and reused by
    every later one (warm-reuse), then shut down by :meth:`close`.
    With ``workers <= 1`` — or a single task — execution is inline and
    no pool is ever spawned.
    """

    kind = "thread"

    def __init__(self, workers):
        """``workers`` is the pool width (>= 1)."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = None

    def effective_workers(self):
        """The configured pool width."""
        return self.workers

    def map(self, fn, *columns, label=None):
        """Order-preserving map on the warm pool (inline if 1 task)."""
        made, count = _materialize(columns)
        if self.workers <= 1 or count <= 1:
            results = [fn(*args) for args in zip(*made)]
        else:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="bivoc-exec",
                )
            # Executor.map yields results in submission order, so the
            # output (and every downstream fold) matches serial.
            results = list(self._pool.map(fn, *made))
        self._record(count)
        return results

    def close(self):
        """Shut the warm pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
