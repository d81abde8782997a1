"""Process-pool fan-out for pure pipeline stages.

One backend — :class:`~repro.exec.procpool.ProcessBackend`, a warm
process pool behind an order-preserving ``map`` — serves the one place
where fan-out pays: the pure per-document stages of a pipeline run
(annotation, entity linking).  Because the runner folds results in
submission order, pooled output is bit-identical to the inline run.
Analytics and serving always run inline; threads never paid under the
GIL, and per-shard partials cost less to compute than to pickle.

:func:`process_pool` is the one rule callers share: no pool for
``workers <= 1``, a ``ProcessBackend(workers)`` otherwise, closed when
the ``with`` block exits.  Runners and consumers only borrow it.  See
DESIGN.md §15 for the pickling contract and the measurements.
"""

from repro.exec.procpool import BackendError, ProcessBackend, process_pool

__all__ = [
    "BackendError",
    "ProcessBackend",
    "process_pool",
]
