"""Pluggable execution backends: serial, thread and process fan-out.

One protocol — :class:`~repro.exec.backend.ExecBackend` with an
order-preserving ``map`` — behind every parallel hot path in the
reproduction: the engine's pure-stage batches, the mining algebra's
per-shard partials and the serving layer's per-shard query partials.
The backends differ only in *where* tasks run (inline, a warm thread
pool, a warm process pool); because every caller folds results in
submission order, each backend is bit-identical to serial execution.

Every fan-out entry point takes one ``backend`` argument: a ready
backend or ``None`` for inline execution.  Whoever calls
:func:`make_backend` closes the backend; runners, engines and
consumers only borrow it.  See DESIGN.md §15 for the protocol, the
pickling contract of the process backend and the merge-determinism
argument.
"""

from repro.exec.backend import (
    BACKEND_KINDS,
    BackendError,
    ExecBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.exec.factory import make_backend
from repro.exec.procpool import ProcessBackend

__all__ = [
    "BACKEND_KINDS",
    "BackendError",
    "ExecBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "make_backend",
]
