"""The backend factory the entry points' callers share.

Lives above both :mod:`repro.exec.backend` (the protocol and the
in-process implementations) and :mod:`repro.exec.procpool` (the
multiprocess implementation) so the module graph stays acyclic:
:func:`make_backend` needs every concrete backend, and the concrete
backends must not know about the factory.
"""

from repro.exec.backend import BACKEND_KINDS, SerialBackend, ThreadBackend
from repro.exec.procpool import ProcessBackend


def make_backend(kind, workers=0, chunk_size=None, mp_context=None):
    """Build a backend by name (:data:`~repro.exec.BACKEND_KINDS`).

    ``workers`` sizes the thread/process pools (values below 1 degrade
    to inline execution); ``chunk_size`` / ``mp_context`` are process-
    backend knobs, rejected for the others.  The caller owns the
    result and closes it (it is a context manager); the runners,
    engines and analytics it is passed to only borrow it.
    """
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {kind!r}; choose from {list(BACKEND_KINDS)}"
        )
    if kind != "process" and (
        chunk_size is not None or mp_context is not None
    ):
        raise ValueError(
            "chunk_size / mp_context are process-backend knobs; "
            f"the {kind!r} backend does not accept them"
        )
    if kind == "serial":
        return SerialBackend()
    if kind == "thread":
        return ThreadBackend(max(1, workers))
    return ProcessBackend(
        max(1, workers), chunk_size=chunk_size, mp_context=mp_context
    )
