"""The stdlib HTTP frontend with graceful, draining shutdown.

:class:`InsightServer` wraps an :class:`http.server.ThreadingHTTPServer`
around one :class:`~repro.serve.engine.QueryEngine`:

* ``POST /query`` — one JSON query payload; body per
  :mod:`repro.serve.api`;
* ``GET /status`` (alias ``/healthz``) — index stats, epoch stamps,
  cache occupancy: the load-balancer view;
* ``POST /shutdown`` — ask the *owner* to stop serving.  The handler
  only signals; the owning thread (``bivoc serve``) observes
  :meth:`wait` and calls :meth:`stop`, which stops accepting, then
  joins every in-flight request thread before returning — queries
  running at shutdown finish and are delivered, never torn.

Request threads are non-daemonic precisely so that the drain is a
``join`` and not a hope; ``serve_forever`` itself runs on one
background thread owned by this class.
"""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import get_metrics
from repro.serve.api import api_query, api_status

#: Largest accepted request body.  Query specs are tiny; anything
#: bigger is a mistake or an attack and is refused with 413 before a
#: byte of it is parsed.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit idle (or stall mid-request) before its
#: handler closes it.  Shutdown joins every handler thread, so without
#: this bound one idle keep-alive client holds :meth:`InsightServer.stop`
#: open for as long as it keeps the connection.
IDLE_TIMEOUT_S = 5.0


class _DrainingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that joins request threads on close.

    The stock class marks request threads daemonic; flipping that (and
    keeping ``block_on_close``) makes ``server_close`` wait for every
    in-flight handler — the graceful-drain half of the shutdown
    contract.
    """

    daemon_threads = False
    block_on_close = True
    # Set by InsightServer after construction:
    engine = None
    owner = None


class _Handler(BaseHTTPRequestHandler):
    """Routes the three endpoints onto the shared api functions."""

    protocol_version = "HTTP/1.1"
    # The stdlib applies this as the socket timeout; a timed-out read
    # of the next request line closes the connection quietly.
    timeout = IDLE_TIMEOUT_S
    # Headers and body go out in two writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms) on
    # every keep-alive response.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):
        """Silence per-request stderr logging (metrics cover it)."""

    def _send_json(self, status, body):
        """Write one JSON response with explicit length (keep-alive).

        A body carrying ``retry_after`` (an open circuit breaker's
        cooldown hint) also gets it as an HTTP ``Retry-After`` header,
        rounded up to whole seconds, so standards-following clients
        back off without reading the JSON.
        """
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if isinstance(body, dict) and "retry_after" in body:
            self.send_header(
                "Retry-After",
                str(max(1, int(math.ceil(body["retry_after"])))),
            )
        self.end_headers()
        self.wfile.write(payload)

    def _read_json_body(self):
        """The request body parsed as JSON, or ``None`` after an error.

        Refuses oversized bodies (413) by declared length — without
        reading them, and dropping the connection rather than trying
        to resynchronise keep-alive framing past an unread payload.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_json(413, {
                "error": (
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                ),
                "code": "body-too-large",
            })
            return None
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            self._send_json(400, {
                "error": "empty request body",
                "code": "empty-body",
            })
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            error = f"invalid JSON body: {exc}"
        except RecursionError:
            error = "invalid JSON body: nested too deeply"
        self._send_json(400, {"error": error, "code": "invalid-json"})
        return None

    def do_GET(self):
        """GET /status and /healthz."""
        get_metrics().counter("serve.http_requests").inc()
        if self.path in ("/status", "/healthz"):
            status, body = api_status(self.server.engine)
            self._send_json(status, body)
            return
        self._send_json(404, {
            "error": f"no route {self.path!r}", "code": "not-found",
        })

    def do_POST(self):
        """POST /query and /shutdown."""
        get_metrics().counter("serve.http_requests").inc()
        if self.path == "/query":
            payload = self._read_json_body()
            if payload is None:
                return
            status, body = api_query(self.server.engine, payload)
            self._send_json(status, body)
            return
        if self.path == "/shutdown":
            self._send_json(200, {"stopping": True})
            self.server.owner.request_shutdown()
            return
        self._send_json(404, {
            "error": f"no route {self.path!r}", "code": "not-found",
        })


class InsightServer:
    """One engine behind a threaded JSON HTTP frontend.

    Binds on construction (``port=0`` picks a free port — read it back
    from :attr:`port`), serves on a background thread after
    :meth:`start`, and drains on :meth:`stop`.  Usable as a context
    manager for start/stop pairing.
    """

    def __init__(self, engine, host="127.0.0.1", port=0):
        """Bind ``host:port`` and attach ``engine`` (no serving yet)."""
        self.engine = engine
        self._httpd = _DrainingHTTPServer((host, port), _Handler)
        self._httpd.engine = engine
        self._httpd.owner = self
        self._thread = None
        self._shutdown_requested = threading.Event()

    @property
    def host(self):
        """The bound host address."""
        return self._httpd.server_address[0]

    @property
    def port(self):
        """The bound port (resolved when ``port=0`` was requested)."""
        return self._httpd.server_address[1]

    def start(self):
        """Begin serving on a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="bivoc-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def request_shutdown(self):
        """Signal the owner loop that a client asked us to stop."""
        self._shutdown_requested.set()

    def wait(self, timeout=None):
        """Block until ``POST /shutdown`` arrives (or timeout); bool."""
        return self._shutdown_requested.wait(timeout)

    def stop(self):
        """Stop accepting, drain in-flight requests, release the port.

        Safe to call twice.  In-flight handler threads are joined
        (non-daemonic + ``block_on_close``), so every accepted query
        is fully answered before this returns; an idle keep-alive
        connection holds it for at most :data:`IDLE_TIMEOUT_S`.
        """
        if self._thread is None:
            self._httpd.server_close()
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._thread = None

    def __enter__(self):
        """Context manager: start serving."""
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        """Context manager exit: drain and stop."""
        self.stop()
        return False
