"""Shared stdlib HTTP-server lifecycle helper.

Both live HTTP surfaces of the reproduction — the telemetry endpoint
(:class:`repro.obs.export.TelemetryServer`) and the RFC 6962 log front
end (:class:`repro.ct.server.LogServer`) — need the same plumbing:
bind a :class:`~http.server.ThreadingHTTPServer` (``port=0`` picks an
ephemeral port, so parallel tests never race on port reuse), serve on
a named daemon thread, shut down idempotently, and report the bound
address the same way (``host`` / ``port`` / ``url``).

:class:`HttpServerHandle` is that plumbing, exactly once.  Owners
compose a handle (rather than inherit from it) and expose its
properties; the handler class reaches its owner back through
``self.server.owner``.
"""

from __future__ import annotations

import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Type


class _Server(ThreadingHTTPServer):
    """A listen backlog deep enough for connection bursts (the stdlib's 5
    overflows, and an overflowed SYN waits ~1 s to retransmit); closing
    hangs up kept-alive connections; peer resets are not errors."""

    request_queue_size = 128
    daemon_threads = True

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request: socket.socket, client_address: object) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: socket.socket, client_address: object) -> None:
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class HttpServerHandle:
    """Bind/serve/shutdown lifecycle around one ``ThreadingHTTPServer``.

    Parameters
    ----------
    handler_cls:
        The :class:`~http.server.BaseHTTPRequestHandler` subclass that
        answers requests.  Inside the handler, ``self.server.owner``
        is the ``owner`` passed here.
    owner:
        The object the handler delegates to (the telemetry server, the
        log server, ...).
    host / port:
        Bind address; ``port=0`` (the default) lets the kernel pick a
        free ephemeral port — the resolved port is available as
        :attr:`port` immediately after construction, *before*
        :meth:`start`.
    thread_name:
        Name of the daemon thread running ``serve_forever``.
    """

    def __init__(
        self,
        handler_cls: Type[BaseHTTPRequestHandler],
        *,
        owner: object,
        host: str = "127.0.0.1",
        port: int = 0,
        thread_name: str = "repro-http",
    ) -> None:
        self._httpd = _Server((host, port), handler_cls)
        self._httpd.owner = owner  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._thread_name = thread_name

    # -- address -------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HttpServerHandle":
        """Serve on a daemon thread; raises if already started."""
        if self._thread is not None:
            raise RuntimeError(f"{self._thread_name} server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=self._thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down, release the socket and hang up kept-alive
        connections; idempotent."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._thread = None
