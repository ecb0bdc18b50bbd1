"""Shared stdlib HTTP plumbing: server lifecycle and HTTP/1.1 framing.

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

The lean HTTP/1.1 framing of both ends lives here once too:
:class:`FramedRequestHandler` (server) and :class:`ClientConnection`.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from http.client import BadStatusLine, HTTPConnection, HTTPException, IncompleteRead
from http.client import RemoteDisconnected, UnknownTransferEncoding
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import BinaryIO, Dict, Optional, Set, Tuple, Type

#: The stdlib's own bounds on one head line and on header lines.
MAX_LINE = 65536
MAX_HEADERS = 100


class FramingError(HTTPException):
    """A message head this layer will not parse: ``args`` are the status
    a server answers it with and a message."""


def read_headers(rfile: BinaryIO) -> Dict[str, str]:
    """Header lines up to the blank line; names lower-cased, first wins."""
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, f"header line over {MAX_LINE} bytes")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise FramingError(400, f"malformed header line {line[:64]!r}")
        headers.setdefault(name.strip().lower(), value.strip())
    raise FramingError(431, f"more than {MAX_HEADERS} header lines")


def read_response(rfile: BinaryIO) -> Tuple[int, bytes, bool]:
    """Read one reply as ``(status, body, keep_alive)``, raising the stdlib
    client's ``RemoteDisconnected`` / ``BadStatusLine`` / ``IncompleteRead``.
    A reply without ``Content-Length`` runs to the hang-up."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        raise RemoteDisconnected("Remote end closed connection without response")
    words = line.decode("latin-1").split(None, 2)
    try:
        status = int(words[1]) if words[0].startswith("HTTP/") else 0
    except (IndexError, ValueError):
        status = 0
    if not 100 <= status <= 999:
        raise BadStatusLine(line.decode("latin-1"))
    headers = read_headers(rfile)
    if "transfer-encoding" in headers:
        raise UnknownTransferEncoding(headers["transfer-encoding"])
    try:
        length = int(headers["content-length"])
    except (KeyError, ValueError):
        length = -1
    if length < 0:
        return status, rfile.read(), False
    body = rfile.read(length)
    if len(body) < length:
        raise IncompleteRead(body, length - len(body))
    return status, body, keeps_alive(words[0], headers)


def keeps_alive(version: str, headers: Dict[str, str]) -> bool:
    """HTTP/1.1 persists unless ``Connection: close``; 1.0 only if asked."""
    connection = headers.get("connection", "").lower()
    return connection == "keep-alive" if version == "HTTP/1.0" else connection != "close"


class ClientConnection(HTTPConnection):
    """A kept-alive connection and the one reader its replies are parsed
    from (closed together); it connects through ``HTTPConnection.connect``."""

    reader: Optional[BinaryIO] = None

    def connect(self) -> None:
        super().connect()
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        super().close()

    def exchange(self, message: bytes) -> Tuple[int, bytes, bool]:
        """Send a whole request, connecting first if closed; read the reply."""
        if self.sock is None:
            self.connect()
        self.sock.sendall(message)
        return read_response(self.reader)


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value, formatted once per second."""
    return formatdate(second, usegmt=True)


_CLOSE = "Connection: close\r\n"


class FramedRequestHandler(BaseHTTPRequestHandler):
    """The stdlib's request loop with a lean head parse (``self.headers``
    is a dict of lower-cased names) and one write per reply.  Malformed
    requests get a JSON error and a hang-up: no HTTP/0.9 fallback (400),
    no ``Transfer-Encoding`` (501), the stdlib's header bounds (431)."""

    def log_message(self, *args: object) -> None:  # owners log through repro.obs
        pass

    def parse_request(self) -> bool:
        self.close_connection = True
        self.requestline = self.raw_requestline.decode("latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False  # a bare line: hang up, as the stdlib does
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self.send_error(400, f"bad request line {self.requestline[:64]!r}")
            return False
        self.command, self.path, version = words
        self.request_version = version
        try:
            self.headers = read_headers(self.rfile)  # type: ignore[assignment]
        except FramingError as exc:
            self.send_error(*exc.args)
            return False
        if "transfer-encoding" in self.headers:
            self.send_error(501, "Transfer-Encoding is not supported; send Content-Length")
            return False
        self.close_connection = self.protocol_version < "HTTP/1.1" or not keeps_alive(
            version, self.headers
        )
        expect = self.headers.get("expect", "").lower() == "100-continue"
        if expect and version == "HTTP/1.1" and self.protocol_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def send_error(self, code: int, message: Optional[str] = None, explain: object = None) -> None:
        """Answer ``{"code", "error"}`` as JSON, then hang up."""
        self.close_connection = True
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        body = json.dumps({"error": message, "code": code}, sort_keys=True) + "\n"
        self.reply(code, body.encode("utf-8"))

    def reply(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        """Status line, headers and body in one write."""
        head = (
            f"{self.protocol_version} {status} {self.responses.get(status, ('',))[0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{_CLOSE if self.close_connection else ''}\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)


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
