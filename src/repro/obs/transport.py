"""A small HTTP/1.1 server on one :mod:`asyncio` event loop.

:func:`repro.serve.start_server`, the library's one HTTP surface
(``/evaluate`` and the grid routes, ``/metrics`` and ``/healthz``),
runs on this transport. It is stdlib-only, like the rest of the
package.

:class:`HttpServer` binds a listening socket in the calling thread
(so a busy port fails there), then serves from one event loop on a
daemon thread. For each connection the loop:

* reads and frames requests itself: request line, headers, and a body
  of exactly ``Content-Length`` bytes;
* calls the owner's ``handler(request)`` on the loop thread. The
  handler returns a :class:`Reply`, or an awaitable of one when it
  must wait, for example on a worker thread via
  :func:`asyncio.to_thread`. Those threads come from a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor` that the server
  installs as the loop's default executor;
* sends each reply with one ``write``;
* keeps HTTP/1.1 connections open between requests. HTTP/1.0 and
  ``Connection: close`` are answered and then closed.

Framing is strict. Each of these is answered with a 400 and the
connection is closed:

* a malformed request line or header line;
* an unsupported protocol version;
* a header block over :data:`MAX_HEADER_BYTES`;
* a ``Content-Length`` that is not a plain decimal, or that repeats;
* ``Transfer-Encoding`` of any kind;
* a body over :data:`MAX_BODY_BYTES`.

The 400 body comes from the owner's ``error_reply``. A
request that has not fully arrived within :data:`READ_TIMEOUT_S` of
the connection going idle is dropped, and so is an idle keep-alive
connection. An exception that escapes the handler is logged and
answered with a 500, and the loop keeps serving.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus

from ..errors import DomainError, ExecutionError, ReproError

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "READ_TIMEOUT_S",
    "HttpServer",
    "Reply",
    "Request",
]

#: Seconds a connection may take to deliver its next complete request,
#: counted from when it went idle (accepted, or its last reply sent).
READ_TIMEOUT_S = 10.0
#: Cap on the request line plus headers, in bytes.
MAX_HEADER_BYTES = 16 * 1024
#: Cap on a request body (1 MiB): a batch of thousands of scenarios
#: fits; anything larger is a client error, not a job.
MAX_BODY_BYTES = 1 << 20
#: Worker threads for handlers that must not run on the loop.
WORKER_THREADS = 4
#: Pending-connection queue. A coalescing server exists to absorb
#: concurrent bursts; a backlog of 5 resets connections under one.
_BACKLOG = 128

_LOG = logging.getLogger(__name__)

#: ``HTTP/1.1 <status> <phrase>\r\n`` per status code, built on demand.
_STATUS_LINES: dict = {}


class Request:
    """One framed request: method, target path, headers, raw body."""

    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method: str, path: str, headers: dict, body: bytes,
                 keep_alive: bool) -> None:
        self.method = method
        self.path = path
        #: Header names lower-cased; a repeated header keeps its last value.
        self.headers = headers
        self.body = body
        #: Whether the connection stays open after the reply.
        self.keep_alive = keep_alive


class Reply:
    """One response: status, body bytes, content type, extra headers."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(self, status: int, body: bytes,
                 content_type: str = "application/json",
                 headers: tuple = ()) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers


def _status_line(status: int) -> str:
    line = _STATUS_LINES.get(status)
    if line is None:
        try:
            phrase = HTTPStatus(status).phrase
        except ValueError:
            phrase = ""
        line = _STATUS_LINES[status] = f"HTTP/1.1 {status} {phrase}\r\n"
    return line


def _frame(buffer: bytearray) -> "Request | None":
    """Take one complete request off the front of ``buffer``.

    Returns ``None`` (leaving ``buffer`` untouched) while the request
    is incomplete; raises a :class:`ReproError` when it is malformed.
    """
    while buffer.startswith(b"\r\n"):  # tolerated between requests
        del buffer[:2]
    end = buffer.find(b"\r\n\r\n", 0, MAX_HEADER_BYTES + 4)
    if end < 0:
        if len(buffer) > MAX_HEADER_BYTES:
            raise DomainError(
                f"request header block exceeds {MAX_HEADER_BYTES} bytes")
        return None
    lines = buffer[:end].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise DomainError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    if version == "HTTP/1.1":
        keep_alive = True
    elif version == "HTTP/1.0":
        keep_alive = False
    else:
        raise DomainError(f"unsupported protocol version {version!r}")
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise DomainError(f"malformed header line {line!r}")
        name = name.lower()
        if name == "content-length" and name in headers:
            raise DomainError("repeated Content-Length header")
        headers[name] = value.strip()
    if "transfer-encoding" in headers:
        raise DomainError("Transfer-Encoding is not supported; "
                          "send the body with a Content-Length")
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise DomainError(f"invalid Content-Length {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise ExecutionError(f"request body too large ({length} bytes; "
                             f"limit {MAX_BODY_BYTES})")
    start = end + 4
    if len(buffer) < start + length:
        return None
    body = bytes(buffer[start:start + length])
    del buffer[:start + length]
    if keep_alive and "close" in headers.get("connection", "").lower():
        keep_alive = False
    return Request(method, path, headers, body, keep_alive)


class _Connection(asyncio.Protocol):
    """One client connection: frame, dispatch, reply, in order."""

    def __init__(self, server: "HttpServer") -> None:
        self._server = server
        self._transport = None
        self._buffer = bytearray()
        #: A request is being answered; later ones wait in the buffer.
        self._busy = False
        #: No further request will be read (error, close, or client EOF).
        self._done = False
        self._eof = False
        self._paused = False
        self._task = None
        #: Loop time by which the next complete request must arrive.
        self.deadline = 0.0

    # -- asyncio.Protocol -----------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server._connections.add(self)
        self.deadline = self._server._loop.time() + self._server.read_timeout_s

    def connection_lost(self, exc) -> None:
        self._server._connections.discard(self)
        self._transport = None
        self._done = True

    def data_received(self, data: bytes) -> None:
        if self._done:
            return  # draining a connection that is being closed
        self._buffer += data
        if not self._busy:
            self._serve()
        elif len(self._buffer) > self._server.max_buffer and not self._paused:
            self._paused = True
            self._transport.pause_reading()

    def eof_received(self):
        self._done = self._eof = True
        # Keep the socket open to write a reply still being computed.
        return True if self._busy else None

    # -- serving ----------------------------------------------------------

    def overdue(self, now: float) -> bool:
        """Whether the read deadline passed with no request in progress."""
        return not self._busy and now > self.deadline

    def close(self) -> None:
        """Drop the connection now."""
        if self._transport is not None:
            self._transport.abort()

    def _serve(self) -> None:
        """Answer the complete requests in the buffer, one at a time."""
        server = self._server
        while not self._busy and not self._done:
            try:
                request = _frame(self._buffer)
            except ReproError as exc:
                self._write(server.error_reply(400, exc, None),
                            keep_alive=False)
                return
            if request is None:
                return
            self._busy = True
            try:
                result = server.handler(request)
            except Exception as exc:  # lint: disable=ERR002
                # The server boundary: a handler bug answers 500 (and is
                # logged) instead of killing the connection or the loop.
                result = server.internal_error(exc, request)
            if isinstance(result, Reply):
                self._write(result, request.keep_alive)
            else:
                self._task = server._loop.create_task(
                    self._finish(result, request))

    async def _finish(self, pending, request: Request) -> None:
        try:
            reply = await pending
        except Exception as exc:  # lint: disable=ERR002
            # The server boundary, as in _serve.
            reply = self._server.internal_error(exc, request)
        self._task = None
        self._write(reply, request.keep_alive)
        if self._paused and self._transport is not None:
            self._paused = False
            self._transport.resume_reading()
        self._serve()

    def _write(self, reply: Reply, keep_alive: bool) -> None:
        self._busy = False
        transport = self._transport
        if transport is None:
            return  # the client went away while its reply was computed
        keep_alive = keep_alive and not self._done
        head = (f"{_status_line(reply.status)}"
                f"Content-Type: {reply.content_type}\r\n"
                f"Content-Length: {len(reply.body)}\r\n")
        for name, value in reply.headers:
            head += f"{name}: {value}\r\n"
        if not keep_alive:
            head += "Connection: close\r\n"
        transport.write(head.encode("latin-1") + b"\r\n" + reply.body)
        self.deadline = self._server._loop.time() + self._server.read_timeout_s
        if keep_alive:
            return
        self._done = True
        self._buffer.clear()
        # Half-close, so unread request bytes cannot turn the close into
        # a reset that destroys the reply; the client's EOF (or the read
        # deadline) then closes the socket.
        if self._eof or not transport.can_write_eof():
            transport.close()
        else:
            transport.write_eof()


class HttpServer:
    """Serve ``handler`` over HTTP/1.1 from an event loop on a daemon thread.

    ``handler(request)`` runs on the loop thread and returns a
    :class:`Reply` or an awaitable of one; it must not block. Blocking
    work belongs on :func:`asyncio.to_thread`, which runs on this
    server's bounded pool of :data:`WORKER_THREADS` threads.
    ``error_reply(status, exc, request)`` renders the replies the
    transport makes itself: a 400 when framing fails (``request`` is
    ``None``) and a 500 when an exception escapes the handler.
    ``port=0`` binds an ephemeral port; read it back from
    :attr:`port`.
    """

    def __init__(self, host: str, port: int, handler, *,
                 error_reply, name: str = "repro-http") -> None:
        self.handler = handler
        self.error_reply = error_reply
        self.read_timeout_s = READ_TIMEOUT_S
        self.max_buffer = MAX_HEADER_BYTES + 4 + MAX_BODY_BYTES
        self._connections: set = set()
        self._closed = False
        sock = socket.create_server((host, port), backlog=_BACKLOG)
        self.server_address = sock.getsockname()[:2]
        self._pool = ThreadPoolExecutor(max_workers=WORKER_THREADS,
                                        thread_name_prefix=f"{name}-worker")
        self._loop = asyncio.new_event_loop()
        self._loop.set_default_executor(self._pool)
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name=name, daemon=True)
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._listen(sock), self._loop).result(timeout=10.0)
        except BaseException:
            sock.close()
            self._stop_loop()
            raise

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL (``http://host:port``)."""
        return f"http://{self.server_address[0]}:{self.port}"

    def internal_error(self, exc: BaseException, request: Request) -> Reply:
        """Log an exception that escaped the handler; answer 500."""
        _LOG.error("unhandled error answering %s %s", request.method,
                   request.path, exc_info=exc)
        return self.error_reply(500, exc, request)

    def close(self) -> None:
        """Stop accepting, drop open connections, stop the loop (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop).result(timeout=5.0)
        finally:
            self._stop_loop()

    # -- loop side --------------------------------------------------------

    async def _listen(self, sock: socket.socket) -> None:
        self._listener = await self._loop.create_server(
            lambda: _Connection(self), sock=sock)
        self._sweeper = self._loop.call_later(self._sweep_interval(),
                                              self._sweep)

    def _sweep_interval(self) -> float:
        return min(1.0, self.read_timeout_s / 4.0)

    def _sweep(self) -> None:
        """Drop connections whose next request is overdue."""
        now = self._loop.time()
        for conn in [c for c in self._connections if c.overdue(now)]:
            conn.close()
        self._sweeper = self._loop.call_later(self._sweep_interval(),
                                              self._sweep)

    async def _shutdown(self) -> None:
        self._listener.close()
        self._sweeper.cancel()
        for conn in list(self._connections):
            conn.close()
        tasks = [t for t in asyncio.all_tasks()
                 if t is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.sleep(0)  # let the aborted transports close

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._loop.close()
        # Worker threads still running a request finish on their own;
        # nothing waits for them.
        self._pool.shutdown(wait=False, cancel_futures=True)
