"""A small HTTP/1.1 codec shared by both ends of the wire.

The codec speaks the subset the serving stack needs: a request or
status line, headers, ``Content-Length`` bodies, keep-alive,
``Connection: close`` and ``Expect: 100-continue``.  A request that
carries ``Transfer-Encoding`` is answered as if its body were empty and
its connection is then closed; chunked bodies are never decoded.  The
prediction server (:mod:`repro.serve.server`) parses requests with
:func:`parse_request_head` and writes :func:`encode_response`;
:class:`~repro.serve.client.ServeClient` writes :func:`encode_request`
and reads each reply through a :class:`ClientConnection`: a
``Content-Length`` body, or, without one, the bytes up to the server's
close.  Malformed traffic raises :class:`ProtocolError`; the retry
policy on top of it lives in the client.
"""

from __future__ import annotations

import socket
from http import HTTPStatus
from typing import Dict, Optional, Sequence, Tuple

#: Longest message head (start line + headers) either end accepts.
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}


class ProtocolError(ValueError):
    """The peer sent something that is not the HTTP/1.1 this codec
    speaks (malformed head, bad ``Content-Length``, truncated body)."""


class BadStatusLine(ProtocolError):
    """A response did not start with an ``HTTP/1.x`` status line."""


class RemoteDisconnected(ConnectionResetError):
    """The server closed the connection before any response byte."""


def _parse_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """Start line and lower-cased headers of one message head (without
    its blank line).  A repeated header's values are joined with
    ``", "``, so a doubled ``Content-Length`` fails validation."""
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise ProtocolError(f"malformed header line {line!r}")
        key, value = name.lower(), value.strip()
        headers[key] = f"{headers[key]}, {value}" if key in headers else value
    return lines[0], headers


def _content_length(headers: Dict[str, str]) -> Optional[int]:
    raw = headers.get("content-length")
    if raw is None:
        return None
    if not (raw.isascii() and raw.isdigit()):
        raise ProtocolError(f"invalid Content-Length {raw!r}")
    return int(raw)


def _keep_alive(version: str, headers: Dict[str, str]) -> bool:
    tokens = {t.strip().lower()
              for t in headers.get("connection", "").split(",")}
    if version == "HTTP/1.1":
        return "close" not in tokens
    return "keep-alive" in tokens


class RequestHead:
    """A parsed request head.

    ``length`` is the body length to read (0 when a
    ``Transfer-Encoding`` request's body is to be skipped);
    ``keep_alive`` is False when the connection must close after the
    response, which a ``Transfer-Encoding`` request forces.
    """

    __slots__ = ("method", "target", "version", "headers", "length",
                 "keep_alive", "expect_continue")

    def __init__(self, method: str, target: str, version: str,
                 headers: Dict[str, str]) -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers
        length = _content_length(headers)
        chunked = "transfer-encoding" in headers
        self.length = 0 if chunked or length is None else length
        self.keep_alive = not chunked and _keep_alive(version, headers)
        self.expect_continue = (
            self.length > 0
            and headers.get("expect", "").lower() == "100-continue")

    @property
    def path(self) -> str:
        return self.target.split("?", 1)[0]

    @property
    def request_line(self) -> str:
        return f"{self.method} {self.target} {self.version}"


def parse_request_head(head: bytes) -> RequestHead:
    """Parse a request head (the bytes before its ``\\r\\n\\r\\n``);
    raises :class:`ProtocolError` on anything malformed."""
    start, headers = _parse_head(head)
    parts = start.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"bad request line {start!r}")
    return RequestHead(parts[0], parts[1], parts[2], headers)


#: Interim reply to ``Expect: 100-continue``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def encode_response(status: int, body: bytes,
                    headers: Sequence[Tuple[str, str]] = (),
                    close: bool = False) -> bytes:
    """One complete response: status line, ``headers``, the body's
    ``Content-Length`` and, when ``close``, ``Connection: close``."""
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines += [f"{name}: {value}" for name, value in headers]
    lines.append(f"Content-Length: {len(body)}")
    if close:
        lines.append("Connection: close")
    lines += ["", ""]
    return "\r\n".join(lines).encode("latin-1") + body


def encode_request(method: str, target: str, host: str,
                   body: Optional[bytes], headers: Dict[str, str]) -> bytes:
    """One complete request; a ``Content-Length`` is sent with every
    body."""
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}",
             "Accept-Encoding: identity"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    lines += ["", ""]
    return "\r\n".join(lines).encode("latin-1") + (body or b"")


class ClientConnection:
    """One client socket and its read buffer, opened on first use.

    ``sock`` is None while closed.  A response with no
    ``Content-Length`` is read to EOF; one that does not keep the
    connection alive closes it after its body.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float]) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.sock: Optional[socket.socket] = None
        self._buf = bytearray()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self._buf.clear()

    def send(self, data: bytes) -> None:
        if self.sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock = sock
        self.sock.sendall(data)

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self._buf += chunk
        return bool(chunk)

    def read_head(self) -> Tuple[int, str, str, Dict[str, str]]:
        """Status, reason, version and lower-cased headers of the next
        response.  A close before its first byte raises
        :class:`RemoteDisconnected`; a close inside the head raises a
        plain :class:`ProtocolError`, since the server may already have
        run the request."""
        end = self._buf.find(b"\r\n\r\n")
        while end < 0:
            if len(self._buf) > MAX_HEAD_BYTES:
                raise ProtocolError("response head too long")
            if not self._fill():
                if self._buf:
                    raise ProtocolError(
                        f"truncated response head {bytes(self._buf)!r}")
                raise RemoteDisconnected(
                    "remote end closed connection without response")
            end = self._buf.find(b"\r\n\r\n")
        start, headers = _parse_head(bytes(self._buf[:end]))
        del self._buf[:end + 4]
        parts = start.split(" ", 2)
        if (len(parts) < 2 or not parts[0].startswith("HTTP/1.")
                or len(parts[1]) != 3 or not parts[1].isdigit()):
            raise BadStatusLine(f"bad status line {start!r}")
        reason = parts[2] if len(parts) > 2 else ""
        return int(parts[1]), reason, parts[0], headers

    def read_body(self, version: str, headers: Dict[str, str]) -> bytes:
        if "transfer-encoding" in headers:
            raise ProtocolError("Transfer-Encoding responses are not "
                                "supported")
        length = _content_length(headers)
        if length is None:  # delimited by the server's close
            while self._fill():
                pass
            body = bytes(self._buf)
            self.close()
            return body
        while len(self._buf) < length:
            if not self._fill():
                raise ProtocolError(f"connection closed after "
                                    f"{len(self._buf)} of {length} body "
                                    f"bytes")
        body = bytes(self._buf[:length])
        del self._buf[:length]
        if not _keep_alive(version, headers):
            self.close()
        return body
