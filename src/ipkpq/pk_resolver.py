"""Self-service public-key resolution from (id, R) plus the directory.

The defining consistency triple: a resolved key satisfies

    decode_rho(pk) == derive_public_seed((id, R), matrix) == rho_checked

The rho on the left comes from the stored record, the one on the right is
recomputed locally from the public matrix. That check authenticates rho
and nothing else: a record whose pk embeds another rho (another id's key,
a flipped byte) is refused, but the pk's t1 is not bound to anything, so
a directory or server that serves a key built for the right rho from its
own secret seeds is not caught. Nor is the matrix authenticated: the
online client takes it from the server.

A failed resolution is the value None, never an exception; malformed
files and transport failures raise, so callers can tell "no" from
"broken". Online queries use length-prefixed messages over TCP, any
number of them in turn on one connection:

    request  = u32 len | verb u8 (1=matrix, 2=record) | id bytes (verb 2)
    response = u32 len | payload
        verb 1 payload: the directory file's header and matrix region
        verb 2 payload: found u8 | pk bytes when found
        either verb, empty payload: the server cannot read its directory file

The server drops a connection whose request claims more than
MAX_REQUEST_BYTES, without reading its body, one that sends an empty or
unknown request, and one whose next request has not arrived whole within
HANDLER_TIMEOUT_S seconds, idle wait included. The client keeps its one
connection open across queries; it likewise refuses, unread, a matrix
response longer than MAX_MATRIX_RESPONSE or a record response longer than
1 + pk_len, and gives each round trip one deadline of its timeout.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import pk_directory
from .errors import DecodeError, TransportError
from .mldsa import decode_rho
from .pk_directory import Buffer
from .seed_fabric import MAX_ID_BYTES, IdentityHandle, SeedMatrixPub, derive_public_seed

VERB_MATRIX = 1
VERB_RECORD = 2

MAX_REQUEST_BYTES = 1 + MAX_ID_BYTES  # verb plus the longest id
HANDLER_TIMEOUT_S = 5.0               # server-side deadline per request, idle wait included
_RECV_CHUNK = 1 << 16                 # memory grows with bytes received, not claimed
# the largest header+matrix region a valid header describes: h | 256 and
# m <= 2^(256/h), both u16 (h=16, m=65535: about 32 MiB)
MAX_MATRIX_RESPONSE = pk_directory.HEADER_LEN + 32 * max(
    h * min(0xFFFF, 1 << (256 // h)) for h in (2, 4, 8, 16, 32, 64, 128, 256))

OK = "ok"
NOT_FOUND = "not-found"
RHO_MISMATCH = "rho-mismatch"


@dataclass(frozen=True)
class ResolvedKey:
    id: str
    R: bytes
    pk: bytes
    rho_checked: bytes


def _check(id_: str, r_value: bytes, pk: bytes | None,
           matrix: SeedMatrixPub) -> tuple[str, Optional[ResolvedKey]]:
    if pk is None:
        return NOT_FOUND, None
    rho = derive_public_seed(IdentityHandle(id_, r_value), matrix)
    if decode_rho(pk) != rho:
        return RHO_MISMATCH, None
    return OK, ResolvedKey(id=id_, R=r_value, pk=pk, rho_checked=rho)


def resolve(id_: str, r_value: bytes, file: Buffer) -> Optional[ResolvedKey]:
    """Whole-file resolution; None when the record is missing or rho differs."""
    return FileResolver(file).resolve(id_, r_value)


class FileResolver:
    """Resolver over a directory file with the matrix parsed once.

    Records are read through one indexed `pk_directory.Directory`, so a
    resolve parses only the records appended since the one before. Tracks a
    byte-fetch model mirroring what a remote reader would pull: header+matrix
    on first use, then one record per query.
    """

    def __init__(self, file_provider: Callable[[], Buffer] | Buffer):
        self._directory = pk_directory.Directory(file_provider)
        self._matrix: SeedMatrixPub | None = None
        self.bytes_fetched = 0
        self.objects_fetched = 0

    def _ensure_matrix(self) -> SeedMatrixPub:
        if self._matrix is None:
            file = self._directory.fetch()
            self._matrix = pk_directory.extract_matrix(file)
            self.bytes_fetched += pk_directory.decode_header(file).record_region_offset
            self.objects_fetched += 1
        return self._matrix

    def resolve_detail(self, id_: str, r_value: bytes) -> tuple[str, Optional[ResolvedKey]]:
        matrix = self._ensure_matrix()
        pk = pk_directory.lookup(self._directory, id_)
        if pk is not None:
            self.bytes_fetched += 2 + len(id_.encode()) + len(pk)
            self.objects_fetched += 1
        return _check(id_, r_value, pk, matrix)

    def resolve(self, id_: str, r_value: bytes) -> Optional[ResolvedKey]:
        return self.resolve_detail(id_, r_value)[1]


# -- online endpoint ----------------------------------------------------


def _recv_exact(sock: socket.socket, n: int, deadline: float) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        _time_left(sock, deadline)
        chunk = sock.recv(min(n - len(buf), _RECV_CHUNK))
        if not chunk:
            raise TransportError("connection closed mid-message")
        buf += chunk
    return bytes(buf)


def _time_left(sock: socket.socket, deadline: float) -> None:
    """Let the next socket call wait no later than `deadline`."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TransportError("round trip exceeded its deadline")
    sock.settimeout(left)


def _send_msg(sock: socket.socket, payload: bytes) -> int:
    data = struct.pack(">I", len(payload)) + payload
    sock.sendall(data)
    return len(data)


def _recv_msg(sock: socket.socket, limit: int, deadline: float) -> tuple[bytes, int]:
    header = _recv_exact(sock, 4, deadline)
    (length,) = struct.unpack(">I", header)
    if length > limit:
        raise TransportError(f"message of {length} bytes exceeds the {limit}-byte limit")
    return _recv_exact(sock, length, deadline), 4 + length


class _QueryHandler(socketserver.BaseRequestHandler):
    def handle(self):
        while True:
            # one deadline per request, so an idle or trickling client cannot
            # hold the thread
            deadline = time.monotonic() + HANDLER_TIMEOUT_S
            try:
                payload, _ = _recv_msg(self.request, MAX_REQUEST_BYTES, deadline)
                try:
                    answer = self._answer(payload)
                except DecodeError:
                    answer = b""  # the directory does not decode: say so, keep serving
                if answer is None:
                    return
                _send_msg(self.request, answer)
            except (TransportError, OSError):
                return  # closed, past the deadline, or oversize request

    def _answer(self, payload: bytes) -> bytes | None:
        """The response payload; None leaves an empty or unknown request unanswered."""
        if not payload:
            return None
        directory = self.server.directory
        if payload[0] == VERB_MATRIX:
            file = directory.fetch()
            return file[:pk_directory.decode_header(file).record_region_offset]
        if payload[0] == VERB_RECORD:
            pk = pk_directory.lookup(directory, payload[1:].decode("utf-8", errors="replace"))
            return b"\x00" if pk is None else b"\x01" + pk
        return None


class PkQueryServer(socketserver.ThreadingTCPServer):
    """Serves matrix and per-id record queries for a live directory file.

    One handler thread per connection; `stop` ends them all, idle ones too.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, file_provider: Callable[[], Buffer] | Buffer,
                 host: str = "127.0.0.1", port: int = 0):
        self.directory = pk_directory.Directory(file_provider)  # one index for all handlers
        super().__init__((host, port), _QueryHandler)
        self._thread: threading.Thread | None = None
        self._handlers: dict[socket.socket, threading.Thread] = {}  # live connections
        self._handlers_lock = threading.Lock()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> "PkQueryServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def process_request(self, request, client_address):
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._handlers_lock:
            self._handlers[request] = thread
        thread.start()

    def shutdown_request(self, request):
        with self._handlers_lock:
            self._handlers.pop(request, None)
        super().shutdown_request(request)

    def stop(self) -> None:
        """Stop accepting, end every live connection and wait for its handler."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join()
        with self._handlers_lock:
            handlers = list(self._handlers.items())
            for conn, _ in handlers:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes a handler blocked on it
                except OSError:
                    pass
        for _, thread in handlers:
            thread.join()


class _ClosedWhileIdle(TransportError):
    """The server closed the connection before any byte of its response."""


class OnlineResolver:
    """Per-record online resolution over one kept-open connection.

    The matrix is fetched once and cached. A kept connection that the server
    closed while it was idle is reopened, and the request sent again, once.
    One connection carries one exchange at a time, so one thread at a time
    may use a resolver; `close` releases the connection.
    """

    def __init__(self, endpoint: tuple[str, int], timeout: float = 5.0):
        self._endpoint = endpoint
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._matrix: SeedMatrixPub | None = None
        self._pk_len = 0  # from the matrix response's header
        self.bytes_fetched = 0  # request and response bytes of completed round trips
        self.objects_fetched = 0

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _roundtrip(self, payload: bytes, limit: int) -> bytes:
        deadline = time.monotonic() + self._timeout
        try:
            try:
                response, n = self._exchange(payload, limit, deadline)
            except _ClosedWhileIdle:
                self.close()
                response, n = self._exchange(payload, limit, deadline)
        except TransportError:
            self.close()
            raise
        except OSError as exc:
            self.close()
            raise TransportError(f"query to {self._endpoint} failed: {exc}") from exc
        self.bytes_fetched += n
        if not response:
            raise DecodeError("the server cannot read its directory file")
        return response

    def _exchange(self, payload: bytes, limit: int, deadline: float) -> tuple[bytes, int]:
        """One request and its response on the kept socket, opened if need be."""
        kept = self._sock is not None
        if not kept:
            self._sock = socket.create_connection(self._endpoint, timeout=self._timeout)
        sock = self._sock
        try:
            _time_left(sock, deadline)
            sent = _send_msg(sock, payload)
            _time_left(sock, deadline)
            replied = sock.recv(1, socket.MSG_PEEK)
        except (BrokenPipeError, ConnectionResetError):
            replied = b""
        if not replied:
            raise (_ClosedWhileIdle if kept else TransportError)(
                f"{self._endpoint} closed the connection before responding")
        response, received = _recv_msg(sock, limit, deadline)
        return response, sent + received

    def _ensure_matrix(self) -> SeedMatrixPub:
        if self._matrix is None:
            blob = self._roundtrip(bytes([VERB_MATRIX]), MAX_MATRIX_RESPONSE)
            header = pk_directory.decode_header(blob)
            if len(blob) != header.record_region_offset:
                raise DecodeError("matrix response truncated", offset=len(blob))
            self._matrix = pk_directory.extract_matrix(blob)
            self._pk_len = header.level.pk_len
            self.objects_fetched += 1
        return self._matrix

    def fetch_record(self, id_: str) -> bytes | None:
        self._ensure_matrix()  # its header's level caps the record response
        response = self._roundtrip(bytes([VERB_RECORD]) + id_.encode("utf-8"),
                                   1 + self._pk_len)
        if response[0] == 0:
            return None
        self.objects_fetched += 1
        return response[1:]

    def resolve_detail(self, id_: str, r_value: bytes) -> tuple[str, Optional[ResolvedKey]]:
        matrix = self._ensure_matrix()
        return _check(id_, r_value, self.fetch_record(id_), matrix)

    def resolve(self, id_: str, r_value: bytes) -> Optional[ResolvedKey]:
        return self.resolve_detail(id_, r_value)[1]
