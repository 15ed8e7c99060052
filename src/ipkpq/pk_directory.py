"""File_PK: the published directory of the public seed matrix and key records.

Bit-exact layout, all integers big-endian:

    header   = magic "IPKQ" | version u8=1 | level u8 | m u16 | h u16
    matrix   = m * h 32-byte cells, row-major (row 0 col 0 first)
    records  = repeated { id_len u16 | id utf-8 | pk (pk_len bytes) }

The one-byte level tag is the NIST security category (2, 3, 5 for
ML-DSA-44/65/87) and fixes the record payload width. The file is
append-only: records are only ever added at the end, and the last record
for an id is authoritative, which is how renewals supersede old keys
without compaction.

A :class:`Directory` wraps one file, or a provider of the live file, and
indexes it for :func:`lookup`: each record is parsed once, and a file that
extends the indexed one costs only its new records.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Callable

from .errors import DecodeError, ParameterError
from .mldsa.params import LEVEL_BY_CATEGORY, MlDsaLevel
from .seed_fabric import MAX_ID_BYTES, SeedMatrixPub, validate_dims

MAGIC = b"IPKQ"
VERSION = 1
HEADER_LEN = 10


@dataclass(frozen=True)
class FilePkHeader:
    level: MlDsaLevel
    m: int
    h: int

    def encode(self) -> bytes:
        return MAGIC + struct.pack(">BBHH", VERSION, self.level.category, self.m, self.h)

    @property
    def matrix_len(self) -> int:
        return self.m * self.h * 32

    @property
    def record_region_offset(self) -> int:
        return HEADER_LEN + self.matrix_len


def decode_header(data: bytes) -> FilePkHeader:
    if len(data) < HEADER_LEN:
        raise DecodeError("file shorter than the fixed header", offset=len(data))
    if data[:4] != MAGIC:
        raise DecodeError(f"bad magic {data[:4]!r}", offset=0)
    version, category, m, h = struct.unpack(">BBHH", data[4:HEADER_LEN])
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}", offset=4)
    if category not in LEVEL_BY_CATEGORY:
        raise DecodeError(f"unknown level tag {category}", offset=5)
    try:
        validate_dims(m, h)
    except ParameterError as exc:
        raise DecodeError(str(exc), offset=6) from exc
    return FilePkHeader(LEVEL_BY_CATEGORY[category], m, h)


def create(header: FilePkHeader, matrix: SeedMatrixPub) -> bytes:
    """A fresh file: header, matrix cells, empty record region."""
    if (matrix.m, matrix.h) != (header.m, header.h):
        raise ParameterError(
            f"matrix is {matrix.m}x{matrix.h}, header says {header.m}x{header.h}")
    return header.encode() + matrix.to_bytes()


def append_record(file: bytes | bytearray, id_: str, pk: bytes) -> bytes | bytearray:
    """Append one record; every existing byte of the file is left untouched.

    A bytes file is copied into the one returned; a bytearray grows in place
    and is returned, so an append costs the record, not the file.
    """
    header = decode_header(file)
    raw_id = id_.encode("utf-8")
    if not raw_id or len(raw_id) > MAX_ID_BYTES:
        raise ParameterError(f"id must be 1..{MAX_ID_BYTES} bytes, got {len(raw_id)}")
    if len(pk) != header.level.pk_len:
        raise ParameterError(
            f"pk must be {header.level.pk_len} bytes for {header.level.name}, "
            f"got {len(pk)}")
    file += struct.pack(">H", len(raw_id)) + raw_id + pk
    return file


def iter_records(file: bytes, from_offset: int | None = None):
    """Yield (offset, id, pk) per record; DecodeError names the corrupt offset.

    `from_offset` resumes at a record boundary, such as the end of a file
    that this one extends; by default reading starts at the first record.
    """
    header = decode_header(file)
    if len(file) < header.record_region_offset:
        raise DecodeError("file truncated inside the matrix region", offset=len(file))
    pk_len = header.level.pk_len
    pos = header.record_region_offset if from_offset is None else from_offset
    while pos < len(file):
        start = pos
        if pos + 2 > len(file):
            raise DecodeError("truncated record length", offset=start)
        (id_len,) = struct.unpack(">H", file[pos:pos + 2])
        pos += 2
        if id_len == 0 or id_len > MAX_ID_BYTES:
            raise DecodeError(f"record id length {id_len} out of range", offset=start)
        if pos + id_len + pk_len > len(file):
            raise DecodeError("truncated record payload", offset=start)
        try:
            rec_id = file[pos:pos + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("record id is not valid UTF-8", offset=start) from exc
        pos += id_len
        yield start, rec_id, file[pos:pos + pk_len]
        pos += pk_len


class Directory:
    """A File_PK, fixed bytes or a provider of the live file, indexed by id.

    Each lookup asks the provider for the file. The same object as the one
    indexed is not parsed again; a file that extends it has only its new
    records parsed; any other file is parsed whole, so no answer is stale.
    The index holds the offset of each id's last record and the one file it
    was built from. Threads share it under a lock.
    """

    def __init__(self, source: Callable[[], bytes] | bytes):
        if isinstance(source, (bytes, bytearray)):
            blob = bytes(source)
            source = lambda: blob
        self.fetch: Callable[[], bytes] = source
        self._file: bytes | None = None
        self._last: dict[str, int] = {}
        self._lock = threading.Lock()

    def _find(self, id_: str) -> bytes | None:
        with self._lock:
            file = self.fetch()
            if file is not self._file:
                self._index(file)
            offset = self._last.get(id_)
            if offset is None:
                return None
            start = offset + 2 + struct.unpack_from(">H", file, offset)[0]
            return file[start:start + decode_header(file).level.pk_len]

    def _index(self, file: bytes) -> None:
        """Bring the index up to `file`; on DecodeError it stays as it was."""
        if self._file is not None and file.startswith(self._file):
            resume, last = len(self._file), self._last
        else:
            resume, last = None, {}
        last.update([(rec_id, offset) for offset, rec_id, _ in iter_records(file, resume)])
        self._file, self._last = file, last


def lookup(directory: Directory | bytes, id_: str) -> bytes | None:
    """Public key of the LAST record matching id, or None.

    A bytes file is indexed for this one call; a Directory keeps its index.
    """
    if not isinstance(directory, Directory):
        directory = Directory(directory)
    return directory._find(id_)


def extract_matrix(file: bytes) -> SeedMatrixPub:
    header = decode_header(file)
    blob = file[HEADER_LEN:header.record_region_offset]
    if len(blob) != header.matrix_len:
        raise DecodeError("file truncated inside the matrix region", offset=len(file))
    return SeedMatrixPub.from_bytes(header.m, header.h, blob)
