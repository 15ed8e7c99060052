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

A file is any buffer: ``bytes``, a ``bytearray`` or a ``memoryview`` (the
key center publishes read-only views of its append-only buffer). Readers
hand back ids as ``str`` and keys as ``bytes`` whatever the file's type.

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

Buffer = bytes | bytearray | memoryview

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


def decode_header(data: Buffer) -> FilePkHeader:
    if len(data) < HEADER_LEN:
        raise DecodeError("file shorter than the fixed header", offset=len(data))
    if data[:4] != MAGIC:
        raise DecodeError(f"bad magic {bytes(data[:4])!r}", offset=0)
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


def append_record(file: Buffer, id_: str, pk: bytes, end: int | None = None) -> Buffer:
    """Append one record after the first `end` bytes (all of them by default).

    No byte before `end` is touched. A bytearray is written in place and
    returned, so an append costs the record, not the file: the record
    overwrites the bytes from `end` on and grows the bytearray only past its
    length (BufferError while a view pins it). Any other buffer is copied, up
    to `end`, into new bytes that end with the record.
    """
    header = decode_header(file)
    raw_id = id_.encode("utf-8")
    if not raw_id or len(raw_id) > MAX_ID_BYTES:
        raise ParameterError(f"id must be 1..{MAX_ID_BYTES} bytes, got {len(raw_id)}")
    if len(pk) != header.level.pk_len:
        raise ParameterError(
            f"pk must be {header.level.pk_len} bytes for {header.level.name}, "
            f"got {len(pk)}")
    record = struct.pack(">H", len(raw_id)) + raw_id + pk
    end = len(file) if end is None else end
    if isinstance(file, bytearray):
        file[end:end + len(record)] = record
        return file
    return bytes(file[:end]) + record


def iter_records(file: Buffer, from_offset: int | None = None):
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
        (id_len,) = struct.unpack_from(">H", file, pos)
        pos += 2
        if id_len == 0 or id_len > MAX_ID_BYTES:
            raise DecodeError(f"record id length {id_len} out of range", offset=start)
        if pos + id_len + pk_len > len(file):
            raise DecodeError("truncated record payload", offset=start)
        try:
            rec_id = str(file[pos:pos + id_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("record id is not valid UTF-8", offset=start) from exc
        pos += id_len
        yield start, rec_id, bytes(file[pos:pos + pk_len])
        pos += pk_len


class Directory:
    """A File_PK, fixed bytes or a provider of the live file, indexed by id.

    Each lookup asks the provider for the file. The same object as the one
    indexed is not parsed again; a file that extends it has only its new
    records parsed; any other file is parsed whole, so no answer is stale.
    Views of one buffer are taken to be prefixes of one append-only file, as
    the key center publishes them, so a view no shorter than the indexed one
    extends it without a byte compared. The index holds the offset of each
    id's last record and the one file it was built from. Threads share it
    under a lock.

    A fixed bytearray is copied; a fixed memoryview is kept, so its buffer
    must not change under it.
    """

    def __init__(self, source: Callable[[], Buffer] | Buffer):
        if not callable(source):
            blob = bytes(source) if isinstance(source, bytearray) else source
            source = lambda: blob
        self.fetch: Callable[[], Buffer] = source
        self._file: Buffer | None = None
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
            return bytes(file[start:start + decode_header(file).level.pk_len])

    def _index(self, file: Buffer) -> None:
        """Bring the index up to `file`; on DecodeError it stays as it was."""
        if self._extends(file):
            resume, last = len(self._file), self._last
        else:
            resume, last = None, {}
        last.update([(rec_id, offset) for offset, rec_id, _ in iter_records(file, resume)])
        self._file, self._last = file, last

    def _extends(self, file: Buffer) -> bool:
        old = self._file
        if old is None or len(file) < len(old):
            return False
        if isinstance(file, memoryview) and isinstance(old, memoryview) and file.obj is old.obj:
            return True  # a longer prefix of the same append-only buffer
        head = file if isinstance(file, bytes) else bytes(file[:len(old)])
        return head.startswith(old)


def lookup(directory: Directory | Buffer, id_: str) -> bytes | None:
    """Public key of the LAST record matching id, or None.

    A bare file is indexed for this one call; a Directory keeps its index.
    """
    if not isinstance(directory, Directory):
        directory = Directory(directory)
    return directory._find(id_)


def extract_matrix(file: Buffer) -> SeedMatrixPub:
    header = decode_header(file)
    blob = bytes(file[HEADER_LEN:header.record_region_offset])  # holds no view of `file`
    if len(blob) != header.matrix_len:
        raise DecodeError("file truncated inside the matrix region", offset=len(file))
    return SeedMatrixPub.from_bytes(header.m, header.h, blob)
