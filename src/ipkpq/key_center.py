"""The registry-side authority: sealed seeds, registration records, File_PK.

The private seed matrix and all per-registration secrets live in a
:class:`SealedStore`, an in-process stand-in for an HSM. Nothing in the
store is ever written out in plaintext; persistence goes through an
AES-GCM container keyed by a file the store owner controls. Tests reach
sealed material only through the explicitly named ``inspect_for_tests``
hook.

Registration state is an append-only log, one JSON object per line, and
the last line for an id is authoritative (the same last-wins idiom as
File_PK records). A record carries what identity mode trusts in place of
a certificate chain: status, validity window in epoch seconds (the clock
of resource certificates) and the resources the id may sign for. A relying
party checks all three before any crypto. The registration secret rho'_r
never appears in the published table.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import pk_directory
from .errors import ConflictError, DecodeError, ParameterError, StateError
from .mldsa.params import L44, MlDsaLevel
from .rpki_objects import InrSet
from .seed_fabric import (
    EntropySource,
    SeedMatrixPriv,
    SeedMatrixPub,
    gen_matrices,
    validate_identity,
)

# Record lifecycle: registered -> active (key committed) -> renewing -> active ...
# revoked is terminal for validation purposes.
STATUS_REGISTERED = "registered"
STATUS_ACTIVE = "active"
STATUS_RENEWING = "renewing"
STATUS_REVOKED = "revoked"
_STATUSES = frozenset({STATUS_REGISTERED, STATUS_ACTIVE, STATUS_RENEWING, STATUS_REVOKED})

NO_RESOURCES = InrSet.of()
_LOG_KEYS = frozenset({"attributes", "id", "R", "valid_from", "valid_to", "status",
                       "prefixes", "as_ranges"})


def _field(obj: dict, key: str, kind: type):
    """obj[key], refused unless it is exactly of `kind` (so a bool is no int)."""
    value = obj[key]
    if type(value) is not kind:
        raise DecodeError(f"{key} is not {kind.__name__}: {value!r}")
    return value


@dataclass(frozen=True)
class RegistrationRecord:
    attributes: str
    id: str
    R: bytes | None
    valid_from: int  # epoch seconds, inclusive at both ends
    valid_to: int
    status: str = STATUS_REGISTERED
    inr: InrSet = NO_RESOURCES  # what the id may sign for

    def to_json(self) -> str:
        return json.dumps({
            "attributes": self.attributes,
            "id": self.id,
            "R": self.R.hex() if self.R is not None else None,
            "valid_from": self.valid_from,
            "valid_to": self.valid_to,
            "status": self.status,
            "prefixes": [str(p) for p in self.inr.prefixes],
            "as_ranges": [list(r) for r in self.inr.as_ranges],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "RegistrationRecord":
        """ValueError (DecodeError included) for anything but a record."""
        obj = json.loads(line)
        if type(obj) is not dict or obj.keys() != _LOG_KEYS:
            raise DecodeError(f"not an object with the keys {sorted(_LOG_KEYS)}")
        r_value = None if obj["R"] is None else bytes.fromhex(_field(obj, "R", str))
        if r_value is not None and len(r_value) != 32:
            raise DecodeError(f"R is not 32 bytes of hex: {obj['R']!r}")
        status = _field(obj, "status", str)
        if status not in _STATUSES:
            raise DecodeError(f"unknown status {status!r}")
        prefixes = _field(obj, "prefixes", list)
        ranges = _field(obj, "as_ranges", list)
        if not (all(type(p) is str for p in prefixes)
                and all(type(r) is list and len(r) == 2
                        and all(type(n) is int for n in r) for r in ranges)):
            raise DecodeError("resources are not prefix strings and [lo, hi] AS ranges")
        return cls(
            attributes=_field(obj, "attributes", str),
            id=_field(obj, "id", str),
            R=r_value,
            valid_from=_field(obj, "valid_from", int),
            valid_to=_field(obj, "valid_to", int),
            status=status,
            inr=InrSet.of(prefixes, [tuple(r) for r in ranges]),
        )


def parse_log(log: str | bytes) -> Iterator[RegistrationRecord]:
    """The records of a JSON-lines registration log, text or bytes as read
    from a file, in order.

    Raises only DecodeError, naming the first line that is not a record.
    """
    for number, line in enumerate(log.split(b"\n" if isinstance(log, bytes) else "\n"), 1):
        if not line.strip():
            continue
        try:
            record = RegistrationRecord.from_json(line)
        except (ValueError, TypeError, RecursionError) as exc:  # deep nesting recurses
            raise DecodeError(f"registration log line {number}: {exc}") from None
        yield record


class SealedStore:
    """Simulated HSM: private matrix, center seeds, per-registration secrets."""

    def __init__(self, priv_matrix: SeedMatrixPriv, kc_rho: bytes,
                 kc_rho_prime: bytes, kc_k: bytes,
                 reg_secrets: dict[str, bytes] | None = None):
        self._priv_matrix = priv_matrix
        self._kc_rho = kc_rho
        self._kc_rho_prime = kc_rho_prime
        self._kc_k = kc_k
        self._reg_secrets = dict(reg_secrets or {})
        self._lock = threading.Lock()

    @classmethod
    def generate(cls, m: int, h: int, rng: EntropySource) -> tuple["SealedStore", SeedMatrixPub]:
        priv, pub = gen_matrices(m, h, rng)
        return cls(priv, rng(32), rng(64), rng(32)), pub

    @property
    def kc_rho(self) -> bytes:
        return self._kc_rho

    @property
    def priv_matrix(self) -> SeedMatrixPriv:
        return self._priv_matrix

    def new_reg_secret(self, id_: str, rng: EntropySource) -> None:
        with self._lock:
            self._reg_secrets[id_] = rng(64)

    def reg_secret(self, id_: str) -> bytes:
        with self._lock:
            try:
                return self._reg_secrets[id_]
            except KeyError:
                raise StateError(f"no registration secret sealed for {id_!r}") from None

    def inspect_for_tests(self) -> dict:
        """Test-only: the key-center view an escrow attacker would hold."""
        with self._lock:
            return {
                "priv_matrix": self._priv_matrix,
                "kc_rho": self._kc_rho,
                "kc_rho_prime": self._kc_rho_prime,
                "kc_K": self._kc_k,
                "reg_secrets": dict(self._reg_secrets),
            }

    def export_encrypted(self, key: bytes, m: int, h: int) -> bytes:
        """Encrypted backup blob; the only export path for sealed material."""
        payload = json.dumps({
            "m": m,
            "h": h,
            "priv_matrix": self._priv_matrix.to_bytes().hex(),
            "kc_rho": self._kc_rho.hex(),
            "kc_rho_prime": self._kc_rho_prime.hex(),
            "kc_K": self._kc_k.hex(),
            "reg_secrets": {k: v.hex() for k, v in self._reg_secrets.items()},
        }).encode()
        nonce = secrets.token_bytes(12)
        return nonce + AESGCM(key).encrypt(nonce, payload, b"ipkpq-sealed-store")

    @classmethod
    def import_encrypted(cls, key: bytes, blob: bytes) -> "SealedStore":
        obj = json.loads(AESGCM(key).decrypt(blob[:12], blob[12:], b"ipkpq-sealed-store"))
        priv = SeedMatrixPriv.from_bytes(obj["m"], obj["h"], bytes.fromhex(obj["priv_matrix"]))
        return cls(
            priv,
            bytes.fromhex(obj["kc_rho"]),
            bytes.fromhex(obj["kc_rho_prime"]),
            bytes.fromhex(obj["kc_K"]),
            {k: bytes.fromhex(v) for k, v in obj["reg_secrets"].items()},
        )


class KeyCenter:
    """Single-writer authority over the sealed store, records, and File_PK.

    Built whole from a sealed store, the File_PK bytes and the registration
    log (JSON lines, read by `parse_log`); the level and public matrix are
    read from File_PK.

    File_PK lives in an append-only buffer: its first `_size` bytes are the
    file, and records are only ever written beyond them, so a published view
    never changes. The buffer grows in place while no view pins it; once one
    does, it moves, once, into a buffer with as much room again.
    """

    def __init__(self, store: SealedStore, file_pk: bytes, log: str | bytes = ""):
        self.store = store
        self.level = pk_directory.decode_header(file_pk).level
        self.pub_matrix = pk_directory.extract_matrix(file_pk)
        self._buf = bytearray(file_pk)
        self._size = len(file_pk)
        self._published: memoryview | None = None  # view of the file until the next append
        self._log: list[RegistrationRecord] = []
        self._current: dict[str, RegistrationRecord] = {}
        self._lock = threading.RLock()
        for record in parse_log(log):
            self._append(record)

    # -- registration --------------------------------------------------

    def register(self, attributes: str, id_: str, valid_from: datetime,
                 valid_to: datetime, rng: EntropySource = secrets.token_bytes, *,
                 inr: InrSet = NO_RESOURCES) -> RegistrationRecord:
        """Open a registration for `id_`, valid from `valid_from` to `valid_to`
        (aware datetimes, kept as epoch seconds), that may sign for `inr`."""
        validate_identity(id_)
        valid_from, valid_to = int(valid_from.timestamp()), int(valid_to.timestamp())
        if valid_from >= valid_to:
            raise ParameterError("valid_from must precede valid_to")
        with self._lock:
            existing = self._current.get(id_)
            if existing is not None and existing.status != STATUS_REVOKED:
                raise ConflictError(f"{id_!r} already has an active registration")
            record = RegistrationRecord(attributes, id_, None, valid_from, valid_to,
                                        inr=inr)
            self.store.new_reg_secret(id_, rng)
            self._append(record)
            return record

    def renew(self, id_: str, new_valid_to: datetime,
              rng: EntropySource = secrets.token_bytes) -> RegistrationRecord:
        """Open a re-key window: fresh registration secret, extended validity."""
        new_valid_to = int(new_valid_to.timestamp())
        with self._lock:
            record = self._lookup(id_)
            if record.status == STATUS_REVOKED:
                raise StateError(f"{id_!r} is revoked; register anew instead")
            if new_valid_to <= record.valid_from:
                raise ParameterError("renewed validity must extend past valid_from")
            self.store.new_reg_secret(id_, rng)
            updated = replace(record, R=None, status=STATUS_RENEWING,
                              valid_to=new_valid_to)
            self._append(updated)
            return updated

    def revoke(self, id_: str) -> RegistrationRecord:
        with self._lock:
            record = self._lookup(id_)
            updated = replace(record, status=STATUS_REVOKED)
            self._append(updated)
            return updated

    def _lookup(self, id_: str) -> RegistrationRecord:
        record = self._current.get(id_)
        if record is None:
            raise StateError(f"unknown id {id_!r}")
        return record

    def _append(self, record: RegistrationRecord) -> None:
        self._log.append(record)
        self._current[record.id] = record

    # -- protocol hooks (called by the keygen protocol) ------------------

    def keygen_allowed(self, id_: str) -> RegistrationRecord:
        """One key generation per registration secret; a retry needs `renew`.

        Every run masks a different private partial with the same secret, so
        two answers under one secret would give away the difference of two
        partials, a linear relation between private-matrix cells.
        """
        record = self._lookup(id_)
        if record.status not in (STATUS_REGISTERED, STATUS_RENEWING):
            raise StateError(
                f"{id_!r} is {record.status}; key generation needs a fresh or "
                f"renewing registration")
        if record.R is not None:
            raise StateError(
                f"{id_!r} already answered a key generation under its current "
                f"registration secret; renew it to retry")
        return record

    def finalize_r(self, id_: str, r_value: bytes) -> None:
        with self._lock:
            record = self.keygen_allowed(id_)
            self._append(replace(record, R=r_value))

    def commit_pk(self, id_: str, pk: bytes) -> None:
        with self._lock:
            record = self._lookup(id_)
            self._published = None  # the center's own view no longer pins the buffer
            end = self._size + 2 + len(id_.encode("utf-8")) + len(pk)
            self._reserve(end)
            pk_directory.append_record(self._buf, id_, pk, self._size)
            self._size = end
            self._append(replace(record, status=STATUS_ACTIVE))

    def _reserve(self, size: int) -> None:
        """Make the buffer at least `size` bytes long; the file's bytes stay put."""
        if size <= len(self._buf):
            return
        try:
            self._buf.extend(bytes(size - len(self._buf)))
        except BufferError:  # a published view pins the buffer
            moved = bytearray(2 * size)
            moved[:self._size] = memoryview(self._buf)[:self._size]
            self._buf = moved

    # -- publication -----------------------------------------------------

    def publish_file_pk(self) -> memoryview:
        """A read-only view of File_PK as it stands; the same object until the
        next append, and its bytes never change."""
        with self._lock:
            if self._published is None:
                self._published = memoryview(self._buf)[:self._size].toreadonly()
            return self._published

    def publish_registration_table(self) -> str:
        """JSON-lines log; sealed registration secrets are not part of it."""
        with self._lock:
            return "\n".join(rec.to_json() for rec in self._log) + ("\n" if self._log else "")

    def registration_table(self) -> Mapping[str, RegistrationRecord]:
        """The id -> last-record map, read-only and live: later changes show."""
        return MappingProxyType(self._current)

    # -- persistence -----------------------------------------------------

    _SEAL_KEY_FILE = "hsm.key"
    _SEALED_FILE = "sealed.bin"
    _FILE_PK = "file_pk.bin"
    _REG_TABLE = "registration_table.jsonl"
    _META = "center.json"

    def save(self, directory: str | Path) -> None:
        """Each file is replaced whole, so a crash leaves its old or new copy.

        center.json goes last and records the SHA-256 of the other three
        files, so `load` detects a save that failed partway.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        key_path = directory / self._SEAL_KEY_FILE
        if key_path.exists():
            key = bytes.fromhex(key_path.read_text().strip())
        else:
            key = secrets.token_bytes(32)
            _replace_file(key_path, (key.hex() + "\n").encode(), owner_only=True)
        with self._lock:
            files = {
                self._SEALED_FILE: self.store.export_encrypted(
                    key, self.pub_matrix.m, self.pub_matrix.h),
                self._FILE_PK: self.publish_file_pk(),
                self._REG_TABLE: self.publish_registration_table().encode(),
            }
            for name, data in files.items():
                _replace_file(directory / name, data)
            _replace_file(directory / self._META, (json.dumps({
                "level": self.level.number,
                "m": self.pub_matrix.m,
                "h": self.pub_matrix.h,
                "sha256": {name: hashlib.sha256(data).hexdigest()
                           for name, data in files.items()},
            }) + "\n").encode())

    @classmethod
    def load(cls, directory: str | Path) -> "KeyCenter":
        """StateError when a file is not the one center.json recorded."""
        directory = Path(directory)
        meta = json.loads((directory / cls._META).read_text())
        digests = meta.get("sha256")
        if not isinstance(digests, dict):
            raise StateError(f"{cls._META} records no file digests, so a mixed "
                             f"save could not be detected; refusing to load")
        files = {}
        for name in (cls._SEALED_FILE, cls._FILE_PK, cls._REG_TABLE):
            files[name] = (directory / name).read_bytes()
            if hashlib.sha256(files[name]).hexdigest() != digests.get(name):
                raise StateError(f"{name} is not the file {cls._META} recorded; "
                                 f"a save failed partway")
        header = pk_directory.decode_header(files[cls._FILE_PK])
        recorded = {key: meta.get(key) for key in ("level", "m", "h")}
        if recorded != {"level": header.level.number, "m": header.m, "h": header.h}:
            raise StateError(f"{cls._META} says {recorded}, but {cls._FILE_PK} is a "
                             f"{header.m}x{header.h} {header.level.name} center")
        key = bytes.fromhex((directory / cls._SEAL_KEY_FILE).read_text().strip())
        return cls(SealedStore.import_encrypted(key, files[cls._SEALED_FILE]),
                   files[cls._FILE_PK], files[cls._REG_TABLE])

    @classmethod
    def exists(cls, directory: str | Path) -> bool:
        return (Path(directory) / cls._META).exists()


def _replace_file(path: Path, data: bytes, *, owner_only: bool = False) -> None:
    """Write a temp file beside `path`, then rename it over `path`."""
    tmp = path.with_name(path.name + ".tmp")
    mode = 0o600 if owner_only else 0o666
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)
    try:
        with os.fdopen(fd, "wb") as fh:
            if owner_only:
                os.fchmod(fd, mode)  # also tightens a stale temp file of a wider mode
            fh.write(data)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def init_center(m: int, h: int, level: MlDsaLevel = L44,
                rng: EntropySource = secrets.token_bytes) -> KeyCenter:
    """Generate matrices, seal the private side, start an empty File_PK."""
    store, pub_matrix = SealedStore.generate(m, h, rng)
    return KeyCenter(store, pk_directory.create(pk_directory.FilePkHeader(level, m, h),
                                                pub_matrix))
