"""Simplified resource certificates, ROAs, and manifests in two modes.

Objects carry the fields a production RPKI object would (serial, names,
validity, resource extensions, key identifiers, repository locators) but
use a deterministic TLV encoding instead of X.509/CMS ASN.1: tag u8,
length u32 big-endian, value. Field order is fixed per object type, so
encoding twice yields identical bytes, and a signature is always computed
over the object encoded with an empty signature field.

Mode differences are confined to key binding:

    standard  RC spki = subject's full ML-DSA public key; each ROA gets a
              fresh end-entity key pair whose certificate the issuing CA
              signs (two signing operations per ROA).
    ipkpq     RC/ROA spki = the signer's (identity, R) pair, 32 bytes plus
              the name; the ROA is signed directly by the CA key (one
              signing operation per ROA).

Every field outside the key binding is encoded identically in both modes,
so object-size differences are attributable purely to the SPKI/EE
machinery.
"""

from __future__ import annotations

import hashlib
import ipaddress
import secrets
import struct
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import AuthorizationError, DecodeError, ParameterError
from .keygen_protocol import run_keygen
from .mldsa import keygen, sign
from .mldsa.params import MlDsaLevel
from .seed_fabric import EntropySource, ID_SEPARATOR, validate_identity

if TYPE_CHECKING:  # key_center imports InrSet from here
    from .key_center import KeyCenter

MODE_STANDARD = "standard"
MODE_IPKPQ = "ipkpq"
_MODE_TAGS = {MODE_STANDARD: 1, MODE_IPKPQ: 2}
_MODE_NAMES = {v: k for k, v in _MODE_TAGS.items()}

# TLV tags
_T_RC = 0x01
_T_ROA = 0x02
_T_MFT = 0x03
_T_MODE = 0x10
_T_SERIAL = 0x11
_T_ISSUER = 0x12
_T_SUBJECT = 0x13
_T_INR = 0x14
_T_PREFIX = 0x15
_T_AS_RANGE = 0x16
_T_VALID_FROM = 0x17
_T_VALID_TO = 0x18
_T_SKI = 0x19
_T_AKI = 0x1A
_T_CRL_URI = 0x1B
_T_AIA_URI = 0x1C
_T_REPO_URI = 0x1D
_T_MFT_URI = 0x1E
_T_SPKI_PK = 0x1F
_T_SPKI_ID = 0x20
_T_SIGNATURE = 0x21
_T_SIGNER = 0x22
_T_EE_PK = 0x23
_T_EE_CERT = 0x24
_T_MFT_ENTRY = 0x25

AS_MAX = (1 << 32) - 1
# (family tag, address length) of an encoded prefix -> its network type
_NETWORKS = {(4, 4): ipaddress.IPv4Network, (6, 16): ipaddress.IPv6Network}


def sha_digest(data: bytes) -> bytes:
    """SHAKE256-32 digest used for manifest entries and trust-anchor pinning."""
    return hashlib.shake_256(data).digest(32)


def _tlv(tag: int, value: bytes) -> bytes:
    return bytes([tag]) + struct.pack(">I", len(value)) + value


def _key_binding(spki: bytes | tuple[str, bytes]) -> bytes:
    """The raw key-binding bytes: a full pk, or R followed by the identity."""
    if isinstance(spki, tuple):
        ident, r_value = spki
        return r_value + ident.encode("utf-8")
    return spki


def _parse_tlvs(data: bytes, base: int = 0) -> list[tuple[int, bytes, int]]:
    out = []
    pos = 0
    while pos < len(data):
        if pos + 5 > len(data):
            raise DecodeError("truncated TLV header", offset=base + pos)
        tag = data[pos]
        (length,) = struct.unpack(">I", data[pos + 1:pos + 5])
        if pos + 5 + length > len(data):
            raise DecodeError(f"TLV value for tag 0x{tag:02x} overruns buffer",
                              offset=base + pos)
        out.append((tag, data[pos + 5:pos + 5 + length], base + pos))
        pos += 5 + length
    return out


def _expect(fields: list[tuple[int, bytes, int]], idx: int, tag: int) -> tuple[bytes, int]:
    if idx >= len(fields):
        raise DecodeError(f"missing field 0x{tag:02x}")
    got, value, off = fields[idx]
    if got != tag:
        raise DecodeError(f"expected tag 0x{tag:02x}, found 0x{got:02x}", offset=off)
    return value, off


def _u64(value: bytes, off: int) -> int:
    if len(value) != 8:
        raise DecodeError("expected a u64 value", offset=off)
    return struct.unpack(">Q", value)[0]


def _text(value: bytes, off: int) -> str:
    try:
        return value.decode("utf-8")
    except UnicodeDecodeError:
        raise DecodeError("text field is not valid UTF-8", offset=off) from None


# -- internet number resources -------------------------------------------


@dataclass(frozen=True)
class InrSet:
    """IP prefixes plus AS-number ranges, canonically ordered."""

    prefixes: tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, ...]
    as_ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.as_ranges:
            if not (0 <= lo <= hi <= AS_MAX):
                raise ParameterError(f"AS range [{lo}, {hi}] invalid")
        canon_p = tuple(sorted(set(self.prefixes),
                               key=lambda n: (n.version, int(n.network_address), n.prefixlen)))
        canon_a = tuple(sorted(set(self.as_ranges)))
        object.__setattr__(self, "prefixes", canon_p)
        object.__setattr__(self, "as_ranges", canon_a)

    @classmethod
    def of(cls, prefixes: Iterable[str] = (), as_ranges: Iterable[tuple[int, int]] = ()
           ) -> "InrSet":
        nets = tuple(ipaddress.ip_network(p) for p in prefixes)
        return cls(nets, tuple(as_ranges))

    def contains(self, other: "InrSet") -> bool:
        """Every prefix/range of other sits inside one of ours."""
        for net in other.prefixes:
            if not any(net.version == mine.version and net.subnet_of(mine)
                       for mine in self.prefixes):
                return False
        for lo, hi in other.as_ranges:
            if not any(mlo <= lo and hi <= mhi for mlo, mhi in self.as_ranges):
                return False
        return True

    def encode(self) -> bytes:
        body = b""
        for net in self.prefixes:
            body += _tlv(_T_PREFIX,
                         bytes([net.version, net.prefixlen]) + net.network_address.packed)
        for lo, hi in self.as_ranges:
            body += _tlv(_T_AS_RANGE, struct.pack(">II", lo, hi))
        return _tlv(_T_INR, body)

    @classmethod
    def decode_value(cls, value: bytes, base: int) -> "InrSet":
        prefixes = []
        ranges = []
        for tag, val, off in _parse_tlvs(value, base):
            if tag == _T_PREFIX:
                if len(val) < 2:
                    raise DecodeError("short prefix field", offset=off)
                version, plen = val[0], val[1]
                addr = val[2:]
                network = _NETWORKS.get((version, len(addr)))
                if network is None:
                    raise DecodeError(f"bad prefix family {version}", offset=off)
                try:  # a length beyond the family, or host bits set
                    prefixes.append(network((addr, plen)))
                except ValueError as exc:
                    raise DecodeError(f"bad prefix: {exc}", offset=off) from None
            elif tag == _T_AS_RANGE:
                if len(val) != 8:
                    raise DecodeError("AS range must be 8 bytes", offset=off)
                lo, hi = struct.unpack(">II", val)
                if lo > hi:
                    raise DecodeError(f"AS range [{lo}, {hi}] is reversed", offset=off)
                ranges.append((lo, hi))
            else:
                raise DecodeError(f"unexpected tag 0x{tag:02x} inside resources",
                                  offset=off)
        return cls(tuple(prefixes), tuple(ranges))


ROOT_INR = InrSet.of(["0.0.0.0/0"], [(0, AS_MAX)])


# -- signed objects -------------------------------------------------------


@dataclass(frozen=True)
class ResourceCert:
    mode: str
    serial: int
    issuer_name: str
    subject_name: str
    inr: InrSet
    valid_from: int
    valid_to: int
    ski: bytes
    aki: bytes
    crl_uri: str
    aia_uri: str
    repo_uri: str
    mft_uri: str
    spki: bytes | tuple[str, bytes]  # full pk, or (identity, R)
    signature: bytes = b""

    def _spki_tlv(self) -> bytes:
        tag = _T_SPKI_PK if self.mode == MODE_STANDARD else _T_SPKI_ID
        return _tlv(tag, _key_binding(self.spki))

    def encode(self) -> bytes:
        body = (
            _tlv(_T_MODE, bytes([_MODE_TAGS[self.mode]]))
            + _tlv(_T_SERIAL, struct.pack(">Q", self.serial))
            + _tlv(_T_ISSUER, self.issuer_name.encode("utf-8"))
            + _tlv(_T_SUBJECT, self.subject_name.encode("utf-8"))
            + _tlv(_T_VALID_FROM, struct.pack(">Q", self.valid_from))
            + _tlv(_T_VALID_TO, struct.pack(">Q", self.valid_to))
            + self.inr.encode()
            + _tlv(_T_SKI, self.ski)
            + _tlv(_T_AKI, self.aki)
            + _tlv(_T_CRL_URI, self.crl_uri.encode("utf-8"))
            + _tlv(_T_AIA_URI, self.aia_uri.encode("utf-8"))
            + _tlv(_T_REPO_URI, self.repo_uri.encode("utf-8"))
            + _tlv(_T_MFT_URI, self.mft_uri.encode("utf-8"))
            + self._spki_tlv()
            + _tlv(_T_SIGNATURE, self.signature)
        )
        return _tlv(_T_RC, body)

    def to_be_signed(self) -> bytes:
        return replace(self, signature=b"").encode()

    @classmethod
    def decode(cls, data: bytes, base: int = 0) -> "ResourceCert":
        """`base` is where `data` starts in the enclosing object, for error offsets."""
        outer = _parse_tlvs(data, base)
        if len(outer) != 1 or outer[0][0] != _T_RC:
            raise DecodeError("expected a single resource-certificate TLV", offset=base)
        return cls._decode_body(outer[0][1], outer[0][2] + 5)

    @classmethod
    def _decode_body(cls, body: bytes, base: int) -> "ResourceCert":
        f = _parse_tlvs(body, base)
        mode_v, off = _expect(f, 0, _T_MODE)
        if len(mode_v) != 1 or mode_v[0] not in _MODE_NAMES:
            raise DecodeError("unknown mode tag", offset=off)
        mode = _MODE_NAMES[mode_v[0]]
        serial = _u64(*_expect(f, 1, _T_SERIAL))
        issuer = _text(*_expect(f, 2, _T_ISSUER))
        subject = _text(*_expect(f, 3, _T_SUBJECT))
        valid_from = _u64(*_expect(f, 4, _T_VALID_FROM))
        valid_to = _u64(*_expect(f, 5, _T_VALID_TO))
        inr_v, inr_off = _expect(f, 6, _T_INR)
        inr = InrSet.decode_value(inr_v, inr_off + 5)
        ski = _expect(f, 7, _T_SKI)[0]
        aki = _expect(f, 8, _T_AKI)[0]
        crl_uri = _text(*_expect(f, 9, _T_CRL_URI))
        aia_uri = _text(*_expect(f, 10, _T_AIA_URI))
        repo_uri = _text(*_expect(f, 11, _T_REPO_URI))
        mft_uri = _text(*_expect(f, 12, _T_MFT_URI))
        spki: bytes | tuple[str, bytes]
        if mode == MODE_STANDARD:
            spki = _expect(f, 13, _T_SPKI_PK)[0]
        else:
            raw, off = _expect(f, 13, _T_SPKI_ID)
            if len(raw) < 33:
                raise DecodeError("identity SPKI too short", offset=off)
            spki = (_text(raw[32:], off), raw[:32])
        signature = _expect(f, 14, _T_SIGNATURE)[0]
        if len(f) != 15:
            raise DecodeError("trailing fields in certificate", offset=f[15][2])
        return cls(mode, serial, issuer, subject, inr, valid_from, valid_to,
                   ski, aki, crl_uri, aia_uri, repo_uri, mft_uri, spki, signature)


@dataclass(frozen=True)
class RoaObject:
    mode: str
    signer_name: str
    inr: InrSet
    signer_r: bytes | None = None       # ipkpq
    ee_pk: bytes | None = None          # standard
    ee_cert: ResourceCert | None = None  # standard
    signature: bytes = b""

    def encode(self) -> bytes:
        body = (
            _tlv(_T_MODE, bytes([_MODE_TAGS[self.mode]]))
            + _tlv(_T_SIGNER, self.signer_name.encode("utf-8"))
            + self.inr.encode()
        )
        if self.mode == MODE_IPKPQ:
            body += _tlv(_T_SPKI_ID, self.signer_r + self.signer_name.encode("utf-8"))
        else:
            body += _tlv(_T_EE_PK, self.ee_pk)
            body += _tlv(_T_EE_CERT, self.ee_cert.encode())
        body += _tlv(_T_SIGNATURE, self.signature)
        return _tlv(_T_ROA, body)

    def to_be_signed(self) -> bytes:
        return replace(self, signature=b"").encode()

    @classmethod
    def decode(cls, data: bytes) -> "RoaObject":
        outer = _parse_tlvs(data)
        if len(outer) != 1 or outer[0][0] != _T_ROA:
            raise DecodeError("expected a single ROA TLV", offset=0)
        body, base = outer[0][1], outer[0][2] + 5
        f = _parse_tlvs(body, base)
        mode_v, off = _expect(f, 0, _T_MODE)
        if len(mode_v) != 1 or mode_v[0] not in _MODE_NAMES:
            raise DecodeError("unknown mode tag", offset=off)
        mode = _MODE_NAMES[mode_v[0]]
        signer = _text(*_expect(f, 1, _T_SIGNER))
        inr_v, inr_off = _expect(f, 2, _T_INR)
        inr = InrSet.decode_value(inr_v, inr_off + 5)
        if mode == MODE_IPKPQ:
            raw, off = _expect(f, 3, _T_SPKI_ID)
            if len(raw) < 33:
                raise DecodeError("identity SPKI too short", offset=off)
            if _text(raw[32:], off) != signer:
                raise DecodeError("SPKI identity disagrees with signer name", offset=off)
            signature = _expect(f, 4, _T_SIGNATURE)[0]
            if len(f) != 5:
                raise DecodeError("trailing fields in ROA", offset=f[5][2])
            return cls(mode, signer, inr, signer_r=raw[:32], signature=signature)
        ee_pk = _expect(f, 3, _T_EE_PK)[0]
        ee_raw, ee_off = _expect(f, 4, _T_EE_CERT)
        ee_cert = ResourceCert.decode(ee_raw, ee_off + 5)
        signature = _expect(f, 5, _T_SIGNATURE)[0]
        if len(f) != 6:
            raise DecodeError("trailing fields in ROA", offset=f[6][2])
        return cls(mode, signer, inr, ee_pk=ee_pk, ee_cert=ee_cert,
                   signature=signature)


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    digest: bytes  # SHAKE256-32 of the encoded object

    @classmethod
    def for_object(cls, name: str, encoded: bytes) -> "ManifestEntry":
        return cls(name, sha_digest(encoded))


@dataclass(frozen=True)
class Manifest:
    ca_name: str
    entries: tuple[ManifestEntry, ...] = ()

    def encode(self) -> bytes:
        body = _tlv(_T_SUBJECT, self.ca_name.encode("utf-8"))
        for e in self.entries:
            body += _tlv(_T_MFT_ENTRY, e.digest + e.name.encode("utf-8"))
        return _tlv(_T_MFT, body)

    @classmethod
    def decode(cls, data: bytes) -> "Manifest":
        outer = _parse_tlvs(data)
        if len(outer) != 1 or outer[0][0] != _T_MFT:
            raise DecodeError("expected a single manifest TLV", offset=0)
        f = _parse_tlvs(outer[0][1], outer[0][2] + 5)
        name = _text(*_expect(f, 0, _T_SUBJECT))
        entries = []
        for tag, val, off in f[1:]:
            if tag != _T_MFT_ENTRY:
                raise DecodeError(f"unexpected tag 0x{tag:02x} in manifest", offset=off)
            if len(val) < 32:
                raise DecodeError("manifest entry shorter than its digest", offset=off)
            entries.append(ManifestEntry(_text(val[32:], off), val[:32]))
        return cls(name, tuple(entries))

    def with_entry(self, entry: ManifestEntry) -> "Manifest":
        kept = tuple(e for e in self.entries if e.name != entry.name)
        return Manifest(self.ca_name, kept + (entry,))


def decode_object(data: bytes) -> ResourceCert | RoaObject | Manifest:
    if not data:
        raise DecodeError("empty object", offset=0)
    outer_tag = data[0]
    if outer_tag == _T_RC:
        return ResourceCert.decode(data)
    if outer_tag == _T_ROA:
        return RoaObject.decode(data)
    if outer_tag == _T_MFT:
        return Manifest.decode(data)
    raise DecodeError(f"unknown object tag 0x{outer_tag:02x}", offset=0)


# -- CA hierarchy and issuance --------------------------------------------


class Repository:
    """Flat in-memory publication point shared by a CA tree."""

    def __init__(self):
        self._objects: dict[str, bytes] = {}

    def put(self, path: str, data: bytes) -> None:
        self._objects[path] = data

    def get(self, path: str) -> bytes:
        try:
            return self._objects[path]
        except KeyError:
            raise KeyError(f"no object published at {path!r}") from None


class FsRepository(Repository):
    """Publication point backed by a directory tree."""

    def __init__(self, root: Path):
        super().__init__()
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, path: str) -> Path:
        p = (self.root / path).resolve()
        if not p.is_relative_to(self.root.resolve()):
            raise ValueError(f"path {path!r} escapes the repository")
        return p

    def put(self, path: str, data: bytes) -> None:
        p = self._path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(data)

    def get(self, path: str) -> bytes:
        p = self._path(path)
        if not p.is_file():
            raise KeyError(f"no object published at {path!r}")
        return p.read_bytes()


def ca_path(name: str) -> str:
    return name.replace(ID_SEPARATOR, "/")


def rc_path(name: str) -> str:
    return f"rc/{ca_path(name)}.rc"


def mft_path(name: str) -> str:
    return f"mft/{ca_path(name)}.mft"


def roa_path(name: str, serial: int) -> str:
    return f"roa/{ca_path(name)}/{serial}.roa"


@dataclass
class Metrics:
    """Exact operation counters for issuance paths."""

    sign_ops: int = 0
    keygen_ops: int = 0

    def note_sign(self, n: int = 1) -> None:
        self.sign_ops += n

    def note_keygen(self, n: int = 1) -> None:
        self.keygen_ops += n


@dataclass
class CaNode:
    name: str
    mode: str
    level: MlDsaLevel
    inr: InrSet
    sk: bytes
    repo: Repository
    valid_from: int
    valid_to: int
    pk: bytes | None = None          # standard
    accompanying_r: bytes | None = None  # ipkpq
    parent: Optional["CaNode"] = None
    children: dict[str, "CaNode"] = field(default_factory=dict)
    rc: ResourceCert | None = None
    manifest: Manifest | None = None
    _serial: int = 0

    def __post_init__(self):
        validate_identity(self.name)
        if self.manifest is None:
            self.manifest = Manifest(self.name)

    def sign_payload(self, tbs: bytes) -> bytes:
        return sign(self.sk, tbs)

    @property
    def spki(self) -> bytes | tuple[str, bytes]:
        """The subject key binding that goes into this CA's own RC."""
        if self.mode == MODE_STANDARD:
            return self.pk
        return (self.name, self.accompanying_r)

    def next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def child_label(self, child_name: str) -> str:
        prefix = self.name + ID_SEPARATOR
        if not child_name.startswith(prefix):
            raise ParameterError(
                f"{child_name!r} is not a direct child name of {self.name!r}")
        return child_name[len(prefix):]


def _uris(subject_name: str, issuer_name: str) -> tuple[str, str, str, str]:
    subject = ca_path(subject_name)
    issuer = ca_path(issuer_name)
    base = "rsync://rpki.example.net/repository"
    return (
        f"{base}/{issuer}/revocations.crl",
        f"{base}/{issuer}/ca.cer",
        f"{base}/{subject}/",
        f"{base}/{subject}/manifest.mft",
    )


def _publish(ca: CaNode, path: str, encoded: bytes) -> None:
    """Write the object and refresh the publishing CA's manifest."""
    ca.repo.put(path, encoded)
    ca.manifest = ca.manifest.with_entry(ManifestEntry.for_object(path, encoded))
    ca.repo.put(mft_path(ca.name), ca.manifest.encode())


def _make_rc(issuer: CaNode, subject_name: str, inr: InrSet,
             spki: bytes | tuple[str, bytes], mode: str,
             valid_from: int, valid_to: int) -> ResourceCert:
    crl_uri, aia_uri, repo_uri, mft_uri = _uris(subject_name, issuer.name)
    cert = ResourceCert(
        mode=mode,
        serial=issuer.next_serial(),
        issuer_name=issuer.name,
        subject_name=subject_name,
        inr=inr,
        valid_from=valid_from,
        valid_to=valid_to,
        ski=sha_digest(_key_binding(spki)),
        aki=sha_digest(_key_binding(issuer.spki)),
        crl_uri=crl_uri,
        aia_uri=aia_uri,
        repo_uri=repo_uri,
        mft_uri=mft_uri,
        spki=spki,
    )
    return replace(cert, signature=issuer.sign_payload(cert.to_be_signed()))


def issue_rc(parent: CaNode, child_name: str, inr: InrSet,
             metrics: Metrics | None = None) -> ResourceCert:
    """Sign a resource certificate for a provisioned child (or self, for roots)."""
    if not parent.inr.contains(inr):
        raise AuthorizationError(
            f"{parent.name!r} cannot delegate resources outside its own allocation")
    if child_name == parent.name:
        subject = parent
    else:
        parent.child_label(child_name)
        try:
            subject = parent.children[child_name]
        except KeyError:
            raise ParameterError(
                f"{child_name!r} has no provisioned key material under "
                f"{parent.name!r}") from None
    cert = _make_rc(parent, child_name, inr, subject.spki, parent.mode,
                    subject.valid_from, subject.valid_to)
    if metrics is not None:
        metrics.note_sign()
    subject.rc = cert
    _publish(parent, rc_path(child_name), cert.encode())
    return cert


def issue_roa(isp: CaNode, inr: InrSet, metrics: Metrics | None = None,
              rng: EntropySource = secrets.token_bytes) -> RoaObject:
    """Authorize route origins: 2 sign ops in standard mode, 1 in ipkpq mode."""
    if not isp.inr.contains(inr):
        raise AuthorizationError(
            f"{isp.name!r} cannot authorize resources outside its own allocation")
    serial = isp.next_serial()
    if isp.mode == MODE_IPKPQ:
        roa = RoaObject(MODE_IPKPQ, isp.name, inr, signer_r=isp.accompanying_r)
        roa = replace(roa, signature=isp.sign_payload(roa.to_be_signed()))
        if metrics is not None:
            metrics.note_sign()
    else:
        ee_sk, ee_pk = keygen(isp.level, rng(32))
        if metrics is not None:
            metrics.note_keygen()
        ee_cert = _make_rc(isp, f"{isp.name}{ID_SEPARATOR}EE-{serial}", inr,
                           ee_pk, MODE_STANDARD, isp.valid_from, isp.valid_to)
        roa = RoaObject(MODE_STANDARD, isp.name, inr, ee_pk=ee_pk, ee_cert=ee_cert)
        roa = replace(roa, signature=sign(ee_sk, roa.to_be_signed()))
        if metrics is not None:
            metrics.note_sign(2)  # EE certificate + ROA
    _publish(isp, roa_path(isp.name, serial), roa.encode())
    return roa


def verify_manifest(ca: CaNode) -> bool:
    """Recompute every digest in the CA's manifest against the repository."""
    for entry in ca.manifest.entries:
        if ManifestEntry.for_object(entry.name, ca.repo.get(entry.name)) != entry:
            return False
    return True


# -- provisioning ----------------------------------------------------------


def make_root(name: str, mode: str, level: MlDsaLevel, repo: Repository,
              inr: InrSet = ROOT_INR, center: KeyCenter | None = None,
              valid_from: int = 0, valid_to: int = 1 << 40,
              rng: EntropySource = secrets.token_bytes,
              metrics: Metrics | None = None) -> CaNode:
    """Root CA with a self-signed RC covering its whole allocation."""
    node = _provision(None, name, mode, level, repo, inr, center,
                      valid_from, valid_to, rng, metrics)
    issue_rc(node, name, inr, metrics)
    return node


def provision_child(parent: CaNode, label: str, inr: InrSet,
                    center: KeyCenter | None = None,
                    rng: EntropySource = secrets.token_bytes,
                    metrics: Metrics | None = None) -> CaNode:
    """Create key material for a direct child; its RC is issued separately."""
    name = f"{parent.name}{ID_SEPARATOR}{label}"
    node = _provision(parent, name, parent.mode, parent.level, parent.repo, inr,
                      center, parent.valid_from, parent.valid_to, rng, metrics)
    parent.children[name] = node
    return node


def _provision(parent: CaNode | None, name: str, mode: str, level: MlDsaLevel,
               repo: Repository, inr: InrSet, center: KeyCenter | None,
               valid_from: int, valid_to: int, rng: EntropySource,
               metrics: Metrics | None) -> CaNode:
    if mode == MODE_STANDARD:
        sk, pk = keygen(level, rng(32))
        if metrics is not None:
            metrics.note_keygen()
        return CaNode(name, mode, level, inr, sk, repo, valid_from, valid_to,
                      pk=pk, parent=parent)
    if center is None:
        raise ParameterError("ipkpq provisioning needs a key center")
    if name not in center.registration_table():
        center.register(
            name.rsplit(ID_SEPARATOR, 1)[-1], name,
            datetime.fromtimestamp(valid_from, timezone.utc),
            datetime.fromtimestamp(valid_to, timezone.utc), rng, inr=inr)
    result = run_keygen(center, name, rng)
    if metrics is not None:
        metrics.note_keygen()
    return CaNode(name, mode, level, inr, result.sk, repo, valid_from, valid_to,
                  accompanying_r=result.R, parent=parent)
