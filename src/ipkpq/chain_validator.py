"""Relying-party validation in both modes, with exact operation accounting.

Standard mode walks the certificate chain: the ROA is checked under its
end-entity key, the end-entity certificate under the issuing CA's RC, and
every RC under its parent until the self-signed root, which is matched
against a pinned digest instead of being signature-verified. That costs
depth + 1 signature verifications and fetches every non-root RC per
validation (the root is kept once it matched the pin, as deployments do).

Identity mode never walks a chain: the signer's registration record is
checked first (cheap policy before expensive crypto): its status, its
validity window in the same epoch seconds as the RC checks, and its
resources, which must cover the ROA's. Then the signer's public key is
resolved from (id, R) and the local matrix, and the single ROA signature
is verified. One signature verification at any depth; after the matrix
is cached, the only bytes fetched per validation are one directory
record.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Mapping

from .key_center import STATUS_ACTIVE, RegistrationRecord
from .mldsa import verify
from .pk_resolver import FileResolver, NOT_FOUND, OnlineResolver, RHO_MISMATCH
from .rpki_objects import (
    MODE_IPKPQ,
    MODE_STANDARD,
    Repository,
    ResourceCert,
    RoaObject,
    rc_path,
    sha_digest,
)

VALID = "valid"
INVALID = "invalid"

REASON_BAD_SIGNATURE = "bad-signature"
REASON_CHAIN_BROKEN = "chain-broken"
REASON_INR_VIOLATION = "inr-violation"
REASON_REGISTRATION_INVALID = "registration-invalid"
REASON_EXPIRED = "expired"
REASON_RHO_MISMATCH = "rho-mismatch"
REASON_NOT_FOUND = "not-found"


@dataclass
class ValidationReport:
    verdict: str = VALID
    reason: str | None = None
    sig_verifies_performed: int = 0
    objects_fetched: int = 0
    bytes_fetched: int = 0
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verdict == VALID

    def to_dict(self) -> dict:
        return asdict(self)


def _timed(check, roa: RoaObject, now: int) -> ValidationReport:
    """Run one validation body on a fresh report; its reason, if any, fails it."""
    report = ValidationReport()
    start = time.perf_counter()
    reason = check(roa, now, report)
    report.wall_time = time.perf_counter() - start
    if reason is not None:
        report.verdict, report.reason = INVALID, reason
    return report


def _verify_counted(pk: bytes, obj, report: ValidationReport) -> bool:
    """Count one signature verification, then perform it."""
    report.sig_verifies_performed += 1
    return verify(pk, obj.to_be_signed(), b"", obj.signature)


class StandardValidator:
    """Chain validation rooted at a digest-pinned trust anchor."""

    def __init__(self, repo: Repository, trust_anchor_digest: bytes):
        self.repo = repo
        self.trust_anchor_digest = trust_anchor_digest
        # the root RC, once it matched the pinned digest; never fetched again
        self._root: ResourceCert | None = None

    def _fetch_rc(self, name: str, report: ValidationReport) -> ResourceCert | None:
        if self._root is not None and name == self._root.subject_name:
            return self._root
        try:
            raw = self.repo.get(rc_path(name))
        except KeyError:
            return None
        report.objects_fetched += 1
        report.bytes_fetched += len(raw)
        return ResourceCert.decode(raw)

    def validate(self, roa: RoaObject, now: int) -> ValidationReport:
        return _timed(self._validate, roa, now)

    def _validate(self, roa: RoaObject, now: int, report: ValidationReport) -> str | None:
        if roa.mode != MODE_STANDARD or roa.ee_cert is None or roa.ee_pk is None:
            return REASON_CHAIN_BROKEN
        if not _verify_counted(roa.ee_pk, roa, report):
            return REASON_BAD_SIGNATURE

        ee = roa.ee_cert
        if ee.spki != roa.ee_pk:
            return REASON_CHAIN_BROKEN
        if not (ee.valid_from <= now <= ee.valid_to):
            return REASON_EXPIRED
        if not ee.inr.contains(roa.inr):
            return REASON_INR_VIOLATION

        child: ResourceCert = ee
        seen: set[str] = set()
        while True:
            issuer_name = child.issuer_name
            if issuer_name in seen:
                return REASON_CHAIN_BROKEN
            seen.add(issuer_name)
            issuer_rc = self._fetch_rc(issuer_name, report)
            if issuer_rc is None:
                return REASON_NOT_FOUND
            if issuer_rc.subject_name != issuer_name or issuer_rc.mode != MODE_STANDARD:
                return REASON_CHAIN_BROKEN
            if not (issuer_rc.valid_from <= now <= issuer_rc.valid_to):
                return REASON_EXPIRED
            if not issuer_rc.inr.contains(child.inr):
                return REASON_INR_VIOLATION
            if not _verify_counted(issuer_rc.spki, child, report):
                return REASON_CHAIN_BROKEN
            if issuer_rc.issuer_name == issuer_rc.subject_name:
                # reached the self-signed root: pin it only if it matches the anchor
                if issuer_rc is not self._root:
                    if sha_digest(issuer_rc.encode()) != self.trust_anchor_digest:
                        return REASON_CHAIN_BROKEN
                    self._root = issuer_rc
                return None
            child = issuer_rc


class IpkpqValidator:
    """Chain-free validation via registration policy plus seed-consistent keys."""

    def __init__(self, resolver: FileResolver | OnlineResolver,
                 registration_table: Mapping[str, RegistrationRecord]):
        self.resolver = resolver
        self.registration_table = registration_table

    def validate(self, roa: RoaObject, now: int) -> ValidationReport:
        return _timed(self._validate, roa, now)

    def _validate(self, roa: RoaObject, now: int, report: ValidationReport) -> str | None:
        if roa.mode != MODE_IPKPQ or roa.signer_r is None:
            return REASON_REGISTRATION_INVALID
        record = self.registration_table.get(roa.signer_name)
        if record is None or record.status != STATUS_ACTIVE:
            return REASON_REGISTRATION_INVALID
        if not (record.valid_from <= now <= record.valid_to):
            return REASON_EXPIRED
        if not record.inr.contains(roa.inr):
            return REASON_INR_VIOLATION

        fetched0 = self.resolver.bytes_fetched
        objects0 = self.resolver.objects_fetched
        status, resolved = self.resolver.resolve_detail(roa.signer_name, roa.signer_r)
        report.bytes_fetched += self.resolver.bytes_fetched - fetched0
        report.objects_fetched += self.resolver.objects_fetched - objects0
        if status == NOT_FOUND:
            return REASON_NOT_FOUND
        if status == RHO_MISMATCH:
            return REASON_RHO_MISMATCH
        if not _verify_counted(resolved.pk, roa, report):
            return REASON_BAD_SIGNATURE
        return None
