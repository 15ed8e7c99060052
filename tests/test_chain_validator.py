"""Relying-party validation: verdicts, failure reasons, op/byte laws."""

import dataclasses

import json

import pytest

from ipkpq.chain_validator import (
    IpkpqValidator,
    REASON_BAD_SIGNATURE,
    REASON_CHAIN_BROKEN,
    REASON_EXPIRED,
    REASON_INR_VIOLATION,
    REASON_NOT_FOUND,
    REASON_REGISTRATION_INVALID,
    REASON_RHO_MISMATCH,
    StandardValidator,
)
from ipkpq.drbg import Drbg
from ipkpq.mldsa import L44, sign
from ipkpq.pk_resolver import FileResolver
from ipkpq.rpki_objects import (
    InrSet,
    MODE_IPKPQ,
    MODE_STANDARD,
    Metrics,
    Repository,
    RoaObject,
    issue_roa,
    make_root,
    provision_child,
    rc_path,
    sha_digest,
)
from test_rpki_objects import WINDOW, build_tree

NOW = (WINDOW[0] + WINDOW[1]) // 2
OUT_OF_PREFIX = InrSet.of(["192.0.2.0/24"], [(64100, 64100)])
OUT_OF_AS_RANGE = InrSet.of(["10.0.0.0/24"], [(13335, 13335)])


def std_setup(depth=3, seed="std"):
    root, leaf, repo, _, _, rng = build_tree(MODE_STANDARD, seed=seed, depth=depth)
    roa = issue_roa(leaf, InrSet.of(["10.0.0.0/24"], [(64100, 64100)]), rng=rng)
    return root, leaf, repo, roa


def ipk_setup(depth=3, seed="ipk"):
    root, leaf, repo, center, _, rng = build_tree(MODE_IPKPQ, seed=seed, depth=depth)
    roa = issue_roa(leaf, InrSet.of(["10.0.0.0/24"], [(64100, 64100)]), rng=rng)
    validator = IpkpqValidator(FileResolver(center.publish_file_pk()),
                               center.registration_table())
    return root, leaf, center, roa, validator


def roa_outside_allocation(leaf, inr, rng):
    """A ROA the leaf signs for resources it was never given."""
    allocated = leaf.inr
    leaf.inr = InrSet.of(["0.0.0.0/0"], [(0, 100_000)])  # passes issue_roa's own check
    try:
        return issue_roa(leaf, inr, rng=rng)
    finally:
        leaf.inr = allocated


class TestHonestValidation:
    def test_standard_depth3_counts(self):
        root, _, repo, roa = std_setup()
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(roa, NOW)
        assert report.ok
        assert report.sig_verifies_performed == 4  # ROA + EE + 2 chain links
        assert report.objects_fetched == 3          # isp, mid, root (cold)
        assert report.wall_time > 0

    def test_ipkpq_depth3_counts(self):
        _, _, _, roa, validator = ipk_setup()
        report = validator.validate(roa, NOW)
        assert report.ok
        assert report.sig_verifies_performed == 1
        assert report.objects_fetched == 2  # matrix (cold) + one record

    @pytest.mark.parametrize("depth", range(3, 9))
    def test_op_count_law_across_depths(self, depth):
        root, _, repo, roa = std_setup(depth=depth, seed=f"std{depth}")
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(roa, NOW)
        assert report.ok
        assert report.sig_verifies_performed == depth + 1

        _, _, _, roa, validator = ipk_setup(depth=depth, seed=f"ipk{depth}")
        report = validator.validate(roa, NOW)
        assert report.ok
        assert report.sig_verifies_performed == 1

    def test_standard_bytes_grow_with_depth_ipkpq_flat(self):
        std_bytes = []
        ipk_bytes = []
        for depth in range(3, 7):
            root, _, repo, roa = std_setup(depth=depth, seed=f"b{depth}")
            validator = StandardValidator(repo, sha_digest(root.rc.encode()))
            validator.validate(roa, NOW)          # warm the root cache
            std_bytes.append(validator.validate(roa, NOW).bytes_fetched)

            _, _, _, roa, validator = ipk_setup(depth=depth, seed=f"ib{depth}")
            validator.validate(roa, NOW)          # warm the matrix cache
            ipk_bytes.append(validator.validate(roa, NOW).bytes_fetched)
        assert std_bytes == sorted(std_bytes) and len(set(std_bytes)) == len(std_bytes)
        assert max(ipk_bytes) / min(ipk_bytes) < 1.05

    def test_warm_validation_skips_the_pinned_root(self):
        root, _, repo, roa = std_setup()
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        assert validator.validate(roa, NOW).objects_fetched == 3  # cold
        fetched = []
        real_get = repo.get
        repo.get = lambda path: fetched.append(path) or real_get(path)
        warm = validator.validate(roa, NOW)
        assert warm.ok and warm.sig_verifies_performed == 4
        assert warm.objects_fetched == 2  # the root is neither fetched nor counted
        assert rc_path(root.name) not in fetched and len(fetched) == 2
        assert warm.bytes_fetched == sum(len(real_get(path)) for path in fetched)

    def test_report_serializes(self):
        root, _, repo, roa = std_setup()
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(roa, NOW)
        assert json.loads(json.dumps(report.to_dict()))["verdict"] == "valid"

    def test_online_resolver_backend_agrees_with_file_backend(self):
        from ipkpq.pk_resolver import OnlineResolver, PkQueryServer

        _, _, center, roa, file_validator = ipk_setup(seed="online")
        server = PkQueryServer(center.publish_file_pk()).start()
        resolver = OnlineResolver(server.endpoint)
        try:
            online = IpkpqValidator(resolver, center.registration_table())
            honest = online.validate(roa, NOW)
            assert honest.ok and honest.sig_verifies_performed == 1
            forged = dataclasses.replace(roa, signer_r=bytes(32))
            assert online.validate(forged, NOW).reason == \
                file_validator.validate(forged, NOW).reason == REASON_RHO_MISMATCH
        finally:
            resolver.close()
            server.stop()


class TestStandardFailures:
    def test_bad_roa_signature(self):
        root, _, repo, roa = std_setup()
        broken = dataclasses.replace(
            roa, signature=roa.signature[:-1] + bytes([roa.signature[-1] ^ 1]))
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(broken, NOW)
        assert report.reason == REASON_BAD_SIGNATURE

    def test_tampered_middle_rc(self):
        root, leaf, repo, roa = std_setup()
        mid_name = leaf.parent.name
        blob = bytearray(repo.get(rc_path(mid_name)))
        blob[-10] ^= 0x01  # inside the signature value
        repo.put(rc_path(mid_name), bytes(blob))
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(roa, NOW)
        assert report.reason == REASON_CHAIN_BROKEN

    def test_swapped_ee_cert_breaks_roa_signature(self):
        # the ROA signature covers the embedded certificate, so swapping it
        # is caught as a bad signature before any chain checks
        root, leaf, repo, roa = std_setup()
        rng = Drbg("other")
        other = issue_roa(leaf, InrSet.of(["10.0.0.0/25"], [(64100, 64100)]), rng=rng)
        forged = dataclasses.replace(roa, ee_cert=other.ee_cert)
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(forged, NOW)
        assert report.reason == REASON_BAD_SIGNATURE

    def test_ee_cert_key_mismatch_is_chain_broken(self):
        # a self-consistent forgery: the ROA verifies under its own fresh EE
        # key, but the certified key in the embedded EE certificate differs
        from ipkpq.mldsa import keygen

        root, leaf, repo, roa = std_setup()
        rogue_sk, rogue_pk = keygen(L44, Drbg("rogue")(32))
        forged = dataclasses.replace(roa, ee_pk=rogue_pk, signature=b"")
        forged = dataclasses.replace(
            forged, signature=sign(rogue_sk, forged.to_be_signed()))
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(forged, NOW)
        assert report.reason == REASON_CHAIN_BROKEN

    def test_inr_violation_detected(self):
        # forge a leaf RC that claims more than its parent allocated
        from ipkpq.rpki_objects import _make_rc

        root, leaf, repo, roa = std_setup()
        mid = leaf.parent
        wide = _make_rc(mid, leaf.name, InrSet.of(["0.0.0.0/0"], [(0, 100_000)]),
                        leaf.pk, MODE_STANDARD, leaf.valid_from, leaf.valid_to)
        repo.put(rc_path(leaf.name), wide.encode())
        rng = Drbg("wide-roa")
        wide_roa = issue_roa(leaf, InrSet.of(["10.0.0.0/24"], [(64100, 64100)]),
                             rng=rng)
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(wide_roa, NOW)
        assert report.reason == REASON_INR_VIOLATION

    def test_expired_chain(self):
        root, _, repo, roa = std_setup()
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(roa, WINDOW[1] + 10)
        assert report.reason == REASON_EXPIRED

    def test_missing_intermediate(self):
        root, leaf, repo, roa = std_setup()
        repo._objects.pop(rc_path(leaf.parent.name))
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        report = validator.validate(roa, NOW)
        assert report.reason == REASON_NOT_FOUND

    def test_issuers_naming_each_other_end_chain_broken(self):
        # the leaf's RC names the mid CA as issuer, and a forged mid RC, signed
        # by the leaf, names the leaf: the walk stops at the repeated name
        from ipkpq.rpki_objects import _make_rc

        root, leaf, repo, roa = std_setup()
        mid = leaf.parent
        looped = _make_rc(leaf, mid.name, mid.inr, mid.pk, MODE_STANDARD,
                          mid.valid_from, mid.valid_to)
        repo.put(rc_path(mid.name), looped.encode())
        report = StandardValidator(repo, sha_digest(root.rc.encode())).validate(roa, NOW)
        assert report.reason == REASON_CHAIN_BROKEN
        assert report.objects_fetched == 2  # the leaf's RC and the looped mid RC, once each

    def test_wrong_trust_anchor(self):
        root, _, repo, roa = std_setup()
        report = StandardValidator(repo, b"\x00" * 32).validate(roa, NOW)
        assert report.reason == REASON_CHAIN_BROKEN

    def test_rejected_root_is_not_cached(self):
        # a root that fails the pin must not outlive the next fetch
        root, _, repo, roa = std_setup()
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
        good = repo.get(rc_path(root.name))
        wrong = bytearray(good)
        wrong[-10] ^= 0x01  # inside the signature value; still self-issued
        repo.put(rc_path(root.name), bytes(wrong))
        assert validator.validate(roa, NOW).reason == REASON_CHAIN_BROKEN
        repo.put(rc_path(root.name), good)
        assert validator.validate(roa, NOW).ok


class TestIpkpqFailures:
    def test_substituted_r(self):
        _, _, _, roa, validator = ipk_setup()
        rng = Drbg("mutate")
        rejected = 0
        for _ in range(100):
            mutated = bytearray(roa.signer_r)
            mutated[rng(1)[0] % 32] ^= 1 << (rng(1)[0] % 8)
            report = validator.validate(
                dataclasses.replace(roa, signer_r=bytes(mutated)), NOW)
            assert not report.ok
            assert report.reason == REASON_RHO_MISMATCH
            rejected += 1
        assert rejected == 100

    def test_revoked_signer(self):
        _, leaf, center, roa, _ = ipk_setup()
        center.revoke(leaf.name)
        validator = IpkpqValidator(FileResolver(center.publish_file_pk()),
                                   center.registration_table())
        report = validator.validate(roa, NOW)
        assert report.reason == REASON_REGISTRATION_INVALID

    def test_unregistered_signer(self):
        _, _, _, roa, validator = ipk_setup()
        forged = dataclasses.replace(roa, signer_name="RIR||CA1||GHOST",
                                     signer_r=roa.signer_r)
        report = validator.validate(forged, NOW)
        assert report.reason == REASON_REGISTRATION_INVALID

    def test_outside_validity_window(self):
        _, _, _, roa, validator = ipk_setup()
        report = validator.validate(roa, WINDOW[1] + 10)
        assert report.reason == REASON_EXPIRED

    def test_window_is_inclusive_in_epoch_seconds(self):
        _, _, _, roa, validator = ipk_setup()
        assert validator.validate(roa, WINDOW[0]).ok
        assert validator.validate(roa, WINDOW[1]).ok
        assert validator.validate(roa, WINDOW[0] - 1).reason == REASON_EXPIRED
        assert validator.validate(roa, WINDOW[1] + 1).reason == REASON_EXPIRED

    def test_validator_sees_a_revocation_made_after_it_was_built(self):
        _, leaf, center, roa, validator = ipk_setup()
        assert validator.validate(roa, NOW).ok
        center.revoke(leaf.name)
        assert validator.validate(roa, NOW).reason == REASON_REGISTRATION_INVALID

    def test_out_of_allocation_costs_no_verify_and_no_bytes(self):
        _, leaf, _, _, validator = ipk_setup()
        roa = roa_outside_allocation(leaf, OUT_OF_PREFIX, Drbg("wide"))
        report = validator.validate(roa, NOW)
        assert report.reason == REASON_INR_VIOLATION
        assert report.sig_verifies_performed == 0
        assert report.bytes_fetched == 0

    def test_record_missing_from_directory(self):
        # registered and active, but the directory never got the record
        root, leaf, center, roa, _ = ipk_setup()
        file = center.publish_file_pk()
        import ipkpq.pk_directory as pk_directory
        header_end = pk_directory.decode_header(file).record_region_offset
        stripped = file[:header_end]
        for off, rid, pk in pk_directory.iter_records(file):
            if rid != leaf.name:
                stripped = pk_directory.append_record(stripped, rid, pk)
        validator = IpkpqValidator(FileResolver(stripped),
                                   center.registration_table())
        report = validator.validate(roa, NOW)
        assert report.reason == REASON_NOT_FOUND

    def test_bad_signature_after_successful_resolution(self):
        _, _, _, roa, validator = ipk_setup()
        broken = dataclasses.replace(
            roa, signature=bytes([roa.signature[0] ^ 1]) + roa.signature[1:])
        report = validator.validate(broken, NOW)
        assert report.reason == REASON_BAD_SIGNATURE

    def test_policy_checks_precede_crypto(self):
        _, leaf, center, roa, _ = ipk_setup()
        center.revoke(leaf.name)
        validator = IpkpqValidator(FileResolver(center.publish_file_pk()),
                                   center.registration_table())
        report = validator.validate(roa, NOW)
        assert report.sig_verifies_performed == 0
        assert report.bytes_fetched == 0


class TestCrossMode:
    def test_signature_tampering_rejected_in_both_modes(self):
        root, _, repo, roa = std_setup()
        _, _, _, iroa, validator = ipk_setup()
        for flip in (0, 100, -1):
            broken_std = dataclasses.replace(
                roa, signature=_flip(roa.signature, flip))
            broken_ipk = dataclasses.replace(
                iroa, signature=_flip(iroa.signature, flip))
            assert not StandardValidator(
                repo, sha_digest(root.rc.encode())).validate(broken_std, NOW).ok
            assert not validator.validate(broken_ipk, NOW).ok

    def test_roa_of_the_other_mode(self):
        root, _, repo, roa = std_setup()
        _, _, _, iroa, ipk_validator = ipk_setup()
        standard = StandardValidator(repo, sha_digest(root.rc.encode()))
        assert standard.validate(iroa, NOW).reason == REASON_CHAIN_BROKEN
        assert ipk_validator.validate(roa, NOW).reason == REASON_REGISTRATION_INVALID

    @pytest.mark.parametrize("inr", [OUT_OF_PREFIX, OUT_OF_AS_RANGE],
                             ids=["prefix", "as-range"])
    def test_out_of_allocation_is_an_inr_violation_in_both_modes(self, inr):
        root, leaf, repo, _ = std_setup()
        standard = StandardValidator(repo, sha_digest(root.rc.encode()))
        std_roa = roa_outside_allocation(leaf, inr, Drbg("wide-std"))
        _, ileaf, _, _, identity = ipk_setup()
        ipk_roa = roa_outside_allocation(ileaf, inr, Drbg("wide-ipk"))
        assert standard.validate(std_roa, NOW).reason == REASON_INR_VIOLATION
        assert identity.validate(ipk_roa, NOW).reason == REASON_INR_VIOLATION

    def test_no_false_accepts_across_mutation_suite(self):
        root, _, repo, roa = std_setup()
        _, _, _, iroa, validator = ipk_setup()
        ta = sha_digest(root.rc.encode())
        rng = Drbg("suite")
        accepts = 0
        for i in range(60):
            target = bytearray(roa.encode() if i % 2 else iroa.encode())
            target[rng(2)[0] % len(target)] ^= 1 + rng(1)[0] % 255
            try:
                mutated = RoaObject.decode(bytes(target))
            except Exception:
                continue  # structurally destroyed: rejected before validation
            if i % 2:
                accepts += StandardValidator(repo, ta).validate(mutated, NOW).ok
            else:
                accepts += validator.validate(mutated, NOW).ok
        assert accepts == 0


def _flip(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)
