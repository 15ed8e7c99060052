"""Object model: resources, TLV codec, issuance rules, op accounting."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipkpq.chain_validator import IpkpqValidator, StandardValidator
from ipkpq.drbg import Drbg
from ipkpq.errors import AuthorizationError, DecodeError, ParameterError
from ipkpq.key_center import init_center
from ipkpq.mldsa import L44, verify
from ipkpq.pk_resolver import FileResolver
from ipkpq.rpki_objects import (
    AS_MAX,
    InrSet,
    Manifest,
    ManifestEntry,
    Metrics,
    MODE_IPKPQ,
    MODE_STANDARD,
    Repository,
    ResourceCert,
    RoaObject,
    decode_object,
    issue_rc,
    issue_roa,
    make_root,
    provision_child,
    sha_digest,
    verify_manifest,
)

WINDOW = (1_700_000_000, 1_900_000_000)

# sizes measured once on the pinned golden fixture below, then frozen
GOLDEN_L44_SIZES = {
    (MODE_STANDARD, "rc"): 4154,
    (MODE_STANDARD, "roa"): 7970,
    (MODE_IPKPQ, "rc"): 2882,
    (MODE_IPKPQ, "roa"): 2523,
}


def golden_root(mode):
    center = (init_center(8, 8, L44, Drbg("golden-center"))
              if mode == MODE_IPKPQ else None)
    repo = Repository()
    root = make_root("APNIC123", mode, L44, repo, center=center,
                     valid_from=WINDOW[0], valid_to=WINDOW[1],
                     rng=Drbg(f"golden-{mode}"))
    return root, repo, center


def build_tree(mode, seed="tree", depth=3):
    center = (init_center(8, 8, L44, Drbg(f"{seed}-center"))
              if mode == MODE_IPKPQ else None)
    repo = Repository()
    rng = Drbg(seed)
    metrics = Metrics()
    root = make_root("RIR", mode, L44, repo, center=center,
                     valid_from=WINDOW[0], valid_to=WINDOW[1], rng=rng,
                     metrics=metrics)
    node = root
    for d in range(1, depth):
        inr = InrSet.of([f"10.0.0.0/{min(8 + 2 * d, 24)}"], [(64000, 65000 - d)])
        child = provision_child(node, f"CA{d}", inr, center=center, rng=rng,
                                metrics=metrics)
        issue_rc(node, child.name, inr, metrics)
        node = child
    return root, node, repo, center, metrics, rng


class TestInrSet:
    def test_canonical_ordering_and_dedup(self):
        a = InrSet.of(["10.0.0.0/8", "9.0.0.0/8", "10.0.0.0/8"], [(5, 9), (1, 2)])
        b = InrSet.of(["9.0.0.0/8", "10.0.0.0/8"], [(1, 2), (5, 9)])
        assert a == b
        assert a.prefixes[0] == ipaddress.ip_network("9.0.0.0/8")

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            InrSet.of(["10.0.0.1/8"])

    def test_bad_as_range(self):
        with pytest.raises(ParameterError):
            InrSet.of([], [(5, 4)])
        with pytest.raises(ParameterError):
            InrSet.of([], [(0, AS_MAX + 1)])

    def test_containment(self):
        parent = InrSet.of(["10.0.0.0/8", "2001:db8::/32"], [(64000, 65000)])
        assert parent.contains(InrSet.of(["10.1.0.0/16"], [(64500, 64500)]))
        assert parent.contains(InrSet.of(["2001:db8:1::/48"]))
        assert not parent.contains(InrSet.of(["11.0.0.0/8"]))
        assert not parent.contains(InrSet.of([], [(63000, 64500)]))
        assert not parent.contains(InrSet.of(["10.0.0.0/7"]))  # wider than parent

    def test_v4_v6_do_not_mix(self):
        parent = InrSet.of(["0.0.0.0/0"])
        assert not parent.contains(InrSet.of(["::/128"]))


class TestCodec:
    def test_rc_round_trip_both_modes(self):
        for mode in (MODE_STANDARD, MODE_IPKPQ):
            root, _, _ = golden_root(mode)
            rc = root.rc
            assert ResourceCert.decode(rc.encode()) == rc
            assert decode_object(rc.encode()) == rc

    def test_roa_round_trip_both_modes(self):
        for mode in (MODE_STANDARD, MODE_IPKPQ):
            root, _, _ = golden_root(mode)
            roa = issue_roa(root, InrSet.of(["10.0.0.0/8"], [(64500, 64500)]),
                            rng=Drbg("roa"))
            assert RoaObject.decode(roa.encode()) == roa

    def test_manifest_round_trip(self):
        mft = Manifest("RIR", (ManifestEntry("a/b.rc", b"\x01" * 32),
                               ManifestEntry("c.roa", b"\x02" * 32)))
        assert Manifest.decode(mft.encode()) == mft

    def test_encoding_is_deterministic(self):
        root, _, _ = golden_root(MODE_IPKPQ)
        assert root.rc.encode() == root.rc.encode()

    def test_signature_is_over_zeroed_signature_field(self):
        root, _, _ = golden_root(MODE_STANDARD)
        rc = root.rc
        assert verify(root.pk, rc.to_be_signed(), b"", rc.signature)
        assert rc.to_be_signed() != rc.encode()

    def test_truncation_gives_structured_errors(self):
        root, _, _ = golden_root(MODE_IPKPQ)
        data = root.rc.encode()
        for cut in (0, 1, 4, 17, len(data) // 2, len(data) - 1):
            with pytest.raises(DecodeError):
                ResourceCert.decode(data[:cut])

    def test_unknown_object_tag(self):
        with pytest.raises(DecodeError):
            decode_object(b"\x7f\x00\x00\x00\x00")

    def test_field_order_enforced(self):
        root, _, _ = golden_root(MODE_IPKPQ)
        data = bytearray(root.rc.encode())
        data[5] = 0x11  # first inner tag (mode) renamed to serial
        with pytest.raises(DecodeError):
            ResourceCert.decode(bytes(data))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, AS_MAX)), max_size=4),
           st.sampled_from([8, 12, 16, 20, 24, 28]))
    def test_inr_round_trip_property(self, pairs, plen):
        ranges = [(min(a, b), max(a, b)) for a, b in pairs]
        inr = InrSet.of([f"10.0.0.0/{plen}"], ranges)
        blob = inr.encode()
        from ipkpq.rpki_objects import _parse_tlvs
        tag, value, off = _parse_tlvs(blob)[0]
        assert InrSet.decode_value(value, off + 5) == inr


GOLDEN_ROA_INR = InrSet.of(["10.0.0.0/8"], [(64500, 64500)])
# the encoded resource TLVs of GOLDEN_ROA_INR: tag, u32 length, value
PREFIX_TLV = bytes.fromhex("15" "00000006" "0408" "0a000000")
AS_RANGE_TLV = bytes.fromhex("16" "00000008" "0000fbf4" "0000fbf4")
SIGNER_TLV = b"\x22\x00\x00\x00\x08APNIC123"


class TestMalformedFields:
    """Field values arrive from outside the program: DecodeError, nothing else."""

    @pytest.mark.parametrize("mode", [MODE_STANDARD, MODE_IPKPQ])
    def test_every_single_byte_mutation_parses_or_raises_decode_error(self, mode):
        root, _, _ = golden_root(mode)
        roa = issue_roa(root, GOLDEN_ROA_INR, rng=Drbg("roa"))
        for decode, data in ((ResourceCert.decode, root.rc.encode()),
                             (RoaObject.decode, roa.encode())):
            for pos in range(len(data)):
                for flip in (0x01, 0x80, 0xFF):
                    mutated = bytearray(data)
                    mutated[pos] ^= flip
                    try:
                        decode(bytes(mutated))
                    except DecodeError:
                        pass

    @pytest.mark.parametrize("needle, patched", [
        (PREFIX_TLV, PREFIX_TLV[:6] + bytes([200]) + PREFIX_TLV[7:]),  # /200
        (PREFIX_TLV, PREFIX_TLV[:6] + bytes([4]) + PREFIX_TLV[7:]),    # host bits
        (AS_RANGE_TLV, AS_RANGE_TLV[:8] + b"\xff" + AS_RANGE_TLV[9:]),  # lo > hi
        (SIGNER_TLV, SIGNER_TLV[:5] + b"\xff" + SIGNER_TLV[6:]),        # not UTF-8
    ], ids=["prefix_length_200", "host_bits_set", "as_lo_above_hi", "signer_not_utf8"])
    @pytest.mark.parametrize("mode", [MODE_STANDARD, MODE_IPKPQ])
    def test_bad_field_value_names_its_offset(self, mode, needle, patched):
        root, _, _ = golden_root(mode)
        data = issue_roa(root, GOLDEN_ROA_INR, rng=Drbg("roa")).encode()
        # the last occurrence of a resource TLV is inside the standard EE certificate
        for at in (data.index(needle), data.rindex(needle)):
            with pytest.raises(DecodeError) as err:
                RoaObject.decode(data[:at] + patched + data[at + len(needle):])
            assert err.value.offset == at


class TestIssuance:
    def test_root_self_rc_verifies(self):
        # standard: under its own key; ipkpq: under the resolved identity key
        root, _, _ = golden_root(MODE_STANDARD)
        assert verify(root.pk, root.rc.to_be_signed(), b"", root.rc.signature)

        root, _, center = golden_root(MODE_IPKPQ)
        resolved = FileResolver(center.publish_file_pk()).resolve(
            root.name, root.accompanying_r)
        assert resolved is not None
        assert verify(resolved.pk, root.rc.to_be_signed(), b"", root.rc.signature)

    def test_inr_escalation_rejected(self):
        root, leaf, repo, center, _, rng = build_tree(MODE_STANDARD)
        with pytest.raises(AuthorizationError):
            issue_roa(leaf, InrSet.of(["11.0.0.0/8"]), rng=rng)
        mid = root.children["RIR||CA1"]
        with pytest.raises(AuthorizationError):
            issue_rc(mid, leaf.name, InrSet.of(["0.0.0.0/0"]))

    def test_issue_rc_requires_provisioned_child(self):
        root, _, _ = golden_root(MODE_STANDARD)
        with pytest.raises(ParameterError):
            issue_rc(root, "APNIC123||GHOST", InrSet.of(["10.0.0.0/8"]))

    def test_chain_inr_containment_holds_transitively(self):
        for mode in (MODE_STANDARD, MODE_IPKPQ):
            root, leaf, *_ = build_tree(mode, seed=f"walk-{mode}", depth=5)
            node = leaf
            while node.parent is not None:
                assert node.parent.inr.contains(node.inr)
                assert node.parent.inr.contains(node.rc.inr)
                node = node.parent

    def test_sign_op_counts_per_roa(self):
        for mode, expected in ((MODE_STANDARD, 2), (MODE_IPKPQ, 1)):
            _, leaf, _, _, _, rng = build_tree(mode, seed=f"ops-{mode}")
            metrics = Metrics()
            for _ in range(5):
                issue_roa(leaf, InrSet.of(["10.0.0.0/24"], [(64100, 64100)]),
                          metrics, rng)
            assert metrics.sign_ops == 5 * expected
            assert metrics.keygen_ops == (5 if mode == MODE_STANDARD else 0)

    def test_standard_ee_keys_are_fresh_per_roa(self):
        _, leaf, _, _, _, rng = build_tree(MODE_STANDARD, seed="fresh")
        roas = [issue_roa(leaf, InrSet.of(["10.0.0.0/24"]), rng=rng)
                for _ in range(4)]
        assert len({roa.ee_pk for roa in roas}) == 4

    def test_issued_roa_verifies_in_matching_validator(self):
        now = (WINDOW[0] + WINDOW[1]) // 2
        root, leaf, repo, _, _, rng = build_tree(MODE_STANDARD, seed="v-std")
        roa = issue_roa(leaf, InrSet.of(["10.0.0.0/24"]), rng=rng)
        report = StandardValidator(repo, sha_digest(root.rc.encode())).validate(roa, now)
        assert report.ok, report.reason

        root, leaf, repo, center, _, rng = build_tree(MODE_IPKPQ, seed="v-ipk")
        roa = issue_roa(leaf, InrSet.of(["10.0.0.0/24"]), rng=rng)
        validator = IpkpqValidator(FileResolver(center.publish_file_pk()),
                                   center.registration_table())
        report = validator.validate(roa, now)
        assert report.ok, report.reason

    def test_manifest_digests_recompute_after_every_issuance(self):
        root, leaf, repo, center, _, rng = build_tree(MODE_IPKPQ, seed="mft")
        assert verify_manifest(root)
        for _ in range(3):
            issue_roa(leaf, InrSet.of(["10.0.0.0/24"]), rng=rng)
            assert verify_manifest(leaf)
        mid = root.children["RIR||CA1"]
        assert verify_manifest(mid)

    def test_tampered_repository_object_breaks_manifest(self):
        root, leaf, repo, _, _, rng = build_tree(MODE_STANDARD, seed="mft2")
        target = leaf.manifest.entries[0].name if leaf.manifest.entries else None
        issue_roa(leaf, InrSet.of(["10.0.0.0/24"]), rng=rng)
        entry = leaf.manifest.entries[-1]
        blob = bytearray(repo.get(entry.name))
        blob[-1] ^= 0x01
        repo.put(entry.name, bytes(blob))
        assert not verify_manifest(leaf)


class TestModeSizes:
    def test_golden_sizes_frozen(self):
        for mode in (MODE_STANDARD, MODE_IPKPQ):
            root, _, _ = golden_root(mode)
            roa = issue_roa(root, InrSet.of(["10.0.0.0/8"], [(64500, 64500)]),
                            rng=Drbg("roa"))
            assert len(root.rc.encode()) == GOLDEN_L44_SIZES[(mode, "rc")]
            assert len(roa.encode()) == GOLDEN_L44_SIZES[(mode, "roa")]

    def test_rc_size_delta_is_exactly_the_spki_swap(self):
        # reported certificate sizes differ by 5355 - 4083 = 1272 bytes at
        # this level with an 8-byte identity: full pk (1312) replaced by
        # R (32) plus the id (8)
        std, _, _ = golden_root(MODE_STANDARD)
        ipk, _, _ = golden_root(MODE_IPKPQ)
        delta = len(std.rc.encode()) - len(ipk.rc.encode())
        assert delta == 1312 - 32 - len("APNIC123") == 1272

    def test_common_fields_encode_identically_across_modes(self):
        from ipkpq.rpki_objects import _parse_tlvs

        std, _, _ = golden_root(MODE_STANDARD)
        ipk, _, _ = golden_root(MODE_IPKPQ)
        inr = InrSet.of(["10.0.0.0/8"], [(64500, 64500)])
        roa_std = issue_roa(std, inr, rng=Drbg("roa"))
        roa_ipk = issue_roa(ipk, inr, rng=Drbg("roa"))

        def fields(roa):
            outer = _parse_tlvs(roa.encode())[0]
            return {tag: value for tag, value, _ in _parse_tlvs(outer[1])}

        f_std, f_ipk = fields(roa_std), fields(roa_ipk)
        assert f_std[0x22] == f_ipk[0x22]  # signer name bytes
        assert f_std[0x14] == f_ipk[0x14]  # resource set bytes
