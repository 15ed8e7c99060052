"""Two-party key generation: agreement, blinding, phase safety, framing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WINDOW, make_center, register
from ipkpq import pk_directory, pk_resolver
from ipkpq.drbg import Drbg
from ipkpq.errors import DecodeError, ParameterError, StateError
from ipkpq.keygen_protocol import (
    CaPhase,
    KcPhase,
    Msg1,
    Msg2,
    Msg3,
    ca_begin,
    ca_finish,
    decode_frame,
    encode_frame,
    kc_commit,
    kc_respond,
    run_keygen,
)
from ipkpq.mldsa import L44, L65, decode_rho, keygen_from_components, sign, verify
from ipkpq.seed_fabric import IdentityHandle, map_indices, seed_neg, seed_sum


def bytesum(*parts: bytes) -> bytes:
    acc = [0] * len(parts[0])
    for part in parts:
        for i, b in enumerate(part):
            acc[i] = (acc[i] + b) % 256
    return bytes(acc)


class TestCaBegin:
    def test_fresh_runs_differ(self):
        (_, m1a) = ca_begin(Drbg("a"))
        (_, m1b) = ca_begin(Drbg("b"))
        assert m1a.Kr != m1b.Kr

    def test_kr_unblinds_with_r(self):
        state, msg1 = ca_begin(Drbg("a"))
        assert seed_sum([msg1.Kr, seed_neg(state.r_ca)]) == state.K_ca

    def test_initial_phase(self):
        state, _ = ca_begin(Drbg("a"))
        assert state.phase is CaPhase.STARTED
        assert state.result is None


class TestKcRespond:
    def test_against_straight_line_recomputation(self, center):
        register(center, "APNIC")
        _, msg1 = ca_begin(Drbg("ca"))
        _, msg2 = kc_respond(center, "APNIC", msg1)

        sealed = center.store.inspect_for_tests()
        expected_r = bytesum(msg1.Kr, sealed["kc_rho"])
        assert msg2.R == expected_r
        rows = map_indices(IdentityHandle("APNIC", expected_r), 8, 8)
        expected_rho = bytesum(*[center.pub_matrix.entry(rows[c], c) for c in range(8)])
        assert msg2.rho == expected_rho
        partial = bytesum(*[sealed["priv_matrix"].entry(rows[c], c) for c in range(8)])
        assert msg2.rho_prime_masked == bytesum(partial, sealed["reg_secrets"]["APNIC"])

    def test_finalizes_registration_r(self, center):
        register(center, "APNIC")
        _, msg1 = ca_begin(Drbg("ca"))
        _, msg2 = kc_respond(center, "APNIC", msg1)
        assert center.registration_table()["APNIC"].R == msg2.R

    def test_unknown_id(self, center):
        _, msg1 = ca_begin(Drbg("ca"))
        with pytest.raises(StateError):
            kc_respond(center, "GHOST", msg1)

    def test_revoked_id(self, center):
        register(center, "APNIC")
        center.revoke("APNIC")
        _, msg1 = ca_begin(Drbg("ca"))
        with pytest.raises(StateError):
            kc_respond(center, "APNIC", msg1)

    def test_duplicate_keygen_requires_renewal(self, center):
        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca"))
        _, msg1 = ca_begin(Drbg("ca2"))
        with pytest.raises(StateError):
            kc_respond(center, "APNIC", msg1)

    def test_second_respond_needs_renewal(self, center):
        # each respond masks a new private partial with the same registration
        # secret, so two answers would reveal the difference of two partials
        register(center, "APNIC")
        kc_respond(center, "APNIC", ca_begin(Drbg("ca1"))[1])
        with pytest.raises(StateError):
            kc_respond(center, "APNIC", ca_begin(Drbg("ca2"))[1])
        center.renew("APNIC", WINDOW[1])
        assert center.registration_table()["APNIC"].R is None
        run_keygen(center, "APNIC", Drbg("ca3"))

    def test_bad_kr_length(self, center):
        register(center, "APNIC")
        with pytest.raises(ParameterError):
            kc_respond(center, "APNIC", Msg1(Kr=b"\x00" * 31))


class TestCaFinish:
    def test_resulting_keys_sign_and_verify(self, center):
        register(center, "APNIC")
        result = run_keygen(center, "APNIC", Drbg("ca"))
        sig = sign(result.sk, b"payload")
        assert verify(result.pk, b"payload", b"", sig)

    def test_pk_embeds_announced_rho(self, center):
        register(center, "APNIC")
        ca_state, msg1 = ca_begin(Drbg("ca"))
        _, msg2 = kc_respond(center, "APNIC", msg1)
        ca_state, msg3 = ca_finish(ca_state, msg2, center.level)
        _, pk, _ = ca_state.result
        assert decode_rho(pk) == msg2.rho
        assert pk[32:] == msg3.t1
        assert ca_state.phase is CaPhase.FINISHED

    def test_end_to_end_pinned_fixture_is_byte_exact(self):
        # protocol run and a straight-line recomputation from the same seeds
        center_a = make_center(seed="pinned")
        register(center_a, "APNIC", seed="pinned-reg")
        result = run_keygen(center_a, "APNIC", Drbg("pinned-ca"))

        center_b = make_center(seed="pinned")
        register(center_b, "APNIC", seed="pinned-reg")
        sealed = center_b.store.inspect_for_tests()
        ca_rng = Drbg("pinned-ca")
        k_ca, rho_prime_r_ca, r_ca = ca_rng(32), ca_rng(64), ca_rng(32)
        kr = bytesum(k_ca, r_ca)
        r_value = bytesum(kr, sealed["kc_rho"])
        rows = map_indices(IdentityHandle("APNIC", r_value), 8, 8)
        rho = bytesum(*[center_b.pub_matrix.entry(rows[c], c) for c in range(8)])
        partial = bytesum(*[sealed["priv_matrix"].entry(rows[c], c) for c in range(8)])
        rho_prime = bytesum(partial, sealed["reg_secrets"]["APNIC"], rho_prime_r_ca)
        sk, pk = keygen_from_components(L44, rho, rho_prime, k_ca)

        assert result.R == r_value
        assert result.sk == sk
        assert result.pk == pk

    def test_out_of_order_finish(self, center):
        register(center, "APNIC")
        ca_state, msg1 = ca_begin(Drbg("ca"))
        _, msg2 = kc_respond(center, "APNIC", msg1)
        ca_state, _ = ca_finish(ca_state, msg2, center.level)
        with pytest.raises(StateError):
            ca_finish(ca_state, msg2, center.level)


class TestKcCommit:
    def test_agreement_with_resolver(self, enrolled_center):
        center, result = enrolled_center
        file = center.publish_file_pk()
        assert pk_directory.lookup(file, "APNIC") == result.pk
        resolved = pk_resolver.resolve("APNIC", result.R, file)
        assert resolved is not None and resolved.pk == result.pk

    def test_commit_twice_fails(self, center):
        register(center, "APNIC")
        ca_state, msg1 = ca_begin(Drbg("ca"))
        kc_state, msg2 = kc_respond(center, "APNIC", msg1)
        _, msg3 = ca_finish(ca_state, msg2, center.level)
        kc_commit(center, kc_state, msg3)
        assert kc_state.phase is KcPhase.COMMITTED
        with pytest.raises(StateError):
            kc_commit(center, kc_state, msg3)

    def test_bad_t1_length(self, center):
        register(center, "APNIC")
        _, msg1 = ca_begin(Drbg("ca"))
        kc_state, _ = kc_respond(center, "APNIC", msg1)
        with pytest.raises(ParameterError):
            kc_commit(center, kc_state, Msg3(t1=b"\x00" * 100))


class TestSecrecyProperties:
    def test_escrow_freedom(self):
        # the center's complete view lacks rho'_r(CA): rebuilding a key pair
        # from everything it holds must not reproduce the CA's public key
        center = make_center(seed="escrow")
        for i in range(10):
            ident = f"CA{i}"
            register(center, ident, seed=f"reg{i}")
            ca_state, msg1 = ca_begin(Drbg(f"ca{i}"))
            kc_state, msg2 = kc_respond(center, ident, msg1)
            ca_state, msg3 = ca_finish(ca_state, msg2, center.level)
            kc_commit(center, kc_state, msg3)
            _, ca_pk, _ = ca_state.result

            # center-side candidate: masked rho' as-is, Kr standing in for K
            _, kc_guess_pk = keygen_from_components(
                L44, msg2.rho, msg2.rho_prime_masked, msg1.Kr)
            assert kc_guess_pk != ca_pk

    def test_masked_values_differ_across_reruns_with_same_r(self, center):
        # same (id, R) twice, fresh registration secret in between: identical
        # index vectors, different masked private seeds
        register(center, "APNIC")
        _, msg1 = ca_begin(Drbg("fixed-ca"))
        _, msg2_first = kc_respond(center, "APNIC", msg1)
        center.renew("APNIC", WINDOW[1])
        _, msg2_second = kc_respond(center, "APNIC", msg1)
        assert msg2_first.R == msg2_second.R
        assert msg2_first.rho == msg2_second.rho
        assert msg2_first.rho_prime_masked != msg2_second.rho_prime_masked

    def test_final_seeds_differ_under_forced_index_collision(self):
        # adversarial setup on a tiny matrix: two identities sharing one R
        # whose index vectors collide, so their matrix partials are equal
        # byte-for-byte; the per-registration and per-CA randomness must
        # still separate the final private seeds
        from ipkpq.seed_fabric import derive_private_partial

        center = make_center(seed="collide", m=2, h=2)
        sealed = center.store.inspect_for_tests()
        shared_r = b"\x5a" * 32
        base = IdentityHandle("CA0", shared_r)
        target = map_indices(base, 2, 2)
        partner = None
        for i in range(1, 4000):
            cand = IdentityHandle(f"CA{i}", shared_r)
            if map_indices(cand, 2, 2) == target:
                partner = cand
                break
        assert partner is not None, "no index collision found in search budget"

        partial_a = derive_private_partial(base, sealed["priv_matrix"])
        partial_b = derive_private_partial(partner, sealed["priv_matrix"])
        assert partial_a == partial_b  # the collision really is total

        register(center, "CA0", seed="r0")
        register(center, partner.id, seed="r1")
        final_a = bytesum(partial_a, center.store.reg_secret("CA0"),
                          Drbg("ca-a")(64))
        final_b = bytesum(partial_b, center.store.reg_secret(partner.id),
                          Drbg("ca-b")(64))
        assert final_a != final_b


class TestWireFraming:
    @pytest.mark.parametrize("level", [L44, L65])
    def test_round_trip_all_types(self, level):
        t1_len = level.pk_len - 32
        messages = [
            Msg1(Kr=bytes(range(32))),
            Msg2(R=b"\x01" * 32, rho_prime_masked=b"\x02" * 64, rho=b"\x03" * 32),
            Msg3(t1=bytes(t1_len)),
        ]
        for msg in messages:
            frame = encode_frame(msg, level)
            decoded, lvl = decode_frame(frame)
            assert decoded == msg
            assert lvl == level
            assert frame[:4] == b"IPKM"

    def test_malformed_frames(self):
        good = encode_frame(Msg1(Kr=bytes(32)), L44)
        with pytest.raises(DecodeError):
            decode_frame(b"XXXX" + good[4:])
        with pytest.raises(DecodeError):
            decode_frame(good[:8])
        with pytest.raises(DecodeError):
            decode_frame(good[:-1])
        bad_type = bytearray(good)
        bad_type[5] = 9
        with pytest.raises(DecodeError):
            decode_frame(bytes(bad_type))
        bad_level = bytearray(good)
        bad_level[6] = 7
        with pytest.raises(DecodeError):
            decode_frame(bytes(bad_level))

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=32, max_size=32),
           st.binary(min_size=64, max_size=64),
           st.binary(min_size=32, max_size=32))
    def test_msg2_round_trip_property(self, r_value, masked, rho):
        msg = Msg2(R=r_value, rho_prime_masked=masked, rho=rho)
        decoded, _ = decode_frame(encode_frame(msg, L44))
        assert decoded == msg


def test_full_runs_agree_across_levels():
    for level, seed in [(L44, "l44"), (L65, "l65")]:
        center = make_center(seed=seed, level=level)
        register(center, "APNIC", seed=seed)
        result = run_keygen(center, "APNIC", Drbg(seed + "-ca"))
        assert len(result.pk) == level.pk_len
        assert len(result.sk) == level.sk_len
        assert pk_directory.lookup(center.publish_file_pk(), "APNIC") == result.pk
