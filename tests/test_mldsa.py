"""Known-answer and property tests for the ML-DSA layer.

The frozen vectors in tests/vectors/mldsa_kat.json were generated with an
independent, ACVP-tested implementation (@noble/post-quantum 0.7.0; see
tools/gen_mldsa_vectors.mjs). Key generation is checked through the
component entry point by splitting each vector's seed expansion exactly
the way the standard single-seed path does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ipkpq.errors import DecodeError, ParameterError
from ipkpq.mldsa import (
    LEVELS,
    decode_rho,
    expand_keygen_seed,
    keygen,
    keygen_from_components,
    level_for_pk,
    level_for_sk,
    sign,
    verify,
)
from ipkpq.mldsa import encoding

LEVEL_IDS = sorted(LEVELS)

EXPECTED_SIZES = {44: (2560, 1312, 2420), 65: (4032, 1952, 3309), 87: (4896, 2592, 4627)}


@pytest.mark.parametrize("num", LEVEL_IDS)
def test_parameter_sizes(num):
    level = LEVELS[num]
    sk_len, pk_len, sig_len = EXPECTED_SIZES[num]
    assert (level.sk_len, level.pk_len, level.sig_len) == (sk_len, pk_len, sig_len)


@pytest.mark.parametrize("num", LEVEL_IDS)
def test_keygen_matches_oracle_vectors(mldsa_kat, num):
    level = LEVELS[num]
    for vec in mldsa_kat["levels"][str(num)]["keygen"]:
        xi = bytes.fromhex(vec["xi"])
        sk, pk = keygen(level, xi)
        assert sk.hex() == vec["sk"], f"sk mismatch for seed {vec['name']}"
        assert pk.hex() == vec["pk"], f"pk mismatch for seed {vec['name']}"


@pytest.mark.parametrize("num", LEVEL_IDS)
def test_components_split_reproduces_oracle_keys(mldsa_kat, num):
    # the vector's internal expansion, fed through the component entry point
    level = LEVELS[num]
    for vec in mldsa_kat["levels"][str(num)]["keygen"]:
        rho, rho_prime, k_seed = expand_keygen_seed(level, bytes.fromhex(vec["xi"]))
        sk, pk = keygen_from_components(level, rho, rho_prime, k_seed)
        assert sk.hex() == vec["sk"]
        assert pk.hex() == vec["pk"]
        assert decode_rho(pk) == rho


@pytest.mark.parametrize("num", LEVEL_IDS)
def test_deterministic_sign_matches_oracle_vectors(mldsa_kat, num):
    level = LEVELS[num]
    for vec in mldsa_kat["levels"][str(num)]["sign"]:
        xi, msg, ctx = (bytes.fromhex(vec[k]) for k in ("xi", "msg", "ctx"))
        sk, pk = keygen(level, xi)
        sig = sign(sk, msg, ctx)
        assert sig.hex() == vec["sig"], f"signature mismatch for {vec['name']}"
        assert verify(pk, msg, ctx, sig)


@pytest.mark.parametrize("num", LEVEL_IDS)
def test_verify_rejects_mutations(mldsa_kat, num):
    level = LEVELS[num]
    vec = mldsa_kat["levels"][str(num)]["sign"][1]
    xi, msg, ctx = (bytes.fromhex(vec[k]) for k in ("xi", "msg", "ctx"))
    _, pk = keygen(level, xi)
    sig = bytes.fromhex(vec["sig"])

    flipped = bytearray(sig)
    flipped[len(sig) // 2] ^= 0x01
    assert not verify(pk, msg, ctx, bytes(flipped))
    assert not verify(pk, msg + b"x", ctx, sig)
    assert not verify(pk, msg, ctx + b"x", sig)
    other_pk = keygen(level, bytes(32))[1]
    assert not verify(other_pk, msg, ctx, sig)
    assert not verify(pk, msg, ctx, sig[:-1])


def test_cross_level_keys_are_incompatible(mldsa_kat):
    sk44, _ = keygen(LEVELS[44], bytes(32))
    _, pk65 = keygen(LEVELS[65], bytes(32))
    sig = sign(sk44, b"m")
    assert not verify(pk65, b"m", b"", sig)


@pytest.mark.parametrize("num", LEVEL_IDS)
def test_keygen_is_deterministic(num):
    level = LEVELS[num]
    rho, rho_prime, k_seed = b"\x11" * 32, b"\x22" * 64, b"\x33" * 32
    first = keygen_from_components(level, rho, rho_prime, k_seed)
    second = keygen_from_components(level, rho, rho_prime, k_seed)
    assert first == second
    assert len(first[0]) == level.sk_len
    assert len(first[1]) == level.pk_len


def test_component_length_validation():
    level = LEVELS[44]
    with pytest.raises(ParameterError):
        keygen_from_components(level, b"\x00" * 31, b"\x00" * 64, b"\x00" * 32)
    with pytest.raises(ParameterError):
        keygen_from_components(level, b"\x00" * 32, b"\x00" * 63, b"\x00" * 32)
    with pytest.raises(ParameterError):
        keygen_from_components(level, b"\x00" * 32, b"\x00" * 64, b"\x00" * 33)


def test_decode_rho_reads_the_embedded_seed():
    level = LEVELS[44]
    rho = bytes(range(32))
    _, pk = keygen_from_components(level, rho, b"\x05" * 64, b"\x06" * 32)
    assert decode_rho(pk) == rho
    with pytest.raises(DecodeError):
        decode_rho(pk[:-1])


def test_level_inference():
    for num in LEVEL_IDS:
        sk, pk = keygen(LEVELS[num], bytes(32))
        assert level_for_sk(sk).number == num
        assert level_for_pk(pk).number == num
    with pytest.raises(DecodeError):
        level_for_sk(b"\x00" * 100)


def test_context_longer_than_255_is_rejected():
    sk, pk = keygen(LEVELS[44], bytes(32))
    with pytest.raises(ParameterError):
        sign(sk, b"m", b"c" * 256)
    assert verify(pk, b"m", b"c" * 256, b"\x00" * LEVELS[44].sig_len) is False


def test_hedged_signatures_differ_but_verify():
    sk, pk = keygen(LEVELS[44], b"\x07" * 32)
    sig_a = sign(sk, b"m", hedged=True)
    sig_b = sign(sk, b"m", hedged=True)
    assert sig_a != sig_b
    assert verify(pk, b"m", b"", sig_a)
    assert verify(pk, b"m", b"", sig_b)
    # explicit rnd pins the hedged variant
    sig_c = sign(sk, b"m", rnd=b"\x09" * 32)
    assert sig_c == sign(sk, b"m", rnd=b"\x09" * 32)


@settings(max_examples=8, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(min_size=64, max_size=64),
       st.binary(min_size=32, max_size=32), st.binary(max_size=64))
def test_component_keys_sign_and_verify(rho, rho_prime, k_seed, msg):
    sk, pk = keygen_from_components(LEVELS[44], rho, rho_prime, k_seed)
    sig = sign(sk, msg)
    assert verify(pk, msg, b"", sig)
    tampered = bytearray(sig)
    tampered[0] ^= 0xFF
    assert not verify(pk, msg, b"", bytes(tampered))


# one field width per packed quantity: eta (3, 4), w1 (6, 4), t1 (10),
# t0 (13), z (18, 20)
PACK_WIDTHS = (3, 4, 6, 10, 13, 18, 20)


def oracle_bit_pack(rows: np.ndarray, bits: int) -> bytes:
    """SimpleBitPack through one Python integer: coefficient i at bit i*bits."""
    acc = 0
    for i, c in enumerate(rows.ravel().tolist()):
        acc |= c << (i * bits)
    return acc.to_bytes(rows.size * bits // 8, "little")


@pytest.mark.parametrize("bits", PACK_WIDTHS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bit_pack_round_trip(bits, data):
    k = data.draw(st.integers(1, 8))
    x = data.draw(arrays(np.int64, (k, 256), elements=st.integers(0, (1 << bits) - 1)))
    packed = encoding.bit_pack(x, bits)
    assert packed == oracle_bit_pack(x, bits)
    unpacked = encoding.bit_unpack(packed, bits)
    assert unpacked.shape == (k, 256)
    assert np.array_equal(unpacked, x)


def _hints(level, indices, counts, padding=b""):
    """A HintBitPack region: index bytes, zero fill to omega, then k counts."""
    return (bytes(indices) + padding).ljust(level.omega, b"\0") + bytes(counts)


# rule -> (level -> (malformed region, the closest well-formed region)).
# Each malformed region breaks only its own rule: without that check it
# would decode to some hint vector.
HINT_RULES = {
    "index_not_increasing": lambda lv: (
        _hints(lv, [3, 3], [2] * lv.k), _hints(lv, [3, 4], [2] * lv.k)),
    "count_goes_backwards": lambda lv: (
        _hints(lv, [0], [1] + [0] * (lv.k - 1)), _hints(lv, [0], [1] * lv.k)),
    "count_above_omega": lambda lv: (
        _hints(lv, range(lv.omega), [lv.omega + 1] * lv.k),
        _hints(lv, range(lv.omega), [lv.omega] * lv.k)),
    "nonzero_padding": lambda lv: (
        _hints(lv, [7], [1] * lv.k, padding=b"\0\x09"), _hints(lv, [7], [1] * lv.k)),
}


@pytest.mark.parametrize("rule", sorted(HINT_RULES))
@pytest.mark.parametrize("num", LEVEL_IDS)
def test_hint_unpack_rejection_rules(mldsa_kat, num, rule):
    level = LEVELS[num]
    vec = mldsa_kat["levels"][str(num)]["sign"][0]
    xi, msg, ctx = (bytes.fromhex(vec[k]) for k in ("xi", "msg", "ctx"))
    _, pk = keygen(level, xi)
    head = bytes.fromhex(vec["sig"])[:level.sig_len - level.omega - level.k]
    bad, good = HINT_RULES[rule](level)
    assert encoding.sig_decode(head + good, level) is not None
    assert encoding.sig_decode(head + bad, level) is None
    assert verify(pk, msg, ctx, head + bad) is False
