"""ML-DSA key generation, signing, and verification (FIPS 204).

The nonstandard entry point here is :func:`keygen_from_components`, which
accepts the three internal seeds (rho, rho', K) directly instead of
deriving them from a single 32-byte xi. This is what lets an external
seed-derivation layer control rho and rho' while the signing seed K stays
with the key owner. :func:`keygen` provides the standard single-seed path
and is byte-compatible with other FIPS 204 implementations.

Signing defaults to the deterministic variant (rnd = 0^32) so signatures
are reproducible; pass ``hedged=True`` for the randomized variant.
"""

from __future__ import annotations

import hashlib
import secrets

import numpy as np

from ..errors import DecodeError, ParameterError
from . import encoding, poly, sampling
from .params import (
    D,
    LEVEL_BY_PK_LEN,
    LEVEL_BY_SK_LEN,
    LEVELS,
    MlDsaLevel,
    Q,
)

_MAX_SIGN_ATTEMPTS = 1024


def _check_len(name: str, value: bytes, expect: int) -> bytes:
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise ParameterError(f"{name} must be bytes")
    value = bytes(value)
    if len(value) != expect:
        raise ParameterError(f"{name} must be {expect} bytes, got {len(value)}")
    return value


def level_for_sk(sk: bytes) -> MlDsaLevel:
    try:
        return LEVEL_BY_SK_LEN[len(sk)]
    except KeyError:
        raise DecodeError(f"no ML-DSA level has a {len(sk)}-byte secret key") from None


def level_for_pk(pk: bytes) -> MlDsaLevel:
    try:
        return LEVEL_BY_PK_LEN[len(pk)]
    except KeyError:
        raise DecodeError(f"no ML-DSA level has a {len(pk)}-byte public key") from None


def keygen_from_components(level: MlDsaLevel, rho: bytes, rho_prime: bytes,
                           k_seed: bytes) -> tuple[bytes, bytes]:
    """Build an (sk, pk) pair from externally supplied internal seeds.

    Runs the tail of ML-DSA.KeyGen_internal: A from rho, (s1, s2) from
    rho', t = A s1 + s2, Power2Round, then the standard encodings.
    Deterministic: identical inputs give identical output bytes.
    """
    if level.number not in LEVELS:
        raise ParameterError(f"unknown ML-DSA level {level!r}")
    rho = _check_len("rho", rho, 32)
    rho_prime = _check_len("rho_prime", rho_prime, 64)
    k_seed = _check_len("K", k_seed, 32)

    a_hat = sampling.expand_a(rho, level)
    s1, s2 = sampling.expand_s(rho_prime, level)
    t = (poly.intt(poly.matvec_ntt(a_hat, poly.ntt(s1))) + s2) % Q
    t1, t0 = poly.power2round(t)
    pk = encoding.pk_encode(rho, t1)
    tr = hashlib.shake_256(pk).digest(64)
    sk = encoding.sk_encode(rho, k_seed, tr, s1, s2, t0, level)
    return sk, pk


def expand_keygen_seed(level: MlDsaLevel, xi: bytes) -> tuple[bytes, bytes, bytes]:
    """Standard xi -> (rho, rho', K) expansion: H(xi || k || l, 128)."""
    xi = _check_len("xi", xi, 32)
    blob = hashlib.shake_256(xi + bytes([level.k, level.l])).digest(128)
    return blob[:32], blob[32:96], blob[96:128]


def keygen(level: MlDsaLevel, xi: bytes | None = None) -> tuple[bytes, bytes]:
    """Standard ML-DSA.KeyGen; xi defaults to a fresh CSPRNG draw."""
    if xi is None:
        xi = secrets.token_bytes(32)
    return keygen_from_components(level, *expand_keygen_seed(level, xi))


def decode_rho(pk: bytes) -> bytes:
    """The 32-byte public seed embedded at the head of an encoded public key."""
    level_for_pk(pk)
    return bytes(pk[:32])


def _format_message(msg: bytes, ctx: bytes) -> bytes:
    if len(ctx) > 255:
        raise ParameterError(f"context must be at most 255 bytes, got {len(ctx)}")
    return b"\x00" + bytes([len(ctx)]) + ctx + msg


def sign(sk: bytes, msg: bytes, ctx: bytes = b"", *, hedged: bool = False,
         rnd: bytes | None = None) -> bytes:
    """Pure ML-DSA signature over msg with an optional context string."""
    level = level_for_sk(sk)
    if rnd is None:
        rnd = secrets.token_bytes(32) if hedged else bytes(32)
    rnd = _check_len("rnd", rnd, 32)
    return _sign_internal(level, sk, _format_message(msg, ctx), rnd)


def verify(pk: bytes, msg: bytes, ctx: bytes = b"", sig: bytes = b"") -> bool:
    """Pure ML-DSA verification; malformed pk raises, anything else is False."""
    level = level_for_pk(pk)
    if len(ctx) > 255 or len(sig) != level.sig_len:
        return False
    return _verify_internal(level, pk, _format_message(msg, ctx), sig)


def _sign_internal(level: MlDsaLevel, sk: bytes, m_prime: bytes, rnd: bytes) -> bytes:
    rho, k_seed, tr, s1, s2, t0 = encoding.sk_decode(sk, level)
    s1_hat = poly.ntt(s1)
    s2_hat = poly.ntt(s2)
    t0_hat = poly.ntt(t0 % Q)
    a_hat = sampling.expand_a(rho, level)

    mu = hashlib.shake_256(tr + m_prime).digest(64)
    rho_pp = hashlib.shake_256(k_seed + rnd + mu).digest(64)

    kappa = 0
    for _ in range(_MAX_SIGN_ATTEMPTS):
        y = sampling.expand_mask(rho_pp, kappa, level)
        kappa += level.l
        w = poly.intt(poly.matvec_ntt(a_hat, poly.ntt(y)))
        w1 = poly.high_bits(w, level.gamma2)
        ctilde = hashlib.shake_256(
            mu + encoding.w1_encode(w1, level)
        ).digest(level.ctilde_bytes)
        c_hat = poly.ntt(sampling.sample_in_ball(ctilde, level.tau))

        z = (y + poly.intt(poly.mul_ntt(c_hat, s1_hat))) % Q
        if poly.inf_norm(z) >= level.gamma1 - level.beta:
            continue
        w_cs2 = (w - poly.intt(poly.mul_ntt(c_hat, s2_hat))) % Q
        r0 = poly.low_bits(w_cs2, level.gamma2)
        if int(np.abs(r0).max()) >= level.gamma2 - level.beta:
            continue

        ct0 = poly.intt(poly.mul_ntt(c_hat, t0_hat))
        if poly.inf_norm(ct0) >= level.gamma2:
            continue
        h = poly.make_hint((Q - ct0) % Q, (w_cs2 + ct0) % Q, level.gamma2)
        if int(h.sum()) > level.omega:
            continue
        return encoding.sig_encode(ctilde, z, h, level)

    raise RuntimeError(f"rejection sampling did not converge after "
                       f"{_MAX_SIGN_ATTEMPTS} attempts")


def _verify_internal(level: MlDsaLevel, pk: bytes, m_prime: bytes, sig: bytes) -> bool:
    rho, t1 = encoding.pk_decode(pk, level)
    decoded = encoding.sig_decode(sig, level)
    if decoded is None:
        return False
    ctilde, z, h = decoded
    if poly.inf_norm(z) >= level.gamma1 - level.beta:
        return False

    a_hat = sampling.expand_a(rho, level)
    tr = hashlib.shake_256(pk).digest(64)
    mu = hashlib.shake_256(tr + m_prime).digest(64)
    c_hat = poly.ntt(sampling.sample_in_ball(ctilde, level.tau))

    az = poly.matvec_ntt(a_hat, poly.ntt(z))
    ct1 = poly.mul_ntt(c_hat[None, :], poly.ntt((t1 << D) % Q))
    w_approx = poly.intt((az - ct1) % Q)
    w1 = poly.use_hint(h, w_approx, level.gamma2)
    expected = hashlib.shake_256(
        mu + encoding.w1_encode(w1, level)
    ).digest(level.ctilde_bytes)
    return secrets.compare_digest(ctilde, expected)
