"""Bit-packing and key/signature byte encodings (FIPS 204 Algorithms 16-28).

Every packer takes a stack of polynomials, an array of shape (..., 256),
and writes them one after another; every unpacker returns the stack of
shape (n, 256) that its byte string holds. A vector field of a key or a
signature is therefore one call, never a loop over its polynomials.
"""

from __future__ import annotations

import numpy as np

from ..errors import DecodeError, ParameterError
from .params import D, MlDsaLevel, N, Q


def bit_pack(coeffs: np.ndarray, bits: int) -> bytes:
    """SimpleBitPack: coefficients in [0, 2^bits), LSB-first bit stream."""
    mat = ((coeffs[..., None] >> np.arange(bits)) & 1).astype(np.uint8)
    return np.packbits(mat.ravel(), bitorder="little").tobytes()


def bit_unpack(data: bytes, bits: int) -> np.ndarray:
    """Inverse of bit_pack; expects a multiple of 32*bits bytes."""
    raw = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    mat = raw.reshape(-1, N, bits).astype(np.int64)
    return mat @ (np.int64(1) << np.arange(bits, dtype=np.int64))


def _pack_mapped(coeffs: np.ndarray, top: int, bits: int) -> bytes:
    # BitPack for ranges [-a, top]: store top - c in `bits` bits
    return bit_pack((top - coeffs) % Q, bits)


def _unpack_mapped(data: bytes, top: int, bits: int) -> np.ndarray:
    return (top - bit_unpack(data, bits)) % Q


def pk_encode(rho: bytes, t1: np.ndarray) -> bytes:
    return rho + bit_pack(t1, 10)


def pk_decode(pk: bytes, level: MlDsaLevel) -> tuple[bytes, np.ndarray]:
    if len(pk) != level.pk_len:
        raise DecodeError(f"public key must be {level.pk_len} bytes, got {len(pk)}")
    return pk[:32], bit_unpack(pk[32:], 10)


def sk_encode(rho: bytes, key: bytes, tr: bytes, s1: np.ndarray, s2: np.ndarray,
              t0: np.ndarray, level: MlDsaLevel) -> bytes:
    return (rho + key + tr
            + _pack_mapped(np.concatenate([s1, s2]), level.eta, level.eta_bits)
            + _pack_mapped(t0, 1 << (D - 1), D))


def sk_decode(sk: bytes, level: MlDsaLevel):
    if len(sk) != level.sk_len:
        raise DecodeError(f"secret key must be {level.sk_len} bytes, got {len(sk)}")
    t0_off = 128 + (level.l + level.k) * N * level.eta_bits // 8
    s = _unpack_mapped(sk[128:t0_off], level.eta, level.eta_bits)
    t0 = _unpack_mapped(sk[t0_off:], 1 << (D - 1), D)
    return sk[:32], sk[32:64], sk[64:128], s[:level.l], s[level.l:], t0


def w1_encode(w1: np.ndarray, level: MlDsaLevel) -> bytes:
    return bit_pack(w1, level.w1_bits)


def hint_pack(h: np.ndarray, level: MlDsaLevel) -> bytes:
    """HintBitPack (Algorithm 20): omega index bytes plus k cumulative counts."""
    buf = np.zeros(level.omega + level.k, dtype=np.uint8)
    cols = np.nonzero(h)[1]  # row-major: increasing within each polynomial
    buf[:cols.shape[0]] = cols
    buf[level.omega:] = np.cumsum(np.count_nonzero(h, axis=1))
    return buf.tobytes()


def hint_unpack(data: bytes, level: MlDsaLevel) -> np.ndarray | None:
    """HintBitUnpack (Algorithm 21); None on any malformed encoding."""
    h = np.zeros((level.k, N), dtype=np.int64)
    idx = 0
    for i in range(level.k):
        end = data[level.omega + i]
        if end < idx or end > level.omega:
            return None
        ones = data[idx:end]
        if any(b <= a for a, b in zip(ones, ones[1:])):
            return None
        h[i, list(ones)] = 1
        idx = end
    if any(data[idx:level.omega]):
        return None
    return h


def sig_encode(ctilde: bytes, z: np.ndarray, h: np.ndarray, level: MlDsaLevel) -> bytes:
    return ctilde + _pack_mapped(z, level.gamma1, level.z_bits) + hint_pack(h, level)


def sig_decode(sig: bytes, level: MlDsaLevel):
    """Returns (ctilde, z, h) or None when the hint region is malformed."""
    if len(sig) != level.sig_len:
        raise ParameterError(f"signature must be {level.sig_len} bytes, got {len(sig)}")
    h_off = level.sig_len - level.omega - level.k
    h = hint_unpack(sig[h_off:], level)
    if h is None:
        return None
    z = _unpack_mapped(sig[level.ctilde_bytes:h_off], level.gamma1, level.z_bits)
    return sig[:level.ctilde_bytes], z, h
