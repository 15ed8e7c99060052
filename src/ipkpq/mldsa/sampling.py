"""SHAKE-driven samplers for ML-DSA (FIPS 204 Algorithms 29-34).

Rejection streams are squeezed in bulk and filtered with numpy; the XOF
prefix property of SHAKE makes re-squeezing a longer digest equivalent to
continuing the stream, so the rare shortfall path just extends the buffer.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .encoding import bit_unpack
from .params import MlDsaLevel, N, Q


def _rej_ntt_poly(seed: bytes) -> np.ndarray:
    """Uniform NTT-domain polynomial via 3-byte rejection (Algorithm 30)."""
    xof = hashlib.shake_128(seed)
    need = 3 * 320
    while True:
        buf = np.frombuffer(xof.digest(need), dtype=np.uint8).astype(np.int64)
        cand = buf[0::3] | (buf[1::3] << 8) | ((buf[2::3] & 0x7F) << 16)
        cand = cand[cand < Q]
        if cand.shape[0] >= N:
            return cand[:N]
        need += 3 * 64


def expand_a(rho: bytes, level: MlDsaLevel) -> np.ndarray:
    """Matrix A_hat of shape (k, l, 256) from the public seed (Algorithm 32)."""
    rows = [
        [_rej_ntt_poly(rho + bytes([s, r])) for s in range(level.l)]
        for r in range(level.k)
    ]
    return np.array(rows, dtype=np.int64)


def _rej_bounded_poly(seed: bytes, nonce: int, eta: int) -> np.ndarray:
    """Polynomial with coefficients in [-eta, eta] via nibble rejection (Algorithm 33)."""
    xof = hashlib.shake_256(seed + struct.pack("<H", nonce))
    need = 384
    while True:
        buf = np.frombuffer(xof.digest(need), dtype=np.uint8).astype(np.int64)
        nib = np.empty(2 * buf.shape[0], dtype=np.int64)
        nib[0::2] = buf & 0x0F
        nib[1::2] = buf >> 4
        if eta == 2:
            kept = nib[nib < 15]
            coeffs = (2 - (kept % 5)) % Q
        else:  # eta == 4
            kept = nib[nib < 9]
            coeffs = (4 - kept) % Q
        if coeffs.shape[0] >= N:
            return coeffs[:N]
        need += 128


def expand_s(rho_prime: bytes, level: MlDsaLevel) -> tuple[np.ndarray, np.ndarray]:
    """Secret vectors (s1, s2) of shapes (l, 256) and (k, 256) (Algorithm 33)."""
    s1 = np.stack([_rej_bounded_poly(rho_prime, r, level.eta) for r in range(level.l)])
    s2 = np.stack([
        _rej_bounded_poly(rho_prime, level.l + r, level.eta) for r in range(level.k)
    ])
    return s1, s2


def expand_mask(rho_pp: bytes, kappa: int, level: MlDsaLevel) -> np.ndarray:
    """Masking vector y of shape (l, 256) with coefficients in (-gamma1, gamma1]."""
    c = level.z_bits
    v = b"".join(hashlib.shake_256(rho_pp + struct.pack("<H", kappa + j)).digest(32 * c)
                 for j in range(level.l))
    return (level.gamma1 - bit_unpack(v, c)) % Q


def sample_in_ball(ctilde: bytes, tau: int) -> np.ndarray:
    """Challenge polynomial with tau nonzero +-1 coefficients (Algorithm 29)."""
    xof = hashlib.shake_256(ctilde)
    need = 8 + 2 * tau
    buf = xof.digest(need)
    sign_bits = int.from_bytes(buf[:8], "little")
    c = np.zeros(N, dtype=np.int64)
    pos = 8
    for i in range(N - tau, N):
        while True:
            if pos >= len(buf):
                need += 64
                buf = xof.digest(need)
            j = buf[pos]
            pos += 1
            if j <= i:
                break
        c[i] = c[j]
        c[j] = 1 if (sign_bits & 1) == 0 else Q - 1
        sign_bits >>= 1
    return c
