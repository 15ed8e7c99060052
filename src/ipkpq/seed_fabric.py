"""Seed matrices and the identity-to-seed derivation.

A key center keeps a private m x h grid of 64-byte seeds and publishes a
matching grid of 32-byte seeds. An identity (hierarchical name plus its
32-byte accompanying key R) maps deterministically to one cell per column
via a keyed SHAKE256 digest; the selected cells are combined byte-wise to
produce that identity's seed. Public retrieval and the key center's
private retrieval share the same index mapping, so the derived public
seed rho and the private partial seed rho' always align.

Index mapping: digest = SHAKE256(R || id-bytes, 32). The 256 digest bits
are read big-endian, left to right, in h equal segments of 256/h bits;
segment i taken mod m is the row selected for column i.

Seed combination is byte-wise addition mod 256 (no carries), which is
commutative, associative, and has the all-zero string as identity. A
matrix holds its cells as one (m, h, width) uint8 array, so combining the
selected cells is one uint8 sum over the column axis, whose wraparound is
exactly this addition.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

EntropySource = Callable[[int], bytes]

MAX_ID_BYTES = 1024
ID_SEPARATOR = "||"


def validate_dims(m: int, h: int, *, allow_degenerate: bool = False) -> None:
    """Dimension rule: h | 256 and m <= 2^(256/h); matrices also need m, h >= 2."""
    floor = 1 if allow_degenerate else 2
    if h < floor or 256 % h != 0:
        raise ParameterError(f"h must divide 256 and be >= {floor}, got {h}")
    seg_bits = 256 // h
    if m < floor:
        raise ParameterError(f"m must be >= {floor}, got {m}")
    if m > (1 << seg_bits):
        raise ParameterError(
            f"m={m} exceeds 2^{seg_bits}, the address space of one {seg_bits}-bit segment"
        )


def validate_identity(id_: str) -> bytes:
    """Hierarchical id: non-empty ||-joined components, at most 1024 bytes."""
    raw = id_.encode("utf-8")
    if not raw:
        raise ParameterError("identity must be non-empty")
    if len(raw) > MAX_ID_BYTES:
        raise ParameterError(f"identity exceeds {MAX_ID_BYTES} bytes")
    if any(not part for part in id_.split(ID_SEPARATOR)):
        raise ParameterError(f"identity {id_!r} has an empty component")
    return raw


@dataclass(frozen=True)
class IdentityHandle:
    """The explicit public key of a participant: (id, accompanying key R)."""

    id: str
    R: bytes

    def __post_init__(self):
        validate_identity(self.id)
        if len(self.R) != 32:
            raise ParameterError(f"R must be 32 bytes, got {len(self.R)}")

    @property
    def id_bytes(self) -> bytes:
        return self.id.encode("utf-8")


class _SeedMatrix:
    """Immutable m x h grid of fixed-width seeds: one (m, h, seed_len) uint8 array."""

    seed_len: int = 0

    def __init__(self, cells: np.ndarray):
        if cells.dtype != np.uint8 or cells.ndim != 3 or cells.shape[2] != self.seed_len:
            raise ParameterError(
                f"cells must be a uint8 array of shape (m, h, {self.seed_len})")
        self.m, self.h = cells.shape[:2]
        validate_dims(self.m, self.h)
        self.cells = cells.copy()
        self.cells.flags.writeable = False

    def entry(self, row: int, col: int) -> bytes:
        if not (0 <= row < self.m and 0 <= col < self.h):
            raise ParameterError(f"cell ({row}, {col}) outside {self.m}x{self.h}")
        return self.cells[row, col].tobytes()

    def to_bytes(self) -> bytes:
        return self.cells.tobytes()

    @classmethod
    def from_bytes(cls, m: int, h: int, blob: bytes):
        width = cls.seed_len
        if len(blob) != m * h * width:
            raise ParameterError(
                f"matrix blob must be {m * h * width} bytes, got {len(blob)}")
        return cls(np.frombuffer(blob, dtype=np.uint8).reshape(m, h, width))

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and np.array_equal(self.cells, other.cells)

    def __hash__(self):
        return hash((type(self), self.cells.shape, self.to_bytes()))


class SeedMatrixPriv(_SeedMatrix):
    seed_len = 64


class SeedMatrixPub(_SeedMatrix):
    seed_len = 32


def gen_matrices(m: int, h: int,
                 rng: EntropySource = secrets.token_bytes
                 ) -> tuple[SeedMatrixPriv, SeedMatrixPub]:
    """Sample independent private (64B cells) and public (32B cells) matrices."""
    validate_dims(m, h)
    priv = SeedMatrixPriv.from_bytes(m, h, rng(m * h * 64))
    pub = SeedMatrixPub.from_bytes(m, h, rng(m * h * 32))
    return priv, pub


def map_indices(handle: IdentityHandle, m: int, h: int) -> tuple[int, ...]:
    """Row index per column for this identity; shared by public and private retrieval."""
    validate_dims(m, h, allow_degenerate=True)
    digest = hashlib.shake_256(handle.R + handle.id_bytes).digest(32)
    value = int.from_bytes(digest, "big")
    seg_bits = 256 // h
    mask = (1 << seg_bits) - 1
    return tuple(
        ((value >> (256 - (i + 1) * seg_bits)) & mask) % m for i in range(h)
    )


def seed_sum(seeds: Sequence[bytes]) -> bytes:
    """Byte-wise sum mod 256 of equal-length strings; no carry propagation."""
    if not seeds:
        raise ParameterError("seed_sum needs at least one operand")
    width = len(seeds[0])
    for s in seeds:
        if len(s) != width:
            raise ParameterError(
                f"seed_sum operands must share a length ({width} vs {len(s)})")
    stack = np.frombuffer(b"".join(seeds), dtype=np.uint8).reshape(len(seeds), width)
    return stack.sum(axis=0, dtype=np.uint8).tobytes()


def seed_neg(seed: bytes) -> bytes:
    """Byte-wise additive inverse: seed_sum([x, seed_neg(x)]) is all zeros."""
    return np.negative(np.frombuffer(seed, dtype=np.uint8)).tobytes()


def _derive(handle: IdentityHandle, mat: _SeedMatrix) -> bytes:
    rows = map_indices(handle, mat.m, mat.h)
    return mat.cells[rows, np.arange(mat.h)].sum(axis=0, dtype=np.uint8).tobytes()


def derive_public_seed(handle: IdentityHandle, mat: SeedMatrixPub) -> bytes:
    """rho for an identity: combined public-matrix cells along its index vector."""
    return _derive(handle, mat)


def derive_private_partial(handle: IdentityHandle, mat: SeedMatrixPriv) -> bytes:
    """Partial rho' before any registration randomness is folded in."""
    return _derive(handle, mat)
