"""Two-party collaborative key generation between a CA and the key center.

Three framed messages complete one run:

    CA  -> KC   Msg1 { Kr }                    Kr masks the CA's signing seed
    KC  -> CA   Msg2 { R, rho'_masked, rho }   R binds the identity; rho' is
                                               already masked by the center's
                                               per-registration secret
    CA  -> KC   Msg3 { t1 }                    packed public vector, letting
                                               the center encode and publish pk

Neither side ever holds the other's blinding values: the center never sees
K_ca or rho'_r(CA), and the CA never sees the raw matrix combination or
rho'_r(KC). Both end with the same public key; only the CA can build the
secret key. Each side is a small phase machine that rejects out-of-order
messages.

Wire framing (for runs over a byte stream):
    "IPKM" | version u8=1 | msg_type u8 in {1,2,3} | level u8 (category) |
    body_len u32 BE | body, with bodies the fixed-width field concatenations.
"""

from __future__ import annotations

import enum
import secrets
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DecodeError, ParameterError, StateError
from .mldsa import keygen_from_components
from .mldsa.params import LEVEL_BY_CATEGORY, MlDsaLevel
from .seed_fabric import (
    EntropySource,
    IdentityHandle,
    derive_private_partial,
    derive_public_seed,
    seed_sum,
)

if TYPE_CHECKING:  # key_center imports rpki_objects, which imports this module
    from .key_center import KeyCenter

MAGIC = b"IPKM"
VERSION = 1


@dataclass(frozen=True)
class Msg1:
    Kr: bytes

    TYPE = 1

    def body(self) -> bytes:
        return self.Kr


@dataclass(frozen=True)
class Msg2:
    R: bytes
    rho_prime_masked: bytes
    rho: bytes

    TYPE = 2

    def body(self) -> bytes:
        return self.R + self.rho_prime_masked + self.rho


@dataclass(frozen=True)
class Msg3:
    t1: bytes

    TYPE = 3

    def body(self) -> bytes:
        return self.t1


def encode_frame(msg: Msg1 | Msg2 | Msg3, level: MlDsaLevel) -> bytes:
    body = msg.body()
    return MAGIC + struct.pack(">BBBI", VERSION, msg.TYPE, level.category, len(body)) + body


def decode_frame(data: bytes) -> tuple[Msg1 | Msg2 | Msg3, MlDsaLevel]:
    if len(data) < 11:
        raise DecodeError("frame shorter than the fixed header", offset=len(data))
    if data[:4] != MAGIC:
        raise DecodeError(f"bad magic {data[:4]!r}", offset=0)
    version, msg_type, category, body_len = struct.unpack(">BBBI", data[4:11])
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}", offset=4)
    if category not in LEVEL_BY_CATEGORY:
        raise DecodeError(f"unknown level tag {category}", offset=6)
    level = LEVEL_BY_CATEGORY[category]
    body = data[11:]
    if len(body) != body_len:
        raise DecodeError(f"body length {len(body)} != declared {body_len}", offset=7)
    t1_len = level.pk_len - 32
    expected = {1: 32, 2: 128, 3: t1_len}
    if msg_type not in expected:
        raise DecodeError(f"unknown message type {msg_type}", offset=5)
    if body_len != expected[msg_type]:
        raise DecodeError(
            f"message type {msg_type} needs a {expected[msg_type]}-byte body, "
            f"got {body_len}", offset=7)
    if msg_type == 1:
        return Msg1(body), level
    if msg_type == 2:
        return Msg2(body[:32], body[32:96], body[96:128]), level
    return Msg3(body), level


class CaPhase(enum.Enum):
    STARTED = "started"
    FINISHED = "finished"


class KcPhase(enum.Enum):
    RESPONDED = "responded"
    COMMITTED = "committed"


@dataclass
class CaKeygenState:
    """CA-side secrets; K_ca, rho'_r(CA), and r_ca never leave this object."""

    K_ca: bytes
    rho_prime_r_ca: bytes
    r_ca: bytes
    phase: CaPhase = CaPhase.STARTED
    result: tuple[bytes, bytes, bytes] | None = None  # (sk, pk, R)


@dataclass
class KcKeygenState:
    id: str
    rho: bytes
    phase: KcPhase = KcPhase.RESPONDED


def ca_begin(rng: EntropySource = secrets.token_bytes) -> tuple[CaKeygenState, Msg1]:
    """Draw the CA-side secrets and blind the signing seed into Kr."""
    state = CaKeygenState(K_ca=rng(32), rho_prime_r_ca=rng(64), r_ca=rng(32))
    return state, Msg1(Kr=seed_sum([state.K_ca, state.r_ca]))


def kc_respond(center: KeyCenter, id_: str, msg1: Msg1,
               ) -> tuple[KcKeygenState, Msg2]:
    """Derive the identity-bound seeds and answer with the masked private part."""
    if len(msg1.Kr) != 32:
        raise ParameterError(f"Kr must be 32 bytes, got {len(msg1.Kr)}")
    center.keygen_allowed(id_)
    r_value = seed_sum([msg1.Kr, center.store.kc_rho])
    handle = IdentityHandle(id_, r_value)
    rho = derive_public_seed(handle, center.pub_matrix)
    partial = derive_private_partial(handle, center.store.priv_matrix)
    masked = seed_sum([partial, center.store.reg_secret(id_)])
    center.finalize_r(id_, r_value)
    state = KcKeygenState(id=id_, rho=rho)
    return state, Msg2(R=r_value, rho_prime_masked=masked, rho=rho)


def ca_finish(state: CaKeygenState, msg2: Msg2, level: MlDsaLevel,
              ) -> tuple[CaKeygenState, Msg3]:
    """Unmask rho', run the key math, and hand the packed t1 back."""
    if state.phase is not CaPhase.STARTED:
        raise StateError(f"ca_finish in phase {state.phase.value}")
    if len(msg2.R) != 32 or len(msg2.rho) != 32 or len(msg2.rho_prime_masked) != 64:
        raise ParameterError("malformed Msg2 field lengths")
    rho_prime = seed_sum([msg2.rho_prime_masked, state.rho_prime_r_ca])
    sk, pk = keygen_from_components(level, msg2.rho, rho_prime, state.K_ca)
    state.result = (sk, pk, msg2.R)
    state.phase = CaPhase.FINISHED
    return state, Msg3(t1=pk[32:])


def kc_commit(center: KeyCenter, state: KcKeygenState, msg3: Msg3) -> None:
    """Encode pk from (rho, t1) and append it to File_PK under the id."""
    if state.phase is not KcPhase.RESPONDED:
        raise StateError(f"kc_commit in phase {state.phase.value}")
    expected = center.level.pk_len - 32
    if len(msg3.t1) != expected:
        raise ParameterError(f"t1 must be {expected} bytes, got {len(msg3.t1)}")
    pk = state.rho + msg3.t1
    center.commit_pk(state.id, pk)
    state.phase = KcPhase.COMMITTED


@dataclass(frozen=True)
class KeygenResult:
    id: str
    R: bytes
    sk: bytes
    pk: bytes


def run_keygen(center: KeyCenter, id_: str,
               rng: EntropySource = secrets.token_bytes) -> KeygenResult:
    """Drive one full in-process protocol run for a registered id."""
    ca_state, msg1 = ca_begin(rng)
    kc_state, msg2 = kc_respond(center, id_, msg1)
    ca_state, msg3 = ca_finish(ca_state, msg2, center.level)
    kc_commit(center, kc_state, msg3)
    sk, pk, r_value = ca_state.result
    return KeygenResult(id=id_, R=r_value, sk=sk, pk=pk)
