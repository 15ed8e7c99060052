import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from ipkpq import pk_directory
from ipkpq.drbg import Drbg
from ipkpq.key_center import KeyCenter, init_center
from ipkpq.keygen_protocol import run_keygen
from ipkpq.mldsa import L44
from ipkpq.seed_fabric import SeedMatrixPriv, SeedMatrixPub

VECTOR_DIR = Path(__file__).parent / "vectors"

NOW = datetime(2027, 1, 1, tzinfo=timezone.utc)
NOW_TS = int(NOW.timestamp())
WINDOW = (NOW - timedelta(days=30), NOW + timedelta(days=365))


@pytest.fixture(scope="session")
def mldsa_kat() -> dict:
    return json.loads((VECTOR_DIR / "mldsa_kat.json").read_text())


def make_center(seed: str = "center", m: int = 8, h: int = 8, level=L44) -> KeyCenter:
    return init_center(m, h, level, Drbg(seed))


def register(center: KeyCenter, id_: str, seed: str = "reg") -> None:
    center.register(id_.rsplit("||", 1)[-1], id_, WINDOW[0], WINDOW[1], Drbg(seed))


@pytest.fixture()
def center() -> KeyCenter:
    return make_center()


@pytest.fixture()
def enrolled_center():
    """Center with one completed key generation for id 'APNIC'."""
    c = make_center()
    register(c, "APNIC")
    result = run_keygen(c, "APNIC", Drbg("ca"))
    return c, result


def tiny_matrices(m: int = 4, h: int = 4):
    """Fixed small matrices with byte-patterned cells, for hand-checkable sums."""
    priv = SeedMatrixPriv.from_bytes(m, h, b"".join(
        bytes([(r * h + c) % 251] * 64) for r in range(m) for c in range(h)))
    pub = SeedMatrixPub.from_bytes(m, h, b"".join(
        bytes([(7 * r + 13 * c) % 251] * 32) for r in range(m) for c in range(h)))
    return priv, pub


def scan_lookup(file: bytes, id_: str) -> bytes | None:
    """Reference answer for an index: the pk of id's last record in a full read."""
    found = None
    for _, rec_id, pk in pk_directory.iter_records(file):
        if rec_id == id_:
            found = pk
    return found
