"""Seed-matrix mapping and combination tests.

The index-mapping oracle below recomputes the digest segmentation through
binary-string slicing, a deliberately different technique from the
implementation's integer shifts, and the frozen fixtures were produced
with it once and pinned.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_matrices
from ipkpq.errors import ParameterError
from ipkpq.seed_fabric import (
    IdentityHandle,
    SeedMatrixPriv,
    SeedMatrixPub,
    derive_private_partial,
    derive_public_seed,
    gen_matrices,
    map_indices,
    seed_neg,
    seed_sum,
    validate_dims,
)
from ipkpq.drbg import Drbg


def oracle_indices(ident: str, r_value: bytes, m: int, h: int) -> list[int]:
    digest = hashlib.shake_256(r_value + ident.encode()).digest(32)
    bits = "".join(f"{b:08b}" for b in digest)
    width = 256 // h
    return [int(bits[i * width:(i + 1) * width], 2) % m for i in range(h)]


# frozen once from oracle_indices("APNIC", 0x01*32, ...)
FROZEN_32 = (21, 29, 3, 9, 4, 3, 7, 3, 3, 18, 25, 29, 0, 20, 26, 6,
             13, 15, 31, 17, 9, 31, 17, 13, 25, 16, 0, 8, 6, 23, 22, 7)
FROZEN_4 = (3, 2, 1, 3)
FROZEN_RHO_4 = bytes([0x8D] * 32)
FROZEN_PARTIAL_4 = bytes([0x2A] * 64)

HANDLE = IdentityHandle("APNIC", b"\x01" * 32)


class TestMapIndices:
    def test_frozen_fixture_32(self):
        assert map_indices(HANDLE, 32, 32) == FROZEN_32

    def test_frozen_fixture_4(self):
        assert map_indices(HANDLE, 4, 4) == FROZEN_4

    def test_matches_oracle_across_shapes(self):
        rng = Drbg("shapes")
        for m, h in [(2, 2), (4, 8), (8, 4), (16, 16), (32, 32), (5, 8), (2, 256)]:
            for i in range(5):
                handle = IdentityHandle(f"CA{i}", rng(32))
                assert map_indices(handle, m, h) == tuple(
                    oracle_indices(handle.id, handle.R, m, h))

    def test_deterministic(self):
        assert map_indices(HANDLE, 8, 8) == map_indices(HANDLE, 8, 8)

    def test_m_equals_one_maps_to_row_zero(self):
        assert map_indices(HANDLE, 1, 8) == (0,) * 8

    def test_output_shape(self):
        vec = map_indices(HANDLE, 8, 16)
        assert len(vec) == 16
        assert all(0 <= row < 8 for row in vec)


class TestDimensionRule:
    def test_default_shape_accepted(self):
        validate_dims(32, 32)

    def test_boundary_two_by_256(self):
        validate_dims(2, 256)  # one-bit segments still address two rows

    def test_33_by_32_accepted(self):
        validate_dims(33, 32)  # 33 < 2^8

    def test_row_count_beyond_segment_space_rejected(self):
        with pytest.raises(ParameterError):
            validate_dims(300, 32)  # 300 > 2^8
        with pytest.raises(ParameterError):
            validate_dims(3, 256)

    def test_h_must_divide_256(self):
        with pytest.raises(ParameterError):
            validate_dims(4, 3)

    def test_degenerate_disallowed_for_matrices(self):
        with pytest.raises(ParameterError):
            validate_dims(1, 8)
        validate_dims(1, 8, allow_degenerate=True)


class TestSeedSum:
    def test_identity_element(self):
        x = bytes(range(32))
        assert seed_sum([x, bytes(32)]) == x

    def test_single_operand(self):
        x = bytes(range(64))
        assert seed_sum([x]) == x

    def test_wraparound_without_carry(self):
        a = b"\xff" + bytes(31)
        b = b"\x01" + bytes(31)
        out = seed_sum([a, b])
        assert out[0] == 0x00
        assert out[1:] == bytes(31)  # no carry into the next byte

    def test_negation(self):
        x = bytes(range(1, 33))
        assert seed_sum([x, seed_neg(x)]) == bytes(32)

    def test_errors(self):
        with pytest.raises(ParameterError):
            seed_sum([])
        with pytest.raises(ParameterError):
            seed_sum([bytes(32), bytes(64)])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.binary(min_size=64, max_size=64), min_size=2, max_size=8),
           st.randoms(use_true_random=False))
    def test_order_independent(self, seeds, rnd):
        shuffled = list(seeds)
        rnd.shuffle(shuffled)
        assert seed_sum(seeds) == seed_sum(shuffled)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32),
           st.binary(min_size=32, max_size=32))
    def test_associative(self, a, b, c):
        assert seed_sum([seed_sum([a, b]), c]) == seed_sum([a, seed_sum([b, c])])


class TestDerivation:
    def test_frozen_public_fixture(self):
        _, pub = tiny_matrices()
        assert derive_public_seed(HANDLE, pub) == FROZEN_RHO_4

    def test_frozen_private_fixture(self):
        priv, _ = tiny_matrices()
        assert derive_private_partial(HANDLE, priv) == FROZEN_PARTIAL_4

    def test_zero_matrix_derives_zero(self):
        pub = SeedMatrixPub.from_bytes(4, 4, bytes(32 * 16))
        priv = SeedMatrixPriv.from_bytes(4, 4, bytes(64 * 16))
        for ident in ("APNIC", "APNIC||CNNIC", "x" * 100):
            handle = IdentityHandle(ident, b"\x42" * 32)
            assert derive_public_seed(handle, pub) == bytes(32)
            assert derive_private_partial(handle, priv) == bytes(64)

    def test_shared_index_path(self):
        priv, pub = tiny_matrices()
        rows = map_indices(HANDLE, 4, 4)
        expected_pub = seed_sum([pub.entry(rows[c], c) for c in range(4)])
        expected_priv = seed_sum([priv.entry(rows[c], c) for c in range(4)])
        assert derive_public_seed(HANDLE, pub) == expected_pub
        assert derive_private_partial(HANDLE, priv) == expected_priv

    def test_r_separates_identities(self):
        # distinct R must give distinct rho: no collisions over 1000 trials
        rng = Drbg("collisions")
        _, pub = gen_matrices(8, 8, Drbg("matrix"))
        seen = set()
        for _ in range(1000):
            handle = IdentityHandle("APNIC", rng(32))
            seen.add(derive_public_seed(handle, pub))
        assert len(seen) == 1000


class TestMatrices:
    def test_gen_shapes_and_cell_widths(self):
        priv, pub = gen_matrices(32, 32, Drbg("g"))
        assert (priv.m, priv.h, pub.m, pub.h) == (32, 32, 32, 32)
        assert len(priv.entry(31, 31)) == 64
        assert len(pub.entry(0, 0)) == 32
        assert len(priv.to_bytes()) == 32 * 32 * 64

    def test_private_and_public_are_independent(self):
        priv, pub = gen_matrices(4, 4, Drbg("g2"))
        assert priv.entry(0, 0)[:32] != pub.entry(0, 0)

    def test_round_trip(self):
        priv, pub = gen_matrices(4, 8, Drbg("g3"))
        assert SeedMatrixPub.from_bytes(4, 8, pub.to_bytes()) == pub
        assert SeedMatrixPriv.from_bytes(4, 8, priv.to_bytes()) == priv

    def test_invalid_dims_rejected(self):
        with pytest.raises(ParameterError):
            gen_matrices(300, 32, Drbg("g4"))

    def test_cells_must_be_uint8_of_the_seed_width(self):
        with pytest.raises(ParameterError):
            SeedMatrixPub(np.zeros((4, 4, 64), dtype=np.uint8))
        with pytest.raises(ParameterError):
            SeedMatrixPub(np.zeros((4, 4, 32), dtype=np.int64))
        SeedMatrixPub(np.zeros((4, 4, 32), dtype=np.uint8))

    def test_out_of_range_cell_access(self):
        _, pub = tiny_matrices()
        with pytest.raises(ParameterError):
            pub.entry(4, 0)


class TestIdentityHandle:
    def test_hierarchical_ids_accepted(self):
        IdentityHandle("APNIC||CNNIC||CNXXX", bytes(32))

    def test_empty_component_rejected(self):
        for bad in ("", "||", "A||", "||B", "A||||B"):
            with pytest.raises(ParameterError):
                IdentityHandle(bad, bytes(32))

    def test_oversize_rejected(self):
        with pytest.raises(ParameterError):
            IdentityHandle("x" * 1025, bytes(32))
        IdentityHandle("x" * 1024, bytes(32))

    def test_r_length(self):
        with pytest.raises(ParameterError):
            IdentityHandle("APNIC", bytes(31))
