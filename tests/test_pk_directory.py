"""Directory-file format: exact layout, append-only behavior, index, fuzzing."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scan_lookup
from ipkpq.drbg import Drbg
from ipkpq.errors import DecodeError, ParameterError
from ipkpq.mldsa.params import L44, L65
from ipkpq.pk_directory import (
    Directory,
    FilePkHeader,
    append_record,
    create,
    decode_header,
    extract_matrix,
    iter_records,
    lookup,
)
from ipkpq.seed_fabric import gen_matrices


def make_file(m=4, h=4, level=L44, seed="dir"):
    _, pub = gen_matrices(m, h, Drbg(seed))
    return create(FilePkHeader(level, m, h), pub), pub


def fake_pk(level, tag: int) -> bytes:
    return bytes([tag]) * level.pk_len


class TestCreate:
    def test_default_shape_size(self):
        file, _ = make_file(32, 32)
        assert len(file) == 4 + 1 + 1 + 2 + 2 + 32 * 32 * 32 == 32778

    def test_matrix_round_trip(self):
        file, pub = make_file()
        assert extract_matrix(file) == pub

    def test_dimension_mismatch(self):
        _, pub = make_file()
        with pytest.raises(ParameterError):
            create(FilePkHeader(L44, 8, 8), pub)

    def test_header_fields(self):
        file, _ = make_file(4, 8, L65)
        header = decode_header(file)
        assert (header.level, header.m, header.h) == (L65, 4, 8)
        assert file[:4] == b"IPKQ"
        assert file[5] == 3  # category byte for ML-DSA-65

    def test_matrix_bytes_at_computed_offsets(self):
        file, pub = make_file()
        for row in range(4):
            for col in range(4):
                off = 10 + (row * 4 + col) * 32
                assert file[off:off + 32] == pub.entry(row, col)


class TestAppendLookup:
    def test_append_then_lookup(self):
        file, _ = make_file()
        pk = fake_pk(L44, 1)
        file = append_record(file, "APNIC", pk)
        assert lookup(file, "APNIC") == pk
        assert lookup(file, "OTHER") is None

    def test_last_record_wins(self):
        file, _ = make_file()
        file = append_record(file, "APNIC", fake_pk(L44, 1))
        file = append_record(file, "APNIC", fake_pk(L44, 2))
        assert lookup(file, "APNIC") == fake_pk(L44, 2)

    def test_append_preserves_prefix(self):
        file, _ = make_file()
        file = append_record(file, "A", fake_pk(L44, 1))
        before = hashlib.sha256(file).hexdigest()
        longer = append_record(file, "B", fake_pk(L44, 2))
        assert hashlib.sha256(longer[:len(file)]).hexdigest() == before

    def test_append_only_over_sequences(self):
        file, _ = make_file()
        snapshots = [file]
        for i in range(5):
            file = append_record(file, f"CA{i % 2}", fake_pk(L44, i))
            snapshots.append(file)
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later[:len(earlier)] == earlier

    def test_id_and_pk_validation(self):
        file, _ = make_file()
        with pytest.raises(ParameterError):
            append_record(file, "x" * 1025, fake_pk(L44, 1))
        with pytest.raises(ParameterError):
            append_record(file, "", fake_pk(L44, 1))
        with pytest.raises(ParameterError):
            append_record(file, "APNIC", b"\x00" * (L44.pk_len - 1))

    def test_three_records_query_middle(self):
        file, _ = make_file()
        for i, name in enumerate(["A", "B", "C"]):
            file = append_record(file, name, fake_pk(L44, i))
        assert lookup(file, "B") == fake_pk(L44, 1)
        assert len(list(iter_records(file))) == 3

    def test_lookup_equals_naive_scan(self):
        file, _ = make_file()
        rng = Drbg("scan")
        names = [f"CA{i % 7}" for i in range(30)]
        expected = {}
        for i, name in enumerate(names):
            pk = bytes([i]) * L44.pk_len
            file = append_record(file, name, pk)
            expected[name] = pk  # naive last-match semantics
        for name in set(names) | {"missing"}:
            assert lookup(file, name) == expected.get(name)


class TestCorruption:
    def test_bad_magic(self):
        file, _ = make_file()
        with pytest.raises(DecodeError) as err:
            decode_header(b"XXXX" + file[4:])
        assert err.value.offset == 0

    def test_bad_version_and_level(self):
        file, _ = make_file()
        with pytest.raises(DecodeError):
            decode_header(file[:4] + b"\x09" + file[5:])
        with pytest.raises(DecodeError):
            decode_header(file[:5] + b"\x09" + file[6:])

    def test_truncations_always_raise_with_offset(self):
        file, _ = make_file(2, 2)
        file = append_record(file, "APNIC", fake_pk(L44, 1))
        file = append_record(file, "CNNIC", fake_pk(L44, 2))
        full_len = len(file)
        # a cut at a record boundary is a well-formed shorter file; every
        # other prefix must fail with a structured error carrying an offset
        region_start = 10 + 2 * 2 * 32
        boundaries = {region_start}
        pos = region_start
        for _, rid, _pk in iter_records(file):
            pos += 2 + len(rid.encode()) + L44.pk_len
            boundaries.add(pos)
        step = 97  # sample offsets densely but affordably
        offsets = (set(range(0, full_len, step)) | {full_len - 1, 10, 9, 3}) - boundaries
        for cut in sorted(offsets):
            truncated = file[:cut]
            with pytest.raises(DecodeError) as err:
                extract_matrix(truncated)
                list(iter_records(truncated))
            assert err.value.offset is not None

    def test_truncated_final_record_names_offset(self):
        file, _ = make_file()
        start = len(file)
        file = append_record(file, "APNIC", fake_pk(L44, 1))
        with pytest.raises(DecodeError) as err:
            list(iter_records(file[:-3]))
        assert err.value.offset == start

    def test_zero_length_id_in_record_region(self):
        file, _ = make_file()
        corrupt = file + b"\x00\x00" + fake_pk(L44, 1)
        with pytest.raises(DecodeError):
            list(iter_records(corrupt))


ids = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
              min_size=1, max_size=24)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(ids, st.integers(0, 255)), max_size=8), st.data())
def test_round_trip_property(records, data):
    file, pub = make_file(2, 2, seed="prop")
    for name, tag in records:
        file = append_record(file, name, bytes([tag]) * L44.pk_len)
    parsed = [(rid, pk) for _, rid, pk in iter_records(file)]
    assert parsed == [(name, bytes([tag]) * L44.pk_len) for name, tag in records]
    assert extract_matrix(file) == pub
    if records:
        name, tag = data.draw(st.sampled_from(records))
        last = max(i for i, (n, _) in enumerate(records) if n == name)
        assert lookup(file, name) == bytes([records[last][1]]) * L44.pk_len


POOL = ["A", "B", "APNIC", "é", "CA||x"]  # few ids, so renewals are common


def with_records(file, *records):
    for name, tag in records:
        file = append_record(file, name, fake_pk(L44, tag))
    return file


def live(file):
    """A Directory over a provider whose file the test swaps through box[0]."""
    box = [file]
    return box, Directory(lambda: box[0])


def assert_matches_scan(directory, file):
    for name in POOL + ["absent"]:
        assert lookup(directory, name) == scan_lookup(file, name)


class TestIndex:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(POOL), st.integers(0, 255)), max_size=12))
    def test_indexed_lookup_equals_scan_after_every_append(self, appends):
        file, _ = make_file(2, 2, seed="index")
        grown = bytearray(file)  # grows in place, published as snapshots
        box, directory = live(file)
        assert_matches_scan(directory, file)
        for name, tag in appends:
            append_record(grown, name, fake_pk(L44, tag))
            box[0] = bytes(grown)
            assert_matches_scan(directory, box[0])

    @pytest.mark.parametrize("change", ["rewrite-earlier", "truncate", "other-center"])
    def test_file_that_does_not_extend_the_indexed_one_is_read_whole(self, change):
        file = with_records(make_file(2, 2, seed="index")[0], ("A", 1), ("B", 2), ("A", 3))
        box, directory = live(file)
        assert_matches_scan(directory, file)
        last = len(file) - (3 + L44.pk_len)  # offset of the record ("A", 3)
        box[0] = {
            # same length: the last record now says ("B", 9), so A is back at 1
            "rewrite-earlier": file[:last + 2] + b"B" + fake_pk(L44, 9),
            "truncate": file[:last],
            "other-center": with_records(make_file(2, 2, seed="other")[0], ("B", 7)),
        }[change]
        assert_matches_scan(directory, box[0])

    @pytest.mark.parametrize("cut", ["truncated-payload", "zero-id-length"])
    def test_corrupt_tail_raises_on_this_lookup_and_the_next(self, cut):
        file = with_records(make_file(2, 2, seed="index")[0], ("A", 1))
        box, directory = live(file)
        assert lookup(directory, "A") == fake_pk(L44, 1)
        box[0] = {
            "truncated-payload": append_record(file, "B", fake_pk(L44, 2))[:-3],
            "zero-id-length": file + b"\x00\x00" + fake_pk(L44, 2),
        }[cut]
        with pytest.raises(DecodeError) as scanned:
            list(iter_records(box[0]))
        assert scanned.value.offset == len(file)
        for _ in range(2):
            with pytest.raises(DecodeError) as err:
                lookup(directory, "A")
            assert err.value.offset == scanned.value.offset
        box[0] = with_records(file, ("B", 2))  # mended
        assert_matches_scan(directory, box[0])
