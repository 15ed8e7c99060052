"""Key-center lifecycle: sealed storage, registration log, File_PK upkeep."""

import json
import os
import stat
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WINDOW, register
from ipkpq import pk_directory, pk_resolver
from ipkpq.drbg import Drbg
from ipkpq.errors import ConflictError, DecodeError, ParameterError, StateError
from ipkpq.key_center import (
    KeyCenter,
    NO_RESOURCES,
    STATUS_ACTIVE,
    STATUS_REGISTERED,
    STATUS_RENEWING,
    STATUS_REVOKED,
    init_center,
    parse_log,
)
from ipkpq.keygen_protocol import run_keygen
from ipkpq.mldsa import L44
from ipkpq.rpki_objects import InrSet


class TestInit:
    def test_default_shape_yields_full_matrix_and_no_records(self):
        center = init_center(32, 32, L44, Drbg("init32"))
        file = center.publish_file_pk()
        header = pk_directory.decode_header(file)
        assert (header.m, header.h) == (32, 32)
        assert header.matrix_len == 1024 * 32
        assert len(list(pk_directory.iter_records(file))) == 0

    def test_published_matrix_matches_generated(self, center):
        file = center.publish_file_pk()
        assert pk_directory.extract_matrix(file) == center.pub_matrix
        assert center.pub_matrix.to_bytes() in bytes(file)


class TestRegistration:
    def test_register_creates_placeholder_record(self, center):
        record = center.register("APNIC", "APNIC", *WINDOW)
        assert record.R is None
        assert record.status == STATUS_REGISTERED
        assert center.registration_table()["APNIC"] == record

    def test_duplicate_active_id_conflicts(self, center):
        register(center, "APNIC")
        with pytest.raises(ConflictError):
            register(center, "APNIC")

    def test_invalid_period(self, center):
        with pytest.raises(ParameterError):
            center.register("A", "A", WINDOW[1], WINDOW[0])

    def test_registration_secrets_are_distinct(self, center):
        register(center, "A", seed="r1")
        register(center, "B", seed="r2")
        secrets = center.store.inspect_for_tests()["reg_secrets"]
        assert len(secrets["A"]) == 64
        assert secrets["A"] != secrets["B"]

    def test_registration_secrets_pairwise_distinct_at_scale(self, center):
        for i in range(50):
            register(center, f"CA{i}", seed=f"bulk{i}")
        secrets = center.store.inspect_for_tests()["reg_secrets"].values()
        assert len(set(secrets)) == 50

    def test_reregistration_after_revocation(self, center):
        register(center, "APNIC")
        center.revoke("APNIC")
        register(center, "APNIC", seed="second")  # allowed again

    def test_unknown_id_operations(self, center):
        with pytest.raises(StateError):
            center.revoke("GHOST")
        with pytest.raises(StateError):
            center.renew("GHOST", WINDOW[1])


class TestRenewRevoke:
    def test_renew_draws_fresh_secret_and_opens_rekey(self, center):
        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca1"))
        old_secret = center.store.inspect_for_tests()["reg_secrets"]["APNIC"]
        renewed = center.renew("APNIC", WINDOW[1] + timedelta(days=365))
        assert renewed.status == STATUS_RENEWING
        new_secret = center.store.inspect_for_tests()["reg_secrets"]["APNIC"]
        assert new_secret != old_secret

    def test_renew_supersedes_file_pk_record(self, center):
        register(center, "APNIC")
        first = run_keygen(center, "APNIC", Drbg("ca1"))
        center.renew("APNIC", WINDOW[1] + timedelta(days=30))
        second = run_keygen(center, "APNIC", Drbg("ca2"))
        file = center.publish_file_pk()
        # append-only, both present
        assert len(list(pk_directory.iter_records(file))) == 2
        assert pk_directory.lookup(file, "APNIC") == second.pk  # newest wins
        # the superseded accompanying key no longer resolves
        assert pk_resolver.resolve("APNIC", first.R, file) is None
        assert pk_resolver.resolve("APNIC", second.R, file).pk == second.pk

    def test_revoked_record_status(self, center):
        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca1"))
        revoked = center.revoke("APNIC")
        assert revoked.status == STATUS_REVOKED
        assert center.registration_table().get("APNIC") == revoked


class TestRecords:
    def test_times_are_epoch_seconds(self, center):
        record = center.register("APNIC", "APNIC", *WINDOW)
        assert (record.valid_from, record.valid_to) == tuple(
            int(t.timestamp()) for t in WINDOW)

    def test_register_binds_resources(self, center):
        inr = InrSet.of(["10.0.0.0/8"], [(64000, 65000)])
        assert center.register("A", "A", *WINDOW, inr=inr).inr == inr
        assert center.register("B", "B", *WINDOW).inr == NO_RESOURCES
        run_keygen(center, "A", Drbg("ca"))
        assert center.registration_table()["A"].inr == inr  # kept through keygen

    def test_log_times_are_json_integers(self, center):
        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca1"))
        for line in center.publish_registration_table().splitlines():
            obj = json.loads(line)
            assert type(obj["valid_from"]) is int and type(obj["valid_to"]) is int

    def test_resources_round_trip_through_the_log(self, center):
        inr = InrSet.of(["10.0.0.0/8", "2001:db8::/32"], [(64000, 65000), (7, 7)])
        center.register("A", "A", *WINDOW, inr=inr)
        line = center.publish_registration_table()
        assert json.loads(line)["prefixes"] == ["10.0.0.0/8", "2001:db8::/32"]
        assert json.loads(line)["as_ranges"] == [[7, 7], [64000, 65000]]
        assert next(parse_log(line)).inr == inr

    def test_table_is_a_live_read_only_view(self, center):
        table = center.registration_table()
        register(center, "APNIC")
        assert table["APNIC"].status == STATUS_REGISTERED
        center.revoke("APNIC")
        assert table["APNIC"].status == STATUS_REVOKED
        with pytest.raises(TypeError):
            table["APNIC"] = None


def log_line(**changes) -> str:
    obj = {"attributes": "APNIC", "id": "APNIC", "R": "ab" * 32, "valid_from": 1,
           "valid_to": 2, "status": "active", "prefixes": ["10.0.0.0/8"],
           "as_ranges": [[64000, 65000]]}
    obj.update(changes)
    return json.dumps(obj)


VALID_LOG = "\n".join([log_line(R=None, status="registered"), log_line(),
                       log_line(id="A||B", prefixes=[], as_ranges=[])]) + "\n"

BAD_LINES = {
    "not-an-object": "[1]",
    "not-json": '{"id": ',
    "nested-too-deep": "[" * 100_000,
    "renamed-key": log_line().replace('"status"', '"state"'),
    "old-format": json.dumps({"R": None, "attributes": "APNIC", "id": "APNIC",
                              "status": "registered",
                              "valid_from": "2026-12-02T00:00:00Z",
                              "valid_to": "2028-01-01T00:00:00Z"}),
    "iso-time": log_line(valid_from="2026-12-02T00:00:00Z"),
    "month-13": log_line(valid_to="2026-13-01T00:00:00Z"),
    "bool-time": log_line(valid_to=True),
    "float-time": log_line(valid_from=1.5),
    "unknown-status": log_line(status="bogus"),
    "short-R": log_line(R="ab" * 31),
    "non-hex-R": log_line(R="zz" * 32),
    "id-not-text": log_line(id=5),
    "prefix-with-host-bits": log_line(prefixes=["10.0.0.1/8"]),
    "prefix-not-text": log_line(prefixes=[167772160]),
    "reversed-as-range": log_line(as_ranges=[[65000, 64000]]),
    "as-range-not-a-pair": log_line(as_ranges=[[64000]]),
    "as-beyond-32-bits": log_line(as_ranges=[[0, 1 << 32]]),
}


class TestRegistrationLog:
    def test_valid_log_parses_last_line_wins(self):
        table = {record.id: record for record in parse_log(VALID_LOG)}
        assert sorted(table) == ["APNIC", "A||B"]
        assert table["APNIC"].status == STATUS_ACTIVE
        assert table["APNIC"].R == bytes.fromhex("ab" * 32)
        assert table["A||B"].inr == NO_RESOURCES

    @pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_malformed_line_raises_decode_error_naming_it(self, line):
        with pytest.raises(DecodeError, match="registration log line 2: "):
            list(parse_log(log_line() + "\n" + line + "\n"))

    def test_line_that_is_not_utf8_raises_decode_error_naming_it(self):
        with pytest.raises(DecodeError, match="registration log line 2: "):
            list(parse_log(log_line().encode() + b"\n\xff\xfe\n"))

    def test_center_refuses_an_old_format_log(self, center):
        file_pk = center.publish_file_pk()
        with pytest.raises(DecodeError, match="line 1"):
            KeyCenter(center.store, file_pk, BAD_LINES["old-format"] + "\n")


_LOG_CHARS = '{}[]":, 0123456789abcdeftrunlsAPNIC\n'


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(VALID_LOG)), st.integers(0, 8),
       st.text(alphabet=_LOG_CHARS, max_size=8))
def test_mutated_log_gives_a_map_or_decode_error(pos, cut, insert):
    mutated = VALID_LOG[:pos] + insert + VALID_LOG[pos + cut:]
    try:
        table = {record.id: record for record in parse_log(mutated)}
    except DecodeError:
        return
    assert isinstance(table, dict)


class TestPublication:
    def test_record_per_completed_keygen(self, center):
        for i in range(3):
            register(center, f"CA{i}", seed=f"r{i}")
            run_keygen(center, f"CA{i}", Drbg(f"ca{i}"))
        file = center.publish_file_pk()
        assert len(list(pk_directory.iter_records(file))) == 3
        for _, rid, pk in pk_directory.iter_records(file):
            assert len(pk) == 1312  # ML-DSA-44 record payloads

    def test_publish_returns_the_same_view_until_an_append(self, center):
        first = center.publish_file_pk()
        assert center.publish_file_pk() is first
        assert first.readonly
        register(center, "APNIC")
        assert center.publish_file_pk() is first  # a registration appends no record
        run_keygen(center, "APNIC", Drbg("ca1"))
        second = center.publish_file_pk()
        assert second is not first
        assert center.publish_file_pk() is second

    def test_published_view_keeps_its_bytes_when_the_buffer_moves(self, center):
        empty = center.publish_file_pk()  # pins the buffer, which has no room left
        empty_bytes = bytes(empty)
        register(center, "CA0", seed="r0")
        run_keygen(center, "CA0", Drbg("ca0"))
        one = center.publish_file_pk()
        assert one.obj is not empty.obj  # the append moved the file to a new buffer
        assert (len(empty), bytes(empty)) == (len(empty_bytes), empty_bytes)
        one_bytes = bytes(one)
        register(center, "CA1", seed="r1")
        run_keygen(center, "CA1", Drbg("ca1"))
        two = center.publish_file_pk()
        assert two.obj is one.obj  # written into the room beyond the published file
        assert (len(one), bytes(one)) == (len(one_bytes), one_bytes)
        assert bytes(two).startswith(one_bytes)
        assert [rid for _, rid, _ in pk_directory.iter_records(two)] == ["CA0", "CA1"]

    def test_registration_table_round_trip(self, center):
        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca1"))
        text = center.publish_registration_table()
        table = {record.id: record for record in parse_log(text)}
        record = table.get("APNIC")
        assert record is not None
        assert record.status == STATUS_ACTIVE
        assert record.R is not None
        assert table == center.registration_table()

    def test_published_table_line_shape(self, center):
        import json as json_mod

        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca1"))
        last = center.publish_registration_table().splitlines()[-1]
        obj = json_mod.loads(last)
        assert set(obj) == {"attributes", "id", "R", "valid_from", "valid_to",
                            "status", "prefixes", "as_ranges"}
        assert bytes.fromhex(obj["R"])  # R published as hex

    def test_published_artifacts_never_leak_sealed_material(self, center):
        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca1"))
        sealed = center.store.inspect_for_tests()
        table_text = center.publish_registration_table()
        file_pk = bytes(center.publish_file_pk())
        secrets = list(sealed["reg_secrets"].values())
        secrets += [sealed["kc_rho_prime"], sealed["kc_K"]]
        for secret in secrets:
            assert secret.hex() not in table_text
            assert secret not in file_pk
        priv_cell = sealed["priv_matrix"].entry(0, 0)
        assert priv_cell not in file_pk
        assert priv_cell.hex() not in table_text


def save_failing_at(name, center, directory, monkeypatch):
    """A save whose rename onto `name` fails, as on a full disk."""
    real_replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("disk full")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        center.save(directory)
    monkeypatch.undo()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, center):
        register(center, "APNIC")
        result = run_keygen(center, "APNIC", Drbg("ca1"))
        center.save(tmp_path)
        loaded = KeyCenter.load(tmp_path)
        assert loaded.publish_file_pk() == center.publish_file_pk()
        assert loaded.registration_table()["APNIC"] == center.registration_table()["APNIC"]
        assert (loaded.store.inspect_for_tests()["reg_secrets"]
                == center.store.inspect_for_tests()["reg_secrets"])
        # the reloaded center can keep issuing keys
        register(loaded, "CNNIC", seed="r2")
        run_keygen(loaded, "CNNIC", Drbg("ca2"))
        assert pk_resolver.resolve("APNIC", result.R,
                                   loaded.publish_file_pk()).pk == result.pk

    def test_sealed_file_is_not_plaintext(self, tmp_path, center):
        register(center, "APNIC")
        center.save(tmp_path)
        blob = (tmp_path / "sealed.bin").read_bytes()
        sealed = center.store.inspect_for_tests()
        assert sealed["priv_matrix"].entry(0, 0) not in blob
        assert sealed["reg_secrets"]["APNIC"] not in blob
        assert sealed["kc_rho"] not in blob

    def test_sealing_key_is_owner_only_from_creation(self, tmp_path, center,
                                                     monkeypatch):
        # with chmod a no-op, only the mode given at creation protects the key
        monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
        old_umask = os.umask(0o022)
        try:
            center.save(tmp_path)
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE((tmp_path / "hsm.key").stat().st_mode) == 0o600

    def test_failed_save_keeps_previous_file_pk(self, tmp_path, center,
                                                monkeypatch):
        register(center, "APNIC")
        run_keygen(center, "APNIC", Drbg("ca1"))
        center.save(tmp_path)
        before = (tmp_path / "file_pk.bin").read_bytes()
        register(center, "CNNIC", seed="r2")
        run_keygen(center, "CNNIC", Drbg("ca2"))
        assert center.publish_file_pk() != before
        save_failing_at("file_pk.bin", center, tmp_path, monkeypatch)
        assert (tmp_path / "file_pk.bin").read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))
        # sealed.bin is already the new one: load refuses the mix
        with pytest.raises(StateError, match="sealed.bin"):
            KeyCenter.load(tmp_path)

    def test_save_failing_at_center_json_is_detected(self, tmp_path, center,
                                                     monkeypatch):
        register(center, "APNIC")
        center.save(tmp_path)
        run_keygen(center, "APNIC", Drbg("ca1"))
        save_failing_at("center.json", center, tmp_path, monkeypatch)
        with pytest.raises(StateError, match="a save failed partway"):
            KeyCenter.load(tmp_path)

    def test_later_successful_save_loads(self, tmp_path, center, monkeypatch):
        register(center, "APNIC")
        center.save(tmp_path)
        run_keygen(center, "APNIC", Drbg("ca1"))
        save_failing_at("center.json", center, tmp_path, monkeypatch)
        center.save(tmp_path)
        loaded = KeyCenter.load(tmp_path)
        assert loaded.publish_file_pk() == center.publish_file_pk()
        assert loaded.registration_table()["APNIC"] == center.registration_table()["APNIC"]

    def test_center_json_disagreeing_with_file_pk_is_refused(self, tmp_path, center):
        center.save(tmp_path)
        meta_path = tmp_path / "center.json"
        meta = json.loads(meta_path.read_text())
        assert (meta["level"], meta["m"], meta["h"]) == (44, 8, 8)
        meta.update(level=87, m=4, h=2)
        meta_path.write_text(json.dumps(meta) + "\n")
        with pytest.raises(StateError, match="8x8 ML-DSA-44"):
            KeyCenter.load(tmp_path)

    def test_directory_without_digests_is_refused(self, tmp_path, center):
        center.save(tmp_path)
        meta_path = tmp_path / "center.json"
        meta = json.loads(meta_path.read_text())
        del meta["sha256"]
        meta_path.write_text(json.dumps(meta) + "\n")
        with pytest.raises(StateError, match="no file digests"):
            KeyCenter.load(tmp_path)
