"""End-to-end command-line flows against temporary state directories."""

import json
import stat

import pytest

from ipkpq.bench import parse_csv
from ipkpq.cli import main


def run(tmp_path, *argv) -> int:
    return main(["--state", str(tmp_path / "state"), *argv])


def full_ipkpq_flow(tmp_path, capsys):
    assert run(tmp_path, "center", "init", "--m", "8", "--h", "8") == 0
    assert run(tmp_path, "ca", "init-root", "--name", "APNIC",
               "--mode", "ipkpq") == 0
    assert run(tmp_path, "ca", "provision", "--parent", "APNIC",
               "--label", "CNNIC", "--prefix", "10.0.0.0/8",
               "--asn", "64000-65000") == 0
    assert run(tmp_path, "ca", "issue-rc", "--parent", "APNIC",
               "--child", "APNIC||CNNIC") == 0
    roa_path = tmp_path / "route.roa"
    assert run(tmp_path, "ca", "issue-roa", "--ca", "APNIC||CNNIC",
               "--prefix", "10.1.0.0/16", "--asn", "64500",
               "--out", str(roa_path)) == 0
    capsys.readouterr()
    return roa_path


class TestCenterCommands:
    def test_init_and_double_init(self, tmp_path, capsys):
        assert run(tmp_path, "center", "init", "--m", "8", "--h", "8") == 0
        assert "8x8" in capsys.readouterr().out
        assert run(tmp_path, "center", "init", "--m", "8", "--h", "8") == 2
        assert "already initialized" in capsys.readouterr().err

    def test_register_emits_record(self, tmp_path, capsys):
        run(tmp_path, "center", "init", "--m", "8", "--h", "8")
        capsys.readouterr()
        assert run(tmp_path, "center", "register", "--id", "APNIC",
                   "--attrs", "Asia Pacific NIC", "--days", "30") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["id"] == "APNIC"
        assert record["status"] == "registered"
        assert "rho" not in record  # sealed randomness never published
        assert (record["prefixes"], record["as_ranges"]) == ([], [])

    def test_register_binds_resources(self, tmp_path, capsys):
        run(tmp_path, "center", "init", "--m", "8", "--h", "8")
        capsys.readouterr()
        assert run(tmp_path, "center", "register", "--id", "APNIC", "--attrs", "NIC",
                   "--prefix", "10.0.0.0/8", "--asn", "64000-65000",
                   "--asn", "7") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["prefixes"] == ["10.0.0.0/8"]
        assert record["as_ranges"] == [[7, 7], [64000, 65000]]

    def test_publish_writes_artifacts(self, tmp_path, capsys):
        run(tmp_path, "center", "init", "--m", "8", "--h", "8")
        assert run(tmp_path, "center", "publish") == 0
        out = capsys.readouterr().out
        assert "file_pk.published.bin" in out


class TestCaAndValidate:
    def test_ipkpq_issue_and_validate(self, tmp_path, capsys):
        roa_path = full_ipkpq_flow(tmp_path, capsys)
        assert run(tmp_path, "validate", "--mode", "ipkpq",
                   "--roa", str(roa_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "valid"
        assert report["sig_verifies_performed"] == 1

    def test_tampered_roa_fails_validation(self, tmp_path, capsys):
        roa_path = full_ipkpq_flow(tmp_path, capsys)
        blob = bytearray(roa_path.read_bytes())
        blob[-1] ^= 0x01
        roa_path.write_bytes(bytes(blob))
        assert run(tmp_path, "validate", "--mode", "ipkpq",
                   "--roa", str(roa_path)) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "invalid"

    def test_malformed_roa_exits_2(self, tmp_path, capsys):
        roa_path = full_ipkpq_flow(tmp_path, capsys)
        prefix_tlv = bytes.fromhex("15" "00000006" "0410" "0a010000")  # 10.1.0.0/16
        blob = roa_path.read_bytes()
        assert prefix_tlv in blob
        roa_path.write_bytes(blob.replace(prefix_tlv, prefix_tlv[:6] + b"\xc8"
                                          + prefix_tlv[7:]))  # prefix length 200
        assert run(tmp_path, "validate", "--mode", "ipkpq",
                   "--roa", str(roa_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_standard_flow(self, tmp_path, capsys):
        assert run(tmp_path, "ca", "init-root", "--name", "RIPE",
                   "--mode", "standard") == 0
        assert run(tmp_path, "ca", "provision", "--parent", "RIPE",
                   "--label", "NL", "--prefix", "10.0.0.0/8",
                   "--asn", "64000-65000") == 0
        assert run(tmp_path, "ca", "issue-rc", "--parent", "RIPE",
                   "--child", "RIPE||NL") == 0
        roa_path = tmp_path / "r.roa"
        assert run(tmp_path, "ca", "issue-roa", "--ca", "RIPE||NL",
                   "--prefix", "10.0.1.0/24", "--asn", "64400",
                   "--out", str(roa_path)) == 0
        capsys.readouterr()
        assert run(tmp_path, "validate", "--mode", "standard",
                   "--roa", str(roa_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "valid"
        assert report["sig_verifies_performed"] == 3  # depth-2 chain

    def test_ca_key_file_is_owner_only(self, tmp_path):
        assert run(tmp_path, "ca", "init-root", "--name", "RIPE",
                   "--mode", "standard") == 0
        ca_file = tmp_path / "state" / "cas" / "RIPE.json"
        assert stat.S_IMODE(ca_file.stat().st_mode) == 0o600

    def test_issue_roa_outside_allocation_fails(self, tmp_path, capsys):
        full_ipkpq_flow(tmp_path, capsys)
        assert run(tmp_path, "ca", "issue-roa", "--ca", "APNIC||CNNIC",
                   "--prefix", "11.0.0.0/8", "--asn", "64500") == 2


class TestFilePkCommands:
    def test_inspect_and_lookup(self, tmp_path, capsys):
        roa_path = full_ipkpq_flow(tmp_path, capsys)
        file_pk = tmp_path / "state" / "center" / "file_pk.bin"
        assert run(tmp_path, "filepk", "inspect", str(file_pk)) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["m"] == 8 and len(info["records"]) == 2
        assert run(tmp_path, "filepk", "lookup", str(file_pk),
                   "--id", "APNIC||CNNIC") == 0
        pk_hex = capsys.readouterr().out.strip()
        assert len(pk_hex) == 1312 * 2
        assert run(tmp_path, "filepk", "lookup", str(file_pk),
                   "--id", "GHOST") == 1

    def test_resolve_round_trip(self, tmp_path, capsys):
        full_ipkpq_flow(tmp_path, capsys)
        ca_json = json.loads(
            (tmp_path / "state" / "cas" / "APNIC__CNNIC.json").read_text())
        file_pk = tmp_path / "state" / "center" / "file_pk.bin"
        assert run(tmp_path, "resolve", "--id", "APNIC||CNNIC",
                   "--r", ca_json["R"], "--filepk", str(file_pk)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["id"] == "APNIC||CNNIC"
        # a mangled accompanying key resolves to the bottom verdict
        bad_r = ("00" * 32)
        assert run(tmp_path, "resolve", "--id", "APNIC||CNNIC",
                   "--r", bad_r, "--filepk", str(file_pk)) == 1


class TestMissingFiles:
    """A file that cannot be read is `error: …` and exit 2, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["validate", "--mode", "ipkpq", "--roa", "MISSING"],
        ["filepk", "inspect", "MISSING"],
        ["filepk", "lookup", "MISSING", "--id", "APNIC"],
        ["resolve", "--id", "APNIC", "--r", "00" * 32, "--filepk", "MISSING"],
    ], ids=["validate-roa", "filepk-inspect", "filepk-lookup", "resolve-filepk"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "no-such-file")
        assert run(tmp_path, *[missing if a == "MISSING" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such-file" in err

    def test_validate_with_malformed_registration_log_exits_2(self, tmp_path, capsys):
        roa_path = full_ipkpq_flow(tmp_path, capsys)
        log = tmp_path / "state" / "center" / "registration_table.jsonl"
        log.write_text(log.read_text().replace('"status"', '"state"'))
        assert run(tmp_path, "validate", "--mode", "ipkpq",
                   "--roa", str(roa_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: registration log line 1: ")
        assert "Traceback" not in err

    def test_validate_with_missing_center_file_exits_2(self, tmp_path, capsys):
        roa_path = full_ipkpq_flow(tmp_path, capsys)
        (tmp_path / "state" / "center" / "file_pk.bin").unlink()
        assert run(tmp_path, "validate", "--mode", "ipkpq",
                   "--roa", str(roa_path)) == 2
        assert "file_pk.bin" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_gen_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        assert run(tmp_path, "bench", "gen", "--depth", "3", "--roas", "2",
                   "--rounds", "1", "--out", str(out_csv)) == 0
        text = capsys.readouterr().out
        assert out_csv.exists()
        assert "ratio" in text
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("bench,scenario,mode")

    def test_bench_overhead_depth_range(self, tmp_path, capsys):
        assert run(tmp_path, "bench", "overhead", "--depth", "3..4",
                   "--mode", "ipkpq") == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_bench_verify_interleaves_depths_and_modes(self, tmp_path, capsys):
        out_csv = tmp_path / "verify.csv"
        assert run(tmp_path, "bench", "verify", "--depth", "3..4", "--mode", "both",
                   "--roas", "2", "--rounds", "2", "--out", str(out_csv)) == 0
        rows = parse_csv(out_csv.read_text())
        per_round = [(3, "standard"), (3, "ipkpq"), (4, "standard"), (4, "ipkpq")]
        assert [(int(r["depth"]), r["mode"]) for r in rows] == per_round * 2
        assert [int(r["round"]) for r in rows] == [0] * 4 + [1] * 4
        assert {r["scenario"] for r in rows} == {
            f"{mode}-L44-d{depth}-n2-s0" for depth, mode in per_round}

        out_csv.unlink()
        assert run(tmp_path, "bench", "verify", "--depth", "3..4", "--mode", "ipkpq",
                   "--roas", "2", "--rounds", "2", "--out", str(out_csv)) == 0
        rows = parse_csv(out_csv.read_text())
        assert len(rows) == 4 and {r["mode"] for r in rows} == {"ipkpq"}
