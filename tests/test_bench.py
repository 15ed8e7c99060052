"""Benchmark harness: accounting exactness, trends, CSV plumbing."""

import statistics

import pytest

from ipkpq.bench import (
    BenchRow,
    CSV_COLUMNS,
    Scenario,
    emit_csv,
    parse_csv,
    run_generation,
    run_overhead_accounting,
    run_verification,
    summarize,
)
from ipkpq.errors import ParameterError

TINY = dict(roa_count=4, rounds=2, matrix_dim=8)


def scenario(mode, **kw):
    merged = {**TINY, **kw}
    return Scenario(mode=mode, **merged)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Scenario(mode="bogus")
        with pytest.raises(ParameterError):
            Scenario(mode="ipkpq", depth=2)
        with pytest.raises(ParameterError):
            Scenario(mode="ipkpq", level=50)

    def test_id_round_trips_config(self):
        s = scenario("ipkpq", depth=4, seed=9)
        assert "ipkpq" in s.scenario_id and "d4" in s.scenario_id and "s9" in s.scenario_id


class TestGeneration:
    def test_sign_op_closed_form(self):
        for mode, per_roa in (("standard", 2), ("ipkpq", 1)):
            rows = run_generation([scenario(mode, depth=4)])
            for row in rows:
                assert row.sign_ops == 4 + per_roa * row.roa_count  # depth RC signs
                assert row.roas_per_sec > 0
                assert row.roas_per_sec_steady >= row.roas_per_sec

    def test_keygen_accounting(self):
        rows = run_generation([scenario("standard")])
        assert rows[0].keygen_ops == 3 + rows[0].roa_count  # CAs + EE keys
        rows = run_generation([scenario("ipkpq")])
        assert rows[0].keygen_ops == 3

    def test_zero_roa_round_records_setup_only(self):
        rows = run_generation([scenario("ipkpq", roa_count=0, rounds=1)])
        assert len(rows) == 1
        assert rows[0].roas_per_sec is None
        assert rows[0].roas_per_sec_steady is None
        assert rows[0].setup_s > 0

    def test_paired_rounds_interleave(self):
        rows = run_generation([scenario("standard"), scenario("ipkpq")])
        assert [r.mode for r in rows] == ["standard", "ipkpq"] * 2
        assert rows[0].round == rows[1].round == 0

    def test_paired_requires_matching_rounds(self):
        with pytest.raises(ParameterError):
            run_generation([scenario("standard"), scenario("ipkpq", rounds=3)])
        with pytest.raises(ParameterError):
            run_verification([scenario("standard"), scenario("ipkpq", rounds=3)])

    def test_deterministic_accounting_across_reruns(self):
        a = run_generation([scenario("ipkpq", seed=5)])
        b = run_generation([scenario("ipkpq", seed=5)])
        assert [(r.sign_ops, r.keygen_ops) for r in a] == \
               [(r.sign_ops, r.keygen_ops) for r in b]

    def test_setup_op_cost_grows_with_depth_in_both_modes(self):
        # generation is linear in chain depth for both key-management styles
        for mode in ("standard", "ipkpq"):
            per_depth = [
                run_generation([scenario(mode, depth=d, rounds=1)])[0].sign_ops
                for d in (3, 4, 5, 6)
            ]
            assert per_depth == sorted(per_depth)
            assert len(set(per_depth)) == 4


class TestVerification:
    def test_verify_op_law(self):
        for depth in (3, 5):
            rows = run_verification([scenario("standard", depth=depth)])
            assert all(r.verify_ops == (depth + 1) * r.roa_count for r in rows)
            rows = run_verification([scenario("ipkpq", depth=depth)])
            assert all(r.verify_ops == r.roa_count for r in rows)

    def test_cold_then_warm_cache_labels(self):
        rows = run_verification([scenario("ipkpq", rounds=3)])
        assert [r.cache for r in rows] == ["cold", "warm", "warm"]
        assert rows[0].bytes_fetched > rows[1].bytes_fetched  # matrix amortized
        assert rows[1].bytes_fetched == rows[2].bytes_fetched

    def test_paired_verification(self):
        rows = run_verification([scenario("standard"), scenario("ipkpq")])
        std = [r for r in rows if r.mode == "standard"]
        ipk = [r for r in rows if r.mode == "ipkpq"]
        assert all(r.roas_per_sec > 0 for r in rows)
        assert statistics.median([r.roas_per_sec for r in ipk]) > \
               statistics.median([r.roas_per_sec for r in std])


class TestOverhead:
    def test_standard_grows_ipkpq_flat(self):
        std = run_overhead_accounting(scenario("standard", roa_count=1, rounds=1),
                                      max_depth=6)
        ipk = run_overhead_accounting(scenario("ipkpq", roa_count=1, rounds=1),
                                      max_depth=6)
        depths = [r.depth for r in std]
        assert depths == [3, 4, 5, 6]

        for series in ("bytes_fetched", "storage_bytes"):
            values = [getattr(r, series) for r in std]
            assert values == sorted(values) and len(set(values)) == len(values)
            slope, _ = statistics.linear_regression(depths, values)[:2]
            assert slope > 0
            corr = statistics.correlation(depths, values)
            assert corr ** 2 > 0.99

        for series in ("bytes_fetched", "storage_bytes"):
            values = [getattr(r, series) for r in ipk]
            assert max(values) / min(values) < 1.05

        assert all(r.verify_ops == r.depth + 1 for r in std)
        assert all(r.verify_ops == 1 for r in ipk)


class TestReporting:
    def test_csv_round_trip(self):
        rows = run_generation([scenario("ipkpq", rounds=1)])
        text = emit_csv(rows)
        parsed = parse_csv(text)
        assert len(parsed) == 1
        assert parsed[0]["mode"] == "ipkpq"
        assert int(parsed[0]["sign_ops"]) == rows[0].sign_ops
        assert list(parsed[0].keys()) == CSV_COLUMNS

    def test_csv_blank_for_omitted_throughput(self):
        rows = run_generation([scenario("ipkpq", roa_count=0, rounds=1)])
        parsed = parse_csv(emit_csv(rows))
        assert parsed[0]["roas_per_sec"] == ""

    def test_emit_deterministic_given_rows(self):
        rows = [BenchRow(bench="generation", scenario="x", mode="ipkpq", level=44,
                         depth=3, round=0, roa_count=5, roas_per_sec=10.0,
                         sign_ops=5)]
        assert emit_csv(rows) == emit_csv(rows)

    def test_summary_prints_mode_ratio(self):
        rows = run_verification([scenario("standard"), scenario("ipkpq")])
        text = summarize(rows)
        assert "ratio" in text and "ipkpq" in text and "standard" in text

    def test_ratio_is_throughput_quotient(self):
        rows = [
            BenchRow(bench="verification", scenario="a", mode="standard", level=44,
                     depth=3, round=r, roa_count=1, roas_per_sec=50.0)
            for r in range(3)
        ] + [
            BenchRow(bench="verification", scenario="b", mode="ipkpq", level=44,
                     depth=3, round=r, roa_count=1, roas_per_sec=200.0)
            for r in range(3)
        ]
        assert "4.00x" in summarize(rows)
