"""Small-size self-test of the benchmark.

Runs every workload tiny, untraced and traced, and checks that each metric
named in BENCHMARK.json is emitted with its unit, that the only failures are
the known-defect probes, and that the traced run's spans form a well-nested
tree whose self times add up to the traced time.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "chain-deep": workloads.Shape(depth=3, batch=2, cycles=2, units_per_second=3),
    "dir-large": workloads.Shape(depth=3, leaves=3, standard_leaves=2, population=12,
                                 cycles=2, units_per_second=3),
    "enroll-online": workloads.Shape(depth=3, leaves=3, standard_leaves=2, population=10,
                                     batch=3, cycles=2, units_per_second=3),
}


def units(spec_key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics(name):
    result = workloads.run(name, seed=3, seconds=1, trace=False, shape=TINY[name])
    assert result.correct, result.notes
    assert {k: unit for k, (_, unit) in result.metrics.items()} == units("end_to_end")
    # one out-of-allocation probe per measured unit, and nothing else fails
    assert result.failures == {"out-of-allocation": 3}
    assert result.failed == 3
    metrics = {k: value for k, (value, _) in result.metrics.items()}
    assert metrics["verifies_per_roa.standard"] == TINY[name].depth + 1
    assert metrics["verifies_per_roa.ipkpq"] == 1
    assert metrics["failed_share"] == pytest.approx(3 / result.attempted)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_span_tree(name, tmp_path):
    out = tmp_path / "spans.json"
    result = workloads.run(name, seed=3, seconds=1, trace=True, shape=TINY[name],
                           trace_path=out)
    assert result.correct, result.notes
    assert {k: unit for k, (_, unit) in result.metrics.items()} == units("per_layer")

    recorded = result.recorder.spans
    assert json.loads(out.read_text())["spans"] == recorded
    by_id = {s[0]: s for s in recorded}
    assert len(by_id) == len(recorded)
    main = threading.get_ident()
    for span_id, parent, span_name, start, end, thread, _ in recorded:
        layer = span_name.split(".", 1)[0]
        assert layer in spans.LAYERS or layer == "bench"
        assert start <= end
        if parent:
            p = by_id[parent]
            assert p[5] == thread and p[3] <= start and end <= p[4]
        elif thread == main:
            assert layer == "bench"
    assert {s[2] for s in recorded if s[1] == 0 and s[5] == main} \
        == {"bench.setup", "bench.unit"}

    m = {k: value for k, (value, _) in result.metrics.items()}
    layer_sum = sum(m[f"layer.{layer}.self_ms"] for layer in spans.LAYERS)
    assert layer_sum + m["trace.uncovered_ms"] == pytest.approx(m["trace.traced_ms"])
    assert m["mldsa.verify.calls"] > 0 and m["mldsa.sign.attempts_per_call"] >= 1
    assert m["chain_validator.valid_ratio.ipkpq"] < 1
    if name == "enroll-online":
        assert m["trace.offthread_ms"] > 0 and m["pk_resolver.fetch_record.wait_ms"] > 0


def test_traced_run_restores_patched_functions():
    before = {(owner, attr): getattr(spans._owner(owner), attr)
              for owner, attr, _, _ in spans.PATCHES}
    workloads.run("chain-deep", seed=4, seconds=1, trace=True, shape=TINY["chain-deep"])
    after = {(owner, attr): getattr(spans._owner(owner), attr)
             for owner, attr, _, _ in spans.PATCHES}
    assert before == after


def test_fails_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "chain-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
