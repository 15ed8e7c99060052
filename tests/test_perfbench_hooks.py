"""The benchmark in perfbench/ drives ipkpq by name; it must still run against src/."""

import importlib.util
import json
import sys
from pathlib import Path

from ipkpq import pk_resolver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_patch_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for owner_path, attr, _, _ in spans.PATCHES:
        owner = spans._owner(owner_path)
        if isinstance(owner, type):
            found = attr in owner.__dict__  # patched there, not where inherited
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def test_every_workload_runs_at_a_tiny_shape(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports spans by name
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    tiny = {
        "chain-deep": workloads.Shape(depth=3, batch=2, cycles=1, units_per_second=1),
        "dir-large": workloads.Shape(depth=3, leaves=3, standard_leaves=2, population=12,
                                     cycles=1, units_per_second=1),
        "enroll-online": workloads.Shape(depth=3, leaves=3, standard_leaves=2,
                                         population=10, batch=3, cycles=1,
                                         units_per_second=1),
    }
    spec_names = [m["name"] for m in json.loads(
        (PERFBENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(tiny) == sorted(workloads.WORKLOADS)
    connects = []
    real_connect = pk_resolver.socket.create_connection

    def counting(*args, **kwargs):
        connects.append(args[0])
        return real_connect(*args, **kwargs)

    monkeypatch.setattr(pk_resolver.socket, "create_connection", counting)
    for name, shape in tiny.items():
        connects.clear()
        result = workloads.run(name, seed=5, seconds=1, trace=False, shape=shape)
        assert result.correct, (name, result.notes)
        assert result.failed == 0, (name, result.notes)
        assert list(result.metrics) == spec_names, name
        # every online query of a set-up shares one kept-open connection
        online = name == "enroll-online"
        assert len(connects) == (shape.cycles if online else 0), name
