"""The traced benchmark run rebinds layer functions by name; each must exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
