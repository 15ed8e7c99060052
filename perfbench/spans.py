"""Span recorder for the traced benchmark run.

The recorder rebinds the public functions of each ipkpq layer where their
callers look them up (a module attribute, or a method on a class), so that
every call records one span: id, parent id, name, start, end, thread and an
optional outcome tag. Nothing inside ``src/ipkpq`` is edited; ``install``
patches and ``uninstall`` restores the original objects. The untraced run
never installs anything.

Spans stay in memory and are written out once, at the end of the run. A
span's self time is its duration minus the durations of its child spans,
which nest strictly inside it on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# The layers the per-layer metrics are grouped by; every span name starts
# with one of these, or with "bench" for the benchmark's own glue.
LAYERS = ("mldsa", "seed_fabric", "key_center", "keygen_protocol",
          "pk_directory", "pk_resolver", "rpki_objects", "chain_validator")

_CODEC = ("pk_encode", "pk_decode", "sk_encode", "sk_decode", "w1_encode",
          "sig_encode", "sig_decode")


def _status(result) -> str:
    return result[0]


# (owner, attribute, span name, outcome tag). The owner is "module" or
# "module:Class"; the attribute is the name its callers look up. A function
# imported by name into several modules is patched in each of them.
PATCHES = [
    ("ipkpq.chain_validator", "verify", "mldsa.verify", None),
    ("ipkpq.rpki_objects", "sign", "mldsa.sign", None),
    ("ipkpq.mldsa.core", "keygen_from_components", "mldsa.keygen", None),
    ("ipkpq.keygen_protocol", "keygen_from_components", "mldsa.keygen", None),
    ("ipkpq.mldsa.poly", "ntt", "mldsa.ntt", None),
    ("ipkpq.mldsa.poly", "intt", "mldsa.intt", None),
    ("ipkpq.mldsa.sampling", "expand_a", "mldsa.expand_a", None),
    ("ipkpq.mldsa.sampling", "expand_mask", "mldsa.expand_mask", None),
    ("ipkpq.mldsa.sampling", "sample_in_ball", "mldsa.sample_in_ball", None),
    *[("ipkpq.mldsa.encoding", fn, "mldsa.codec", None) for fn in _CODEC],
    ("ipkpq.seed_fabric", "map_indices", "seed_fabric.map_indices", None),
    ("ipkpq.seed_fabric", "seed_sum", "seed_fabric.seed_sum", None),
    ("ipkpq.keygen_protocol", "seed_sum", "seed_fabric.seed_sum", None),
    ("ipkpq.pk_resolver", "derive_public_seed", "seed_fabric.derive", None),
    ("ipkpq.keygen_protocol", "derive_public_seed", "seed_fabric.derive", None),
    ("ipkpq.keygen_protocol", "derive_private_partial", "seed_fabric.derive", None),
    ("ipkpq.key_center", "init_center", "key_center.init_center", None),
    ("ipkpq.key_center:KeyCenter", "register", "key_center.register", None),
    ("ipkpq.key_center:KeyCenter", "commit_pk", "key_center.commit_pk", None),
    ("ipkpq.key_center:KeyCenter", "revoke", "key_center.revoke", None),
    ("ipkpq.keygen_protocol", "run_keygen", "keygen_protocol.run_keygen", None),
    ("ipkpq.rpki_objects", "run_keygen", "keygen_protocol.run_keygen", None),
    ("ipkpq.keygen_protocol", "ca_begin", "keygen_protocol.ca_begin", None),
    ("ipkpq.keygen_protocol", "kc_respond", "keygen_protocol.kc_respond", None),
    ("ipkpq.keygen_protocol", "ca_finish", "keygen_protocol.ca_finish", None),
    ("ipkpq.keygen_protocol", "kc_commit", "keygen_protocol.kc_commit", None),
    ("ipkpq.pk_directory", "lookup", "pk_directory.lookup", None),
    ("ipkpq.pk_directory", "append_record", "pk_directory.append_record", None),
    ("ipkpq.pk_directory", "extract_matrix", "pk_directory.extract_matrix", None),
    ("ipkpq.pk_resolver:FileResolver", "resolve_detail", "pk_resolver.resolve", _status),
    ("ipkpq.pk_resolver:OnlineResolver", "resolve_detail", "pk_resolver.resolve",
     _status),
    ("ipkpq.pk_resolver:OnlineResolver", "fetch_record", "pk_resolver.fetch_record",
     None),
    ("ipkpq.rpki_objects", "make_root", "rpki_objects.make_root", None),
    ("ipkpq.rpki_objects", "provision_child", "rpki_objects.provision_child", None),
    ("ipkpq.rpki_objects", "issue_rc", "rpki_objects.issue_rc", None),
    ("ipkpq.rpki_objects", "issue_roa", "rpki_objects.issue_roa", None),
    ("ipkpq.rpki_objects:ResourceCert", "encode", "rpki_objects.encode", None),
    ("ipkpq.rpki_objects:RoaObject", "encode", "rpki_objects.encode", None),
    ("ipkpq.rpki_objects:Manifest", "encode", "rpki_objects.encode", None),
    ("ipkpq.rpki_objects:ResourceCert", "decode", "rpki_objects.decode", None),
    ("ipkpq.rpki_objects:RoaObject", "decode", "rpki_objects.decode", None),
    ("ipkpq.rpki_objects:InrSet", "contains", "rpki_objects.inr_contains", None),
    ("ipkpq.chain_validator:StandardValidator", "validate", "chain_validator.validate",
     None),
    ("ipkpq.chain_validator:IpkpqValidator", "validate", "chain_validator.validate",
     None),
]


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Recorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        # each span: [id, parent id (0 for a root), name, start, end, thread, tag]
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            outcome = "error"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                outcome = tag(result) if tag is not None else None
                return result
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append([span_id, parent, name, start, end,
                                       threading.get_ident(), outcome])

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one set-up or one unit."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append([span_id, parent, name, start, end,
                               threading.get_ident(), None])

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder is already installed")
        for owner_path, attr, name, tag in PATCHES:
            owner = _owner(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(name, original.__func__, tag))
            else:
                patched = self.wrap(name, original, tag)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def tracing(self, root_name: str):
        """Patch the layers and record everything under one root span."""
        self.install()
        try:
            with self.span(root_name):
                yield
        finally:
            self.uninstall()

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start", "end",
                                          "thread", "tag"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for span_id, parent, _, start, end, _, _ in spans:
        if parent:
            covered[parent] += end - start
    return {s[0]: (s[4] - s[3]) - covered[s[0]] for s in spans}


def summarize(spans: list[list], main_thread: int) -> dict:
    """Per-name call counts, self times and tags, plus the coverage totals.

    Layer self times are summed over the main thread only; with the root
    spans' self time (``uncovered_s``) they add up to ``traced_s``, the total
    duration of the benchmark's root spans. Spans on other threads (the
    online query server's handler) are summed separately in ``offthread_s``.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    dur_s: dict[str, float] = defaultdict(float)
    tags: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    layer_s = {layer: 0.0 for layer in LAYERS}
    traced = uncovered = offthread = 0.0
    for span_id, parent, name, start, end, thread, tag in spans:
        calls[name] += 1
        self_s[name] += own[span_id]
        dur_s[name] += end - start
        if tag is not None:
            tags[name][tag] += 1
        layer = name.split(".", 1)[0]
        if thread != main_thread:
            offthread += own[span_id]
        elif layer == "bench":
            uncovered += own[span_id]
            if not parent:
                traced += end - start
        else:
            layer_s[layer] += own[span_id]
    return {"calls": calls, "self_s": self_s, "dur_s": dur_s, "tags": tags,
            "layer_s": layer_s, "traced_s": traced, "uncovered_s": uncovered,
            "offthread_s": offthread}
