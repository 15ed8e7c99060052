"""The benchmark's workloads, their verdict checks, and the metrics they report.

A run is a fixed number of cycles. A cycle is one set-up followed by a fixed
number of measured units. The amount of work is set by ``--seconds`` through
each workload's ``units_per_second`` (calibrated so that one run measures
about that long on a 2-core machine), never by how fast the code runs: a
faster program must not enroll more identities or grow longer manifests than
a slower one, and every count repeats exactly. All loops are closed loops
driven by one client in one process.

Workloads are built only from the layers' public API. ``ipkpq.bench`` is used
for one thing only: its byte model at the chain depth, which ``chain-deep``
must match exactly.
"""

from __future__ import annotations

import ipaddress
import math
import random
import resource
import statistics
import threading
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from ipkpq import bench as ipkpq_bench
from ipkpq import chain_validator as cv
from ipkpq import key_center as kc
from ipkpq import keygen_protocol as kp
from ipkpq import pk_resolver as pr
from ipkpq import rpki_objects as ro
from ipkpq.drbg import Drbg
from ipkpq.mldsa import L44

import spans

STANDARD = ro.MODE_STANDARD
IPKPQ = ro.MODE_IPKPQ
MODES = (STANDARD, IPKPQ)

LEVEL = L44
MATRIX_DIM = 32
NOW = 1_800_000_000
VALID_FROM, VALID_TO = NOW - 86_400, NOW + 10 * 365 * 86_400
CA1_INR = ro.InrSet.of(["10.0.0.0/8"], [(64_000, 65_999)])
# Outside every allocation below; identity mode accepts it today.
OUT_OF_ALLOCATION = ro.InrSet.of(["192.0.2.0/24"], [(13_335, 13_335)])

SIGNS_PER_ROA = {STANDARD: 2, IPKPQ: 1}
ISSUE_BATCH = 20     # set-up issuance is timed in batches of this many ROAs
ENROLL_BATCH = 100   # set-up enrollment is timed in batches of this many ids
TAIL_WINDOW = 100    # validations per window of the tail-latency estimate

# Probe kinds whose wrong verdict is a known defect of the program: they are
# counted in ``failed`` and ``failed_share`` but do not make the run incorrect.
KNOWN_DEFECTS = frozenset({"out-of-allocation"})


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload."""

    depth: int                 # CAs from root to leaf, root included
    leaves: int = 1            # identity-mode leaf signers
    standard_leaves: int = 1   # standard-mode leaf signers
    population: int = 0        # File_PK records after set-up (0: the chain only)
    batch: int = 10            # ROAs per round, or enroll steps per unit
    cycles: int = 3            # set-ups per run; setup_s is their median
    units_per_second: float = 1.0


@dataclass(frozen=True)
class Probe:
    kind: str
    mode: str
    roa: ro.RoaObject
    expect: str


class Tally:
    """Samples, verdict checks and exact counts of one run."""

    def __init__(self, verifies_law: dict[str, int]):
        self.verifies_law = verifies_law
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.messages: list[str] = []
        self.law_breaks: list[str] = []
        self.rates: dict[str, list[float]] = defaultdict(list)
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.verifies: Counter[str] = Counter()
        self.bytes: dict[str, set[int]] = defaultdict(set)
        self.bytes_total: Counter[str] = Counter()
        self.validated: Counter[str] = Counter()
        self.checked: Counter[str] = Counter()
        self.valid: Counter[str] = Counter()

    def fail(self, kind: str, message: str) -> None:
        self.failures[kind] += 1
        if len(self.messages) < 20 and message not in self.messages:
            self.messages.append(message)

    def law(self, message: str) -> None:
        if len(self.law_breaks) < 20:
            self.law_breaks.append(message)

    def validate(self, validator, roa: ro.RoaObject, mode: str, *,
                 kind: str = "honest", expect: str | None = None) -> float:
        """Validate one ROA and check its verdict; returns the seconds it took."""
        self.attempted += 1
        start = perf_counter()
        try:
            report = validator.validate(roa, NOW)
        except Exception as exc:  # a raising validator is a failed operation
            self.fail(kind, f"{kind} {mode} ROA raised {exc!r}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        self.checked[mode] += 1
        self.valid[mode] += report.ok
        got = None if report.ok else report.reason
        if got != expect:
            self.fail(kind, f"{kind} {mode} ROA: expected {expect or 'valid'}, "
                            f"got {got or 'valid'}")
        if kind == "honest":
            self.latency[mode].append(elapsed)
            self.validated[mode] += 1
            self.verifies[mode] += report.sig_verifies_performed
            self.bytes[mode].add(report.bytes_fetched)
            self.bytes_total[mode] += report.bytes_fetched
            if report.sig_verifies_performed != self.verifies_law[mode]:
                self.law(f"{mode}: {report.sig_verifies_performed} verifies for one "
                         f"ROA, expected {self.verifies_law[mode]}")
        return elapsed

    def validate_all(self, validator, roas: list[ro.RoaObject], mode: str) -> None:
        """One validation round; its rate is one sample of validate.roas_per_s."""
        total = sum(self.validate(validator, roa, mode) for roa in roas)
        if roas:
            self.rates[f"validate.{mode}"].append(len(roas) / total)

    def run_probes(self, validator, probes: list[Probe]) -> None:
        for probe in probes:
            self.validate(validator, probe.roa, probe.mode, kind=probe.kind,
                          expect=probe.expect)

    def issue(self, jobs: list[tuple[ro.CaNode, ro.InrSet]], mode: str,
              rng: Drbg) -> list[ro.RoaObject]:
        """Issue one batch of ROAs; its rate is one sample of issue.roas_per_s."""
        metrics = ro.Metrics()
        roas = []
        start = perf_counter()
        for leaf, inr in jobs:
            self.attempted += 1
            try:
                roas.append(ro.issue_roa(leaf, inr, metrics, rng))
            except Exception as exc:  # a failed issuance is a failed operation
                self.fail("issue", f"issue {mode} ROA raised {exc!r}")
        elapsed = perf_counter() - start
        if jobs:
            self.rates[f"issue.{mode}"].append(len(roas) / elapsed)
        if metrics.sign_ops != SIGNS_PER_ROA[mode] * len(roas):
            self.law(f"{mode}: {metrics.sign_ops} sign ops for {len(roas)} ROAs, "
                     f"expected {SIGNS_PER_ROA[mode]} per ROA")
        return roas

    def issue_batched(self, jobs, mode: str, rng: Drbg) -> list[ro.RoaObject]:
        roas = []
        for i in range(0, len(jobs), ISSUE_BATCH):
            roas += self.issue(jobs[i:i + ISSUE_BATCH], mode, rng)
        return roas


# -- building blocks ----------------------------------------------------------


def _dt(ts: int) -> datetime:
    return datetime.fromtimestamp(ts, timezone.utc)


def enroll(center: kc.KeyCenter, id_: str, rng: Drbg) -> None:
    """One enrollment: registration plus the two-party keygen through commit."""
    center.register("member", id_, _dt(VALID_FROM), _dt(VALID_TO), rng)
    kp.run_keygen(center, id_, rng)


def chain_inr(d: int) -> ro.InrSet:
    """Resources of the CA at chain position d: /8, /12, ... and a narrowing AS band."""
    return ro.InrSet.of([f"10.0.0.0/{min(8 + 4 * d, 30)}"],
                        [(64_000, max(64_000, 65_000 - 100 * d))])


def leaf_inr(i: int) -> ro.InrSet:
    return ro.InrSet.of([f"10.{i >> 8}.{i & 255}.0/24"], [(64_000 + i, 64_000 + i)])


def roa_inr(leaf: ro.CaNode, rnd: random.Random) -> ro.InrSet:
    """A random sub-prefix two bits longer than the leaf's, and one of its ASNs."""
    base = leaf.inr.prefixes[0]
    plen = min(base.prefixlen + 2, 32)
    index = rnd.randrange(1 << (plen - base.prefixlen))
    net = ipaddress.ip_network((int(base.network_address) + (index << (32 - plen)), plen))
    lo, hi = leaf.inr.as_ranges[0]
    asn = rnd.randint(lo, hi)
    return ro.InrSet.of([str(net)], [(asn, asn)])


def make_root(mode: str, repo: ro.Repository, center, rng: Drbg) -> ro.CaNode:
    return ro.make_root("RIR", mode, LEVEL, repo, center=center, valid_from=VALID_FROM,
                        valid_to=VALID_TO, rng=rng)


def child(parent: ro.CaNode, label: str, inr: ro.InrSet, center, rng: Drbg) -> ro.CaNode:
    """Provision a child CA and issue its resource certificate."""
    node = ro.provision_child(parent, label, inr, center=center, rng=rng)
    ro.issue_rc(parent, node.name, inr)
    return node


def flip_signature(roa: ro.RoaObject, rnd: random.Random) -> ro.RoaObject:
    sig = bytearray(roa.signature)
    sig[rnd.randrange(len(sig))] ^= 0xFF
    return replace(roa, signature=bytes(sig))


def signed_roa(signer: ro.CaNode, name: str, inr: ro.InrSet, r_value: bytes) -> ro.RoaObject:
    """An identity-mode ROA signed with signer's key, bypassing issue_roa's checks."""
    roa = ro.RoaObject(IPKPQ, name, inr, signer_r=r_value)
    return replace(roa, signature=signer.sign_payload(roa.to_be_signed()))


def revoked_signer_roa(parent: ro.CaNode, center: kc.KeyCenter, rng: Drbg,
                       rnd: random.Random) -> ro.RoaObject:
    """Enroll a leaf, let it issue one ROA, then revoke its registration."""
    leaf = child(parent, "RVK0", parent.inr, center, rng)
    roa = ro.issue_roa(leaf, roa_inr(leaf, rnd), rng=rng)
    center.revoke(leaf.name)
    return roa


def identity_probes(base: ro.RoaObject, leaf: ro.CaNode, revoked: ro.RoaObject,
                    rng: Drbg, rnd: random.Random) -> list[Probe]:
    ghost = f"{leaf.parent.name}||GHOST"
    return [
        Probe("flipped-signature", IPKPQ, flip_signature(base, rnd), cv.REASON_BAD_SIGNATURE),
        Probe("wrong-R", IPKPQ, replace(base, signer_r=rng(32)), cv.REASON_RHO_MISMATCH),
        Probe("unregistered-id", IPKPQ, signed_roa(leaf, ghost, base.inr, rng(32)),
              cv.REASON_REGISTRATION_INVALID),
        Probe("revoked-signer", IPKPQ, revoked, cv.REASON_REGISTRATION_INVALID),
        Probe("out-of-allocation", IPKPQ,
              signed_roa(leaf, leaf.name, OUT_OF_ALLOCATION, leaf.accompanying_r),
              cv.REASON_INR_VIOLATION),
    ]


def standard_probes(base: ro.RoaObject, rnd: random.Random) -> list[Probe]:
    return [Probe("flipped-signature", STANDARD, flip_signature(base, rnd),
                  cv.REASON_BAD_SIGNATURE)]


def file_validator(center: kc.KeyCenter) -> cv.IpkpqValidator:
    return cv.IpkpqValidator(pr.FileResolver(center.publish_file_pk()),
                             center.registration_table())


def standard_validator(repo: ro.Repository, root: ro.CaNode) -> cv.StandardValidator:
    return cv.StandardValidator(repo, ro.sha_digest(root.rc.encode()))


@dataclass
class State:
    """What one cycle's set-up leaves for its measured units."""

    rng: Drbg
    rnd: random.Random
    center: kc.KeyCenter
    validators: dict[str, object]
    probes: dict[str, list[Probe]]
    leaves: dict[str, list[ro.CaNode]] = field(default_factory=dict)
    roas: dict[str, list[ro.RoaObject]] = field(default_factory=dict)
    records: int = 0
    server: pr.PkQueryServer | None = None

    @property
    def resolver(self):
        return self.validators[IPKPQ].resolver

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


class Workload:
    name = ""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed

    def verifies_law(self) -> dict[str, int]:
        return {STANDARD: self.shape.depth + 1, IPKPQ: 1}

    def rngs(self, cycle: int) -> tuple[Drbg, random.Random]:
        label = f"perfbench/{self.name}/{self.seed}/{cycle}"
        return Drbg(label), random.Random(label)

    def check_laws(self, tally: Tally) -> None:
        for mode in MODES:
            if len(tally.bytes[mode]) > 1:
                tally.law(f"{mode}: bytes fetched per warm ROA vary: "
                          f"{sorted(tally.bytes[mode])}")

    def setup(self, cycle: int, tally: Tally) -> State:
        raise NotImplementedError

    def unit(self, state: State, tally: Tally) -> None:
        raise NotImplementedError


class ChainDeep(Workload):
    """One deep chain per mode; each round issues a batch from the leaf and validates it."""

    name = "chain-deep"

    def __init__(self, shape: Shape, seed: int):
        super().__init__(shape, seed)
        self.byte_model = {}
        for mode in MODES:
            scenario = ipkpq_bench.Scenario(mode=mode, depth=shape.depth)
            row = ipkpq_bench.run_overhead_accounting(scenario, max_depth=shape.depth)[0]
            self.byte_model[mode] = row.bytes_fetched

    def build_chain(self, mode: str, center, rng: Drbg, tally: Tally):
        repo = ro.Repository()
        root = make_root(mode, repo, center, rng)
        node = root
        enroll_time = 0.0
        for d in range(1, self.shape.depth):
            start = perf_counter()
            nxt = ro.provision_child(node, f"CA{d}", chain_inr(d), center=center, rng=rng)
            enroll_time += perf_counter() - start
            ro.issue_rc(node, nxt.name, chain_inr(d))
            node = nxt
        if mode == IPKPQ:
            # each identity-mode provision_child is one register + run_keygen
            tally.attempted += self.shape.depth - 1
            tally.rates["enroll"].append((self.shape.depth - 1) / enroll_time)
        return repo, root, node

    def setup(self, cycle: int, tally: Tally) -> State:
        rng, rnd = self.rngs(cycle)
        center = kc.init_center(MATRIX_DIM, MATRIX_DIM, LEVEL, rng)
        repo_s, root_s, leaf_s = self.build_chain(STANDARD, None, rng, tally)
        _, _, leaf_i = self.build_chain(IPKPQ, center, rng, tally)
        revoked = revoked_signer_roa(leaf_i.parent, center, rng, rnd)
        validators = {STANDARD: standard_validator(repo_s, root_s),
                      IPKPQ: file_validator(center)}
        base = {mode: ro.issue_roa(leaf, roa_inr(leaf, rnd), rng=rng)
                for mode, leaf in ((STANDARD, leaf_s), (IPKPQ, leaf_i))}
        for mode in MODES:  # warm: root RC cached, matrix parsed
            validators[mode].validate(base[mode], NOW)
        probes = {STANDARD: standard_probes(base[STANDARD], rnd),
                  IPKPQ: identity_probes(base[IPKPQ], leaf_i, revoked, rng, rnd)}
        return State(rng, rnd, center, validators, probes,
                     leaves={STANDARD: [leaf_s], IPKPQ: [leaf_i]},
                     records=self.shape.depth + 1)

    def unit(self, state: State, tally: Tally) -> None:
        for mode in MODES:  # rounds alternate A, B
            leaf = state.leaves[mode][0]
            jobs = [(leaf, roa_inr(leaf, state.rnd)) for _ in range(self.shape.batch)]
            roas = tally.issue(jobs, mode, state.rng)
            tally.validate_all(state.validators[mode], roas, mode)
            tally.run_probes(state.validators[mode], state.probes[mode])

    def check_laws(self, tally: Tally) -> None:
        super().check_laws(tally)
        for mode in MODES:
            seen = tally.bytes[mode]
            if seen and seen != {self.byte_model[mode]}:
                tally.law(f"{mode}: {sorted(seen)} bytes per warm ROA, byte model "
                          f"says {self.byte_model[mode]} at depth {self.shape.depth}")


class Population(Workload):
    """A depth-3 hierarchy: root, one CA, and many leaf signers under it.

    Identity mode enrolls ``population`` records in all, in a seeded order
    mixing leaf CAs and plain members; ``leaves`` of them issue one ROA each.
    Standard mode has ``standard_leaves`` leaves with one ROA each and no
    directory; its per-ROA cost does not depend on the population.
    """

    # whether set-up enrollments are samples of enroll.ids_per_s
    sample_setup_enrollment = True

    def setup_population(self, cycle: int, tally: Tally) -> State:
        shape = self.shape
        rng, rnd = self.rngs(cycle)
        center = kc.init_center(MATRIX_DIM, MATRIX_DIM, LEVEL, rng)
        repo_i = ro.Repository()
        root_i = make_root(IPKPQ, repo_i, center, rng)
        ca1_i = child(root_i, "CA1", CA1_INR, center, rng)
        # root, CA1 and the revoked leaf are the other three records
        order = [("L", i) for i in range(shape.leaves)]
        order += [("M", i) for i in range(shape.population - shape.leaves - 3)]
        rnd.shuffle(order)
        leaves_i = []
        for start in range(0, len(order), ENROLL_BATCH):
            chunk = order[start:start + ENROLL_BATCH]
            t0 = perf_counter()
            for kind, i in chunk:
                if kind == "L":
                    leaves_i.append(ro.provision_child(ca1_i, f"L{i:04d}", leaf_inr(i),
                                                       center=center, rng=rng))
                else:
                    enroll(center, f"{ca1_i.name}||M{i:04d}", rng)
            if self.sample_setup_enrollment:
                tally.rates["enroll"].append(len(chunk) / (perf_counter() - t0))
                tally.attempted += len(chunk)
        for leaf in leaves_i:
            ro.issue_rc(ca1_i, leaf.name, leaf.inr)
        roas_i = tally.issue_batched([(leaf, roa_inr(leaf, rnd)) for leaf in leaves_i],
                                     IPKPQ, rng)
        revoked = revoked_signer_roa(ca1_i, center, rng, rnd)

        repo_s = ro.Repository()
        root_s = make_root(STANDARD, repo_s, None, rng)
        ca1_s = child(root_s, "CA1", CA1_INR, None, rng)
        leaves_s = [child(ca1_s, f"L{i:04d}", leaf_inr(i), None, rng)
                    for i in range(shape.standard_leaves)]
        roas_s = tally.issue_batched([(leaf, roa_inr(leaf, rnd)) for leaf in leaves_s],
                                     STANDARD, rng)
        probes = {STANDARD: standard_probes(rnd.choice(roas_s), rnd),
                  IPKPQ: identity_probes(roas_i[0], leaves_i[0], revoked, rng, rnd)}
        return State(rng, rnd, center, {STANDARD: standard_validator(repo_s, root_s)},
                     probes, leaves={STANDARD: leaves_s, IPKPQ: leaves_i},
                     roas={STANDARD: roas_s, IPKPQ: roas_i}, records=shape.population)

    @staticmethod
    def warm(state: State) -> None:
        for mode in MODES:  # warm: root RC cached, matrix fetched
            state.validators[mode].validate(state.roas[mode][0], NOW)


class DirLarge(Population):
    """Identity mode resolves every signer from a large published File_PK."""

    name = "dir-large"

    def setup(self, cycle: int, tally: Tally) -> State:
        state = self.setup_population(cycle, tally)
        state.validators[IPKPQ] = file_validator(state.center)
        self.warm(state)
        return state

    def unit(self, state: State, tally: Tally) -> None:
        for mode in MODES:  # rounds alternate A, B; each key appears once per round
            roas = state.roas[mode]
            tally.validate_all(state.validators[mode], state.rnd.sample(roas, len(roas)),
                               mode)
            tally.run_probes(state.validators[mode], state.probes[mode])


class EnrollOnline(Population):
    """Enrollments append to File_PK while ROAs resolve online against the live file."""

    name = "enroll-online"
    sample_setup_enrollment = False  # only the measured loop's enrollments count

    def setup(self, cycle: int, tally: Tally) -> State:
        state = self.setup_population(cycle, tally)
        state.server = pr.PkQueryServer(state.center.publish_file_pk).start()
        try:
            state.validators[IPKPQ] = cv.IpkpqValidator(
                pr.OnlineResolver(state.server.endpoint), state.center.registration_table())
            self.warm(state)
        except BaseException:
            state.close()
            raise
        return state

    def unit(self, state: State, tally: Tally) -> None:
        ca1 = state.leaves[IPKPQ][0].parent
        enroll_time = 0.0
        enrolled = 0
        spent = {mode: 0.0 for mode in MODES}
        for _ in range(self.shape.batch):
            id_ = f"{ca1.name}||N{state.records:05d}"
            tally.attempted += 1
            start = perf_counter()
            try:
                enroll(state.center, id_, state.rng)
            except Exception as exc:  # a failed enrollment is a failed operation
                tally.fail("enroll", f"enroll {id_} raised {exc!r}")
            else:
                enroll_time += perf_counter() - start
                enrolled += 1
                state.records += 1
            for mode in (IPKPQ, STANDARD):
                roa = state.rnd.choice(state.roas[mode])
                spent[mode] += tally.validate(state.validators[mode], roa, mode)
        if enrolled:
            tally.rates["enroll"].append(enrolled / enroll_time)
        for mode in MODES:
            tally.rates[f"validate.{mode}"].append(self.shape.batch / spent[mode])
            tally.run_probes(state.validators[mode], state.probes[mode])


WORKLOADS = {cls.name: cls for cls in (ChainDeep, DirLarge, EnrollOnline)}

SHAPES = {
    "chain-deep": Shape(depth=8, batch=10, cycles=10, units_per_second=2.2),
    "dir-large": Shape(depth=3, leaves=200, standard_leaves=100, population=2000,
                       cycles=2, units_per_second=0.55),
    "enroll-online": Shape(depth=3, leaves=100, standard_leaves=100, population=1000,
                           batch=25, cycles=3, units_per_second=2.5),
}


# -- statistics -------------------------------------------------------------


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def highest_percentile(n: int) -> float:
    """The highest of p99.9/p99/p95/p90/p75 with at least 10 of n samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Tail latency as a median over windows of TAIL_WINDOW consecutive samples.

    Each window contributes its highest percentile with at least 10 samples
    beyond it (p90 for a full window). A burst of contention from other
    tenants of a shared machine slows every operation for a second or two;
    over a whole run it decides the tail by itself, so the median over
    windows is reported instead. Returns (percentile, value, windows).
    """
    windows = [samples[i:i + TAIL_WINDOW]
               for i in range(0, len(samples) - TAIL_WINDOW + 1, TAIL_WINDOW)] or [samples]
    p = highest_percentile(len(windows[0]))
    return p, statistics.median(percentile(w, p) for w in windows), len(windows)


def units_per_cycle(shape: Shape, seconds: int) -> list[int]:
    total = max(shape.cycles, round(seconds * shape.units_per_second))
    return [total // shape.cycles + (i < total % shape.cycles) for i in range(shape.cycles)]


# -- a run ------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    failures: dict[str, int]
    recorder: spans.Recorder | None = None

    def summary(self) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def run(name: str, seed: int, seconds: int, trace: bool, shape: Shape | None = None,
        trace_path: Path | None = None) -> Result:
    """Run one workload; with trace, report per-layer metrics instead of end-to-end."""
    workload = WORKLOADS[name](shape or SHAPES[name], seed)
    tally = Tally(workload.verifies_law())
    recorder = spans.Recorder() if trace else None
    setup_times: list[float] = []
    unit_times: dict[bool, list[float]] = {True: [], False: []}
    fetched = Counter()
    layer_extra: dict[str, float] = {}
    k = 0
    for cycle, units in enumerate(units_per_cycle(workload.shape, seconds)):
        traced = recorder is not None and cycle == 0
        start = perf_counter()
        with recorder.tracing("bench.setup") if traced else nullcontext():
            state = workload.setup(cycle, tally)
        setup_times.append(perf_counter() - start)
        if traced:
            fetched["bytes"] += state.resolver.bytes_fetched
            fetched["objects"] += state.resolver.objects_fetched
        try:
            for _ in range(units):
                traced = recorder is not None and k % 2 == 0
                bytes0, objects0 = state.resolver.bytes_fetched, state.resolver.objects_fetched
                start = perf_counter()
                with recorder.tracing("bench.unit") if traced else nullcontext():
                    workload.unit(state, tally)
                unit_times[traced].append(perf_counter() - start)
                if traced:
                    fetched["bytes"] += state.resolver.bytes_fetched - bytes0
                    fetched["objects"] += state.resolver.objects_fetched - objects0
                k += 1
            if cycle == 0:
                layer_extra["pk_directory.file_bytes"] = len(state.center.publish_file_pk())
                layer_extra["pk_directory.records"] = state.records
        finally:
            state.close()
        del state
    workload.check_laws(tally)

    measured = sum(unit_times[True]) + sum(unit_times[False])
    notes = [f"workload {name} seed {seed}: {tally.attempted} operations, "
             f"{len(setup_times)} set-ups, {k} units measured in {measured:.1f} s"]
    if recorder is None:
        metrics = end_to_end(tally, setup_times, notes)
    else:
        metrics = per_layer(recorder, threading.get_ident(), tally, unit_times, fetched,
                            layer_extra)
        if trace_path is not None:
            recorder.write(trace_path, {"workload": name, "seed": seed})
    failed = sum(tally.failures.values())
    unexpected = {kind: n for kind, n in tally.failures.items() if kind not in KNOWN_DEFECTS}
    for kind, n in sorted(tally.failures.items()):
        label = "known defect" if kind in KNOWN_DEFECTS else "FAILED"
        notes.append(f"{label}: {n} wrong verdicts or errors on {kind} operations")
    notes += [f"law broken: {m}" for m in tally.law_breaks]
    notes += [f"  {m}" for m in tally.messages[:5]]
    empty = [key for key in ("validate.standard", "validate.ipkpq", "issue.standard",
                             "issue.ipkpq", "enroll") if not tally.rates[key]]
    notes += [f"no samples for {key}" for key in empty]
    correct = not unexpected and not tally.law_breaks and not empty
    return Result(correct, tally.attempted, failed, metrics, notes, dict(tally.failures),
                  recorder)


def end_to_end(tally: Tally, setup_times: list[float], notes: list[str]) -> dict:
    def med(samples: list[float]) -> float:
        return statistics.median(samples) if samples else 0.0

    m: dict[str, tuple[float, str]] = {"setup_s": (med(setup_times), "s")}
    notes.append(f"setup_s: median of {len(setup_times)} set-ups")
    for mode in MODES:
        for kind in ("issue", "validate"):
            rates = tally.rates[f"{kind}.{mode}"]
            m[f"{kind}.roas_per_s.{mode}"] = (med(rates), "1/s")
            notes.append(f"{kind}.roas_per_s.{mode}: median of {len(rates)} batches")
    for mode in MODES:
        lat = tally.latency[mode]
        p, value, windows = tail(lat) if lat else (50.0, 0.0, 0)
        m[f"validate.p50_ms.{mode}"] = (med(lat) * 1000, "ms")
        m[f"validate.tail_ms.{mode}"] = (value * 1000, "ms")
        notes.append(f"validate.tail_ms.{mode}: median over {windows} windows of "
                     f"p{p:g} of {len(lat)} validations")
    m["enroll.ids_per_s"] = (med(tally.rates["enroll"]), "1/s")
    notes.append(f"enroll.ids_per_s: median of {len(tally.rates['enroll'])} batches")
    for mode in MODES:
        n = tally.validated[mode] or 1
        m[f"verifies_per_roa.{mode}"] = (tally.verifies[mode] / n, "count")
        m[f"bytes_per_roa.{mode}"] = (tally.bytes_total[mode] / n, "bytes")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    m["failed_share"] = (sum(tally.failures.values()) / max(tally.attempted, 1), "ratio")
    return m


def per_layer(recorder: spans.Recorder, main_thread: int, tally: Tally,
              unit_times: dict[bool, list[float]], fetched: Counter,
              extra: dict[str, float]) -> dict:
    r = spans.summarize(recorder.spans, main_thread)

    def calls(name: str) -> tuple[float, str]:
        return r["calls"].get(name, 0), "count"

    def self_ms(name: str) -> tuple[float, str]:
        return r["self_s"].get(name, 0.0) * 1000, "ms"

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    m: dict[str, tuple[float, str]] = {}
    for name in ("mldsa.verify", "mldsa.sign", "mldsa.keygen", "mldsa.ntt", "mldsa.intt",
                 "mldsa.expand_a", "seed_fabric.map_indices", "seed_fabric.seed_sum",
                 "pk_directory.lookup", "pk_directory.append_record",
                 "pk_resolver.resolve", "key_center.register",
                 "keygen_protocol.run_keygen", "rpki_objects.issue_roa",
                 "rpki_objects.decode", "rpki_objects.inr_contains",
                 "chain_validator.validate"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
    for name in ("mldsa.sample_in_ball", "mldsa.codec", "key_center.commit_pk",
                 "keygen_protocol.kc_respond", "keygen_protocol.ca_finish",
                 "keygen_protocol.kc_commit", "rpki_objects.encode"):
        m[f"{name}.self_ms"] = self_ms(name)
    m["mldsa.sign.attempts_per_call"] = ratio(r["calls"].get("mldsa.expand_mask", 0),
                                              r["calls"].get("mldsa.sign", 0))
    m["pk_directory.extract_matrix.calls"] = calls("pk_directory.extract_matrix")
    m["pk_directory.file_bytes"] = (extra.get("pk_directory.file_bytes", 0), "bytes")
    m["pk_directory.records"] = (extra.get("pk_directory.records", 0), "count")
    resolve_tags = r["tags"].get("pk_resolver.resolve", {})
    m["pk_resolver.resolve.ok_ratio"] = ratio(resolve_tags.get(pr.OK, 0),
                                              r["calls"].get("pk_resolver.resolve", 0))
    queries = r["calls"].get("pk_resolver.fetch_record", 0)
    m["pk_resolver.fetch_record.wait_ms"] = (  # client wait per online query
        r["dur_s"].get("pk_resolver.fetch_record", 0.0) * 1000 / max(queries, 1), "ms")
    m["pk_resolver.bytes_fetched"] = (fetched["bytes"], "bytes")
    m["pk_resolver.objects_fetched"] = (fetched["objects"], "count")
    for mode in MODES:
        m[f"chain_validator.valid_ratio.{mode}"] = ratio(tally.valid[mode],
                                                         tally.checked[mode])
    for layer in spans.LAYERS:
        m[f"layer.{layer}.self_ms"] = (r["layer_s"][layer] * 1000, "ms")
    m["trace.traced_ms"] = (r["traced_s"] * 1000, "ms")
    m["trace.uncovered_ms"] = (r["uncovered_s"] * 1000, "ms")
    m["trace.offthread_ms"] = (r["offthread_s"] * 1000, "ms")
    traced, untraced = unit_times[True], unit_times[False]
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1) * 100 \
        if traced and untraced else 0.0
    m["trace.overhead_pct"] = (overhead, "%")
    return m
