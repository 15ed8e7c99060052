"""Desk-scale benchmark harness comparing the two key-management modes.

Three experiments:

  * generation  — per round, build the CA chain from scratch (root RC
    signing included) and issue a batch of ROAs, recording throughput and
    exact sign/keygen counts. Both an end-to-end rate (setup included)
    and a steady-state rate (issuance only) are reported, since the two
    amortize setup differently.
  * verification — validate a pre-issued batch per round, cold cache on
    the first round and warm thereafter, recording throughput, verify
    counts, and bytes fetched.
  * overhead — no timing at all: exact byte models for the key material a
    leaf validator must store and the bytes fetched per validation, per
    depth.

Workloads are generated from the scenario seed, so runs of the two modes
see identical trees and ROA payloads. `run_generation` and
`run_verification` take a list of scenarios (any mix of modes and depths),
prepare every one, then run round r of each in turn (A,B,C,...,A,B,C,...)
so machine drift hits every scenario alike; their round counts must agree.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, replace

from .chain_validator import IpkpqValidator, StandardValidator, ValidationReport
from .drbg import Drbg
from .errors import ParameterError
from .key_center import KeyCenter, init_center
from .mldsa.params import LEVELS
from .pk_resolver import FileResolver
from .rpki_objects import (
    CaNode,
    InrSet,
    MODE_IPKPQ,
    MODE_STANDARD,
    Metrics,
    Repository,
    RoaObject,
    issue_rc,
    issue_roa,
    make_root,
    provision_child,
    sha_digest,
)

DEFAULT_MATRIX_DIM = 32
_NOW = 1_800_000_000  # fixed reference clock, keeps runs reproducible
_WINDOW = (_NOW - 86_400, _NOW + 10 * 365 * 86_400)


@dataclass(frozen=True)
class Scenario:
    mode: str
    level: int = 44
    depth: int = 3
    roa_count: int = 50
    rounds: int = 8
    seed: int = 0
    matrix_dim: int = DEFAULT_MATRIX_DIM

    def __post_init__(self):
        if self.mode not in (MODE_STANDARD, MODE_IPKPQ):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.level not in LEVELS:
            raise ParameterError(f"unknown level {self.level}")
        if self.depth < 3:
            raise ParameterError("depth must be at least 3")
        if self.rounds < 1 or self.roa_count < 0:
            raise ParameterError("rounds must be >= 1 and roa_count >= 0")

    @property
    def scenario_id(self) -> str:
        return (f"{self.mode}-L{self.level}-d{self.depth}"
                f"-n{self.roa_count}-s{self.seed}")


@dataclass
class BenchRow:
    bench: str
    scenario: str
    mode: str
    level: int
    depth: int
    round: int
    cache: str = ""
    roa_count: int = 0
    setup_s: float = 0.0
    run_s: float = 0.0
    roas_per_sec: float | None = None
    roas_per_sec_steady: float | None = None
    sign_ops: int = 0
    verify_ops: int = 0
    keygen_ops: int = 0
    bytes_fetched: int = 0
    objects_fetched: int = 0
    storage_bytes: int = 0

    def as_record(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


CSV_COLUMNS = [f.name for f in fields(BenchRow)]


def _round_rng(scenario: Scenario, label: str, round_idx: int) -> Drbg:
    return Drbg(f"{scenario.scenario_id}/{label}/{round_idx}")


def _chain_inr(depth_idx: int) -> InrSet:
    # narrow one level at a time: /8, /12, /16, ... and a shrinking AS band
    prefix_len = min(8 + 4 * depth_idx, 30)
    as_lo = 64_000
    as_hi = max(as_lo, 65_000 - 100 * depth_idx)
    return InrSet.of([f"10.0.0.0/{prefix_len}"], [(as_lo, as_hi)])


def _build_chain(scenario: Scenario, center: KeyCenter | None, rng: Drbg,
                 metrics: Metrics, name_suffix: str) -> tuple[Repository, CaNode, CaNode]:
    """Root-to-leaf chain of `depth` CAs."""
    repo = Repository()
    root = make_root(f"RIR{name_suffix}", scenario.mode, LEVELS[scenario.level], repo,
                     center=center, valid_from=_WINDOW[0], valid_to=_WINDOW[1],
                     rng=rng, metrics=metrics)
    node = root
    for d in range(1, scenario.depth):
        inr = _chain_inr(d)
        child = provision_child(node, f"CA{d}", inr, center=center, rng=rng,
                                metrics=metrics)
        issue_rc(node, child.name, inr, metrics)
        node = child
    return repo, root, node


def _roa_inr(leaf: CaNode, rng: Drbg, i: int) -> InrSet:
    base = leaf.inr.prefixes[0]
    lo, hi = leaf.inr.as_ranges[0]
    subnets = list(base.subnets(new_prefix=min(base.prefixlen + 2, 32)))
    net = subnets[int.from_bytes(rng(2), "big") % len(subnets)]
    asn = lo + (int.from_bytes(rng(4), "big") % (hi - lo + 1))
    return InrSet.of([str(net)], [(asn, asn)])


def _fresh_center(scenario: Scenario) -> KeyCenter | None:
    if scenario.mode != MODE_IPKPQ:
        return None
    return init_center(scenario.matrix_dim, scenario.matrix_dim,
                       LEVELS[scenario.level],
                       Drbg(f"{scenario.scenario_id}/center"))


def _interleave(scenarios: Sequence[Scenario], prepare: Callable,
                run_round: Callable) -> list[BenchRow]:
    """Prepare every scenario, then run round r of each in turn."""
    rounds = {s.rounds for s in scenarios}
    if len(rounds) > 1:
        raise ParameterError("interleaved scenarios must agree on round count")
    prepared = [prepare(s) for s in scenarios]
    return [run_round(p, r) for r in range(max(rounds, default=0)) for p in prepared]


# -- generation -----------------------------------------------------------


def _generation_round(scenario: Scenario, center: KeyCenter | None,
                      round_idx: int) -> BenchRow:
    rng = _round_rng(scenario, "gen", round_idx)
    metrics = Metrics()
    t0 = time.perf_counter()
    _, _, leaf = _build_chain(scenario, center, rng, metrics, f"-r{round_idx}")
    t1 = time.perf_counter()
    for i in range(scenario.roa_count):
        issue_roa(leaf, _roa_inr(leaf, rng, i), metrics, rng)
    t2 = time.perf_counter()
    row = BenchRow(
        bench="generation",
        scenario=scenario.scenario_id,
        mode=scenario.mode,
        level=scenario.level,
        depth=scenario.depth,
        round=round_idx,
        roa_count=scenario.roa_count,
        setup_s=t1 - t0,
        run_s=t2 - t1,
        sign_ops=metrics.sign_ops,
        keygen_ops=metrics.keygen_ops,
    )
    if scenario.roa_count > 0:
        row.roas_per_sec = scenario.roa_count / (t2 - t0)
        row.roas_per_sec_steady = scenario.roa_count / (t2 - t1)
    return row


def run_generation(scenarios: Sequence[Scenario]) -> list[BenchRow]:
    return _interleave(scenarios, lambda s: (s, _fresh_center(s)),
                       lambda prepared, r: _generation_round(*prepared, r))


# -- verification ---------------------------------------------------------


@dataclass
class _VerificationSetup:
    scenario: Scenario
    roas: list[RoaObject]
    validator: StandardValidator | IpkpqValidator
    repo: Repository
    leaf_name: str


def _prepare_verification(scenario: Scenario) -> _VerificationSetup:
    center = _fresh_center(scenario)
    rng = _round_rng(scenario, "issue", 0)
    metrics = Metrics()
    repo, root, leaf = _build_chain(scenario, center, rng, metrics, "")
    roas = [issue_roa(leaf, _roa_inr(leaf, rng, i), metrics, rng)
            for i in range(scenario.roa_count)]
    if scenario.mode == MODE_STANDARD:
        validator = StandardValidator(repo, sha_digest(root.rc.encode()))
    else:
        file_pk = center.publish_file_pk()
        validator = IpkpqValidator(FileResolver(file_pk), center.registration_table())
    return _VerificationSetup(scenario, roas, validator, repo, leaf.name)


def _verification_round(setup: _VerificationSetup, round_idx: int) -> BenchRow:
    scenario = setup.scenario
    verify_ops = 0
    bytes_fetched = 0
    objects_fetched = 0
    failures = 0
    t0 = time.perf_counter()
    for roa in setup.roas:
        report: ValidationReport = setup.validator.validate(roa, _NOW)
        verify_ops += report.sig_verifies_performed
        bytes_fetched += report.bytes_fetched
        objects_fetched += report.objects_fetched
        failures += 0 if report.ok else 1
    elapsed = time.perf_counter() - t0
    if failures:
        raise RuntimeError(f"{failures} honest ROAs failed validation")
    row = BenchRow(
        bench="verification",
        scenario=scenario.scenario_id,
        mode=scenario.mode,
        level=scenario.level,
        depth=scenario.depth,
        round=round_idx,
        cache="cold" if round_idx == 0 else "warm",
        roa_count=scenario.roa_count,
        run_s=elapsed,
        verify_ops=verify_ops,
        bytes_fetched=bytes_fetched,
        objects_fetched=objects_fetched,
    )
    if scenario.roa_count > 0 and elapsed > 0:
        row.roas_per_sec = scenario.roa_count / elapsed
        row.roas_per_sec_steady = row.roas_per_sec
    return row


def run_verification(scenarios: Sequence[Scenario]) -> list[BenchRow]:
    return _interleave(scenarios, _prepare_verification, _verification_round)


# -- storage / communication accounting ------------------------------------


def _chain_storage_bytes(setup: _VerificationSetup) -> int:
    """Total size of every RC a relying party holds to validate the leaf."""
    from .rpki_objects import ResourceCert, rc_path

    if setup.scenario.mode == MODE_IPKPQ:
        # chain-free: only the leaf's own certificate is kept
        return len(setup.repo.get(rc_path(setup.leaf_name)))
    total = 0
    name = setup.leaf_name
    while True:
        raw = setup.repo.get(rc_path(name))
        total += len(raw)
        cert = ResourceCert.decode(raw)
        if cert.issuer_name == cert.subject_name:
            return total
        name = cert.issuer_name


def run_overhead_accounting(scenario: Scenario, max_depth: int = 8) -> list[BenchRow]:
    """Exact byte model per depth: leaf key-material storage and warm fetch."""
    rows = []
    for depth in range(scenario.depth, max_depth + 1):
        sub = replace(scenario, depth=depth, roa_count=1, rounds=1)
        setup = _prepare_verification(sub)
        # warm the caches, then measure one validation
        setup.validator.validate(setup.roas[0], _NOW)
        report = setup.validator.validate(setup.roas[0], _NOW)
        if not report.ok:
            raise RuntimeError(f"honest ROA failed validation at depth {depth}")
        rows.append(BenchRow(
            bench="overhead",
            scenario=sub.scenario_id,
            mode=sub.mode,
            level=sub.level,
            depth=depth,
            round=0,
            cache="warm",
            roa_count=1,
            verify_ops=report.sig_verifies_performed,
            bytes_fetched=report.bytes_fetched,
            objects_fetched=report.objects_fetched,
            storage_bytes=_chain_storage_bytes(setup),
        ))
    return rows


# -- reporting --------------------------------------------------------------


def emit_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        rec = row.as_record()
        writer.writerow({k: ("" if v is None else v) for k, v in rec.items()})
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _median_rate(rows: list[BenchRow], mode: str) -> float | None:
    rates = [r.roas_per_sec for r in rows if r.mode == mode and r.roas_per_sec is not None]
    return statistics.median(rates) if rates else None


def summarize(rows: list[BenchRow]) -> str:
    """Mode-ratio summary per (bench, level, depth) group."""
    lines = []
    groups: dict[tuple, list[BenchRow]] = {}
    for row in rows:
        groups.setdefault((row.bench, row.level, row.depth), []).append(row)
    for (bench, level, depth), group in sorted(groups.items()):
        std = _median_rate(group, MODE_STANDARD)
        ipk = _median_rate(group, MODE_IPKPQ)
        header = f"{bench} L{level} depth={depth}:"
        if std and ipk:
            lines.append(f"{header} ipkpq {ipk:.1f}/s vs standard {std:.1f}/s "
                         f"-> ratio {ipk / std:.2f}x")
        else:
            for mode in (MODE_STANDARD, MODE_IPKPQ):
                rate = _median_rate(group, mode)
                if rate:
                    lines.append(f"{header} {mode} {rate:.1f} ROAs/s")
        ops = {(r.mode): r for r in group if r.bench == "overhead"}
        for mode, row in sorted(ops.items()):
            lines.append(
                f"{header} {mode} verify_ops={row.verify_ops} "
                f"bytes_fetched={row.bytes_fetched} storage={row.storage_bytes}")
    return "\n".join(lines)
