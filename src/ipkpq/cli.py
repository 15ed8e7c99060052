"""Command-line front end.

State layout (``--state`` directory, default ``./ipkpq-state``):

    center/                 key-center persistence (sealed store, File_PK,
                            registration log)
    repo/                   published objects (RCs, ROAs, manifests)
    cas/<name>.json         CA key material and resource allocation
    trust_anchor.digest     pinned root digest for standard-mode validation
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import pk_directory, pk_resolver
from .bench import (
    Scenario,
    emit_csv,
    run_generation,
    run_overhead_accounting,
    run_verification,
    summarize,
)
from .chain_validator import IpkpqValidator, StandardValidator
from .errors import IpkpqError
from .key_center import KeyCenter, init_center, parse_log
from .mldsa.params import LEVELS
from .rpki_objects import (
    CaNode,
    FsRepository,
    InrSet,
    Manifest,
    MODE_IPKPQ,
    MODE_STANDARD,
    RoaObject,
    issue_rc,
    issue_roa,
    make_root,
    mft_path,
    provision_child,
    sha_digest,
)


def _state(args) -> Path:
    state = Path(args.state)
    state.mkdir(parents=True, exist_ok=True)
    return state


def _center_dir(state: Path) -> Path:
    return state / "center"


def _load_center(state: Path) -> KeyCenter:
    if not KeyCenter.exists(_center_dir(state)):
        raise IpkpqError(f"no key center under {state}; run `ipkpq center init` first")
    return KeyCenter.load(_center_dir(state))


def _ca_file(state: Path, name: str) -> Path:
    return state / "cas" / (name.replace("||", "__") + ".json")


def _save_ca(state: Path, node: CaNode) -> None:
    path = _ca_file(state, node.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": node.name,
        "mode": node.mode,
        "level": node.level.number,
        "prefixes": [str(p) for p in node.inr.prefixes],
        "as_ranges": list(node.inr.as_ranges),
        "valid_from": node.valid_from,
        "valid_to": node.valid_to,
        "sk": node.sk.hex(),
        "pk": node.pk.hex() if node.pk else None,
        "R": node.accompanying_r.hex() if node.accompanying_r else None,
        "parent": node.parent.name if node.parent else None,
        "serial": node._serial,
    }
    # the file holds the CA's secret key: owner-only from its first byte
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w") as fh:
        os.fchmod(fd, 0o600)  # also tightens an existing file of a wider mode
        fh.write(json.dumps(payload, indent=1) + "\n")


def _load_ca(state: Path, name: str, repo: FsRepository,
             parent: CaNode | None = None) -> CaNode:
    path = _ca_file(state, name)
    if not path.is_file():
        raise IpkpqError(f"unknown CA {name!r}; provision it first")
    obj = json.loads(path.read_text())
    if parent is None and obj["parent"]:
        parent = _load_ca(state, obj["parent"], repo)
    node = CaNode(
        name=obj["name"],
        mode=obj["mode"],
        level=LEVELS[obj["level"]],
        inr=InrSet.of(obj["prefixes"], [tuple(r) for r in obj["as_ranges"]]),
        sk=bytes.fromhex(obj["sk"]),
        repo=repo,
        valid_from=obj["valid_from"],
        valid_to=obj["valid_to"],
        pk=bytes.fromhex(obj["pk"]) if obj["pk"] else None,
        accompanying_r=bytes.fromhex(obj["R"]) if obj["R"] else None,
        parent=parent,
        _serial=obj["serial"],
    )
    try:
        node.manifest = Manifest.decode(repo.get(mft_path(name)))
    except KeyError:
        pass
    if parent is not None:
        parent.children[node.name] = node
    return node


def _parse_inr(args) -> InrSet:
    prefixes = args.prefix or []
    ranges = []
    for spec in args.asn or []:
        if "-" in spec:
            lo, hi = spec.split("-", 1)
            ranges.append((int(lo), int(hi)))
        else:
            ranges.append((int(spec), int(spec)))
    return InrSet.of(prefixes, ranges)


def _now_arg(args) -> int:
    return args.now if args.now is not None else int(datetime.now(timezone.utc).timestamp())


# -- command implementations ------------------------------------------------


def cmd_center_init(args) -> int:
    state = _state(args)
    if KeyCenter.exists(_center_dir(state)):
        raise IpkpqError(f"key center already initialized under {state}")
    center = init_center(args.m, args.h, LEVELS[args.level])
    center.save(_center_dir(state))
    print(f"initialized {args.m}x{args.h} key center (ML-DSA-{args.level}) in {state}")
    return 0


def cmd_center_register(args) -> int:
    state = _state(args)
    center = _load_center(state)
    start = datetime.now(timezone.utc).replace(microsecond=0)
    record = center.register(args.attrs, args.id, start,
                             start + timedelta(days=args.days), inr=_parse_inr(args))
    center.save(_center_dir(state))
    print(record.to_json())
    return 0


def cmd_center_publish(args) -> int:
    state = _state(args)
    center = _load_center(state)
    out = Path(args.out) if args.out else state / "file_pk.published.bin"
    out.write_bytes(center.publish_file_pk())
    table_out = out.with_suffix(".registrations.jsonl")
    table_out.write_text(center.publish_registration_table())
    print(f"wrote {out} and {table_out}")
    return 0


def cmd_filepk_inspect(args) -> int:
    data = Path(args.path).read_bytes()
    header = pk_directory.decode_header(data)
    records = list(pk_directory.iter_records(data))
    print(json.dumps({
        "level": header.level.number,
        "m": header.m,
        "h": header.h,
        "matrix_bytes": header.matrix_len,
        "records": [{"offset": off, "id": rid, "pk_sha": sha_digest(pk).hex()[:16]}
                    for off, rid, pk in records],
    }, indent=1))
    return 0


def cmd_filepk_lookup(args) -> int:
    data = Path(args.path).read_bytes()
    pk = pk_directory.lookup(data, args.id)
    if pk is None:
        print("not-found")
        return 1
    print(pk.hex())
    return 0


def cmd_resolve(args) -> int:
    data = Path(args.filepk).read_bytes()
    resolved = pk_resolver.resolve(args.id, bytes.fromhex(args.r), data)
    if resolved is None:
        print("⊥")
        return 1
    print(json.dumps({
        "id": resolved.id,
        "rho": resolved.rho_checked.hex(),
        "pk": resolved.pk.hex(),
    }, indent=1))
    return 0


def cmd_ca_init_root(args) -> int:
    state = _state(args)
    repo = FsRepository(state / "repo")
    center = _load_center(state) if args.mode == MODE_IPKPQ else None
    now = int(datetime.now(timezone.utc).timestamp())
    root = make_root(args.name, args.mode, LEVELS[args.level], repo, center=center,
                     valid_from=now - 60, valid_to=now + args.days * 86_400)
    _save_ca(state, root)
    if center is not None:
        center.save(_center_dir(state))
    (state / "trust_anchor.digest").write_text(sha_digest(root.rc.encode()).hex() + "\n")
    print(f"root {root.name} created; trust anchor digest pinned")
    return 0


def cmd_ca_provision(args) -> int:
    state = _state(args)
    repo = FsRepository(state / "repo")
    parent = _load_ca(state, args.parent, repo)
    center = _load_center(state) if parent.mode == MODE_IPKPQ else None
    child = provision_child(parent, args.label, _parse_inr(args), center=center)
    _save_ca(state, child)
    _save_ca(state, parent)
    if center is not None:
        center.save(_center_dir(state))
    print(f"provisioned {child.name}")
    return 0


def cmd_ca_issue_rc(args) -> int:
    state = _state(args)
    repo = FsRepository(state / "repo")
    parent = _load_ca(state, args.parent, repo)
    child = _load_ca(state, args.child, repo, parent=parent)
    cert = issue_rc(parent, child.name, child.inr)
    _save_ca(state, parent)
    print(f"issued RC for {cert.subject_name} ({len(cert.encode())} bytes)")
    return 0


def cmd_ca_issue_roa(args) -> int:
    state = _state(args)
    repo = FsRepository(state / "repo")
    node = _load_ca(state, args.ca, repo)
    roa = issue_roa(node, _parse_inr(args))
    _save_ca(state, node)
    encoded = roa.encode()
    if args.out:
        Path(args.out).write_bytes(encoded)
        print(f"wrote {args.out} ({len(encoded)} bytes)")
    else:
        print(encoded.hex())
    return 0


def cmd_validate(args) -> int:
    state = _state(args)
    roa = RoaObject.decode(Path(args.roa).read_bytes())
    now = _now_arg(args)
    if args.mode == MODE_STANDARD:
        repo = FsRepository(state / "repo")
        digest = bytes.fromhex((state / "trust_anchor.digest").read_text().strip())
        report = StandardValidator(repo, digest).validate(roa, now)
    else:
        center_dir = _center_dir(state)
        file_pk = (center_dir / "file_pk.bin").read_bytes()
        log = (center_dir / "registration_table.jsonl").read_bytes()
        validator = IpkpqValidator(pk_resolver.FileResolver(file_pk),
                                   {record.id: record for record in parse_log(log)})
        report = validator.validate(roa, now)
    print(json.dumps(report.to_dict(), indent=1))
    return 0 if report.ok else 1


def _parse_depths(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(spec)]


def cmd_bench(args) -> int:
    depths = _parse_depths(args.depth)
    modes = ([MODE_STANDARD, MODE_IPKPQ] if args.mode == "both" else [args.mode])
    if args.which == "overhead":  # sweeps its own depth range
        rows = [row for mode in modes for row in run_overhead_accounting(
            Scenario(mode=mode, level=args.level, depth=depths[0],
                     roa_count=1, rounds=1, seed=args.seed),
            max_depth=depths[-1])]
    else:
        run = run_generation if args.which == "gen" else run_verification
        rows = run([Scenario(mode=mode, level=args.level, depth=depth,
                             roa_count=args.roas, rounds=args.rounds, seed=args.seed)
                    for depth in depths for mode in modes])
    csv_text = emit_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(csv_text, end="")
    summary = summarize(rows)
    if summary:
        print(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipkpq",
        description="Identity-based ML-DSA key management and chain-free RPKI tooling")
    parser.add_argument("--state", default="ipkpq-state",
                        help="state directory (default: ./ipkpq-state)")
    sub = parser.add_subparsers(dest="command", required=True)

    center = sub.add_parser("center", help="key-center operations").add_subparsers(
        dest="subcommand", required=True)
    p = center.add_parser("init", help="generate matrices and start a File_PK")
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--h", type=int, default=32)
    p.add_argument("--level", type=int, default=44, choices=sorted(LEVELS))
    p.set_defaults(func=cmd_center_init)
    p = center.add_parser("register", help="register a CA identity")
    p.add_argument("--id", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--days", type=int, default=365)
    p.add_argument("--prefix", action="append", help="prefix the id may sign for")
    p.add_argument("--asn", action="append", help="single ASN or lo-hi range")
    p.set_defaults(func=cmd_center_register)
    p = center.add_parser("publish", help="export File_PK and the registration table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_center_publish)

    filepk = sub.add_parser("filepk", help="directory-file tooling").add_subparsers(
        dest="subcommand", required=True)
    p = filepk.add_parser("inspect")
    p.add_argument("path")
    p.set_defaults(func=cmd_filepk_inspect)
    p = filepk.add_parser("lookup")
    p.add_argument("path")
    p.add_argument("--id", required=True)
    p.set_defaults(func=cmd_filepk_lookup)

    p = sub.add_parser("resolve", help="derive and check a public key from (id, R)")
    p.add_argument("--id", required=True)
    p.add_argument("--r", required=True, help="accompanying key R, hex")
    p.add_argument("--filepk", required=True)
    p.set_defaults(func=cmd_resolve)

    ca = sub.add_parser("ca", help="certificate-authority operations").add_subparsers(
        dest="subcommand", required=True)
    p = ca.add_parser("init-root")
    p.add_argument("--name", required=True)
    p.add_argument("--mode", choices=[MODE_STANDARD, MODE_IPKPQ], required=True)
    p.add_argument("--level", type=int, default=44, choices=sorted(LEVELS))
    p.add_argument("--days", type=int, default=3650)
    p.set_defaults(func=cmd_ca_init_root)
    p = ca.add_parser("provision")
    p.add_argument("--parent", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--prefix", action="append")
    p.add_argument("--asn", action="append", help="single ASN or lo-hi range")
    p.set_defaults(func=cmd_ca_provision)
    p = ca.add_parser("issue-rc")
    p.add_argument("--parent", required=True)
    p.add_argument("--child", required=True)
    p.set_defaults(func=cmd_ca_issue_rc)
    p = ca.add_parser("issue-roa")
    p.add_argument("--ca", required=True)
    p.add_argument("--prefix", action="append")
    p.add_argument("--asn", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ca_issue_roa)

    p = sub.add_parser("validate", help="validate a ROA and print the report")
    p.add_argument("--mode", choices=[MODE_STANDARD, MODE_IPKPQ], required=True)
    p.add_argument("--roa", required=True)
    p.add_argument("--now", type=int, help="validation clock, epoch seconds")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="run the benchmark harness")
    p.add_argument("which", choices=["gen", "verify", "overhead"])
    p.add_argument("--level", type=int, default=44, choices=sorted(LEVELS))
    p.add_argument("--mode", choices=["both", MODE_STANDARD, MODE_IPKPQ],
                   default="both")
    p.add_argument("--depth", default="3", help="single depth or range like 3..8")
    p.add_argument("--roas", type=int, default=50)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IpkpqError, OSError) as exc:  # OSError: a file missing or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
