"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration. Criteria 7 and 8 measure wall time and are the only
statistical checks (median-of-rounds with the stated ratio floors); all
other criteria are exact.
"""

import statistics

import pytest

from conftest import make_center, register
from ipkpq import pk_directory, pk_resolver
from ipkpq.bench import (
    Scenario,
    run_generation,
    run_overhead_accounting,
    run_verification,
)
from ipkpq.chain_validator import IpkpqValidator
from ipkpq.drbg import Drbg
from ipkpq.errors import DecodeError
from ipkpq.key_center import init_center
from ipkpq.keygen_protocol import (
    Msg1,
    Msg2,
    Msg3,
    ca_begin,
    ca_finish,
    decode_frame,
    encode_frame,
    kc_commit,
    kc_respond,
    run_keygen,
)
from ipkpq.mldsa import (
    LEVELS,
    decode_rho,
    expand_keygen_seed,
    keygen,
    keygen_from_components,
    sign,
    verify,
)
from ipkpq.pk_resolver import FileResolver
from ipkpq.rpki_objects import (
    InrSet,
    Manifest,
    ManifestEntry,
    MODE_IPKPQ,
    MODE_STANDARD,
    Metrics,
    ResourceCert,
    RoaObject,
    issue_roa,
)
from test_rpki_objects import WINDOW, build_tree
from test_seed_fabric import FROZEN_4, FROZEN_32, FROZEN_RHO_4, oracle_indices

NOW = (WINDOW[0] + WINDOW[1]) // 2


def report(criterion: str, detail: str) -> None:
    print(f"\nPASS {criterion}: {detail}")


def test_criterion_01_fips204_known_answer_conformance(mldsa_kat):
    """Sign/verify match the frozen oracle vectors; component keygen
    reproduces oracle key pairs from each vector's internal expansion."""
    checked = 0
    for num, data in mldsa_kat["levels"].items():
        level = LEVELS[int(num)]
        for vec in data["keygen"]:
            xi = bytes.fromhex(vec["xi"])
            assert keygen(level, xi) == (bytes.fromhex(vec["sk"]),
                                         bytes.fromhex(vec["pk"]))
            components = expand_keygen_seed(level, xi)
            assert keygen_from_components(level, *components) == (
                bytes.fromhex(vec["sk"]), bytes.fromhex(vec["pk"]))
            checked += 1
        for vec in data["sign"]:
            xi, msg, ctx = (bytes.fromhex(vec[k]) for k in ("xi", "msg", "ctx"))
            sk, pk = keygen(level, xi)
            sig = sign(sk, msg, ctx)
            assert sig == bytes.fromhex(vec["sig"])
            assert verify(pk, msg, ctx, sig) is True
            bad_sig = bytearray(sig)
            bad_sig[7] ^= 0x20
            assert verify(pk, msg, ctx, bytes(bad_sig)) is False
            assert verify(pk, msg + b"\x00", ctx, sig) is False
            checked += 1
    report("criterion 1 (FIPS 204 conformance)",
           f"{checked} known-answer vectors byte-exact across 3 levels")


def test_criterion_02_key_sizes():
    """Generated sk/pk lengths are exactly the published per-level sizes."""
    expected = {44: (2560, 1312), 65: (4032, 1952), 87: (4896, 2592)}
    for num, (sk_len, pk_len) in expected.items():
        level = LEVELS[num]
        sk, pk = keygen(level, bytes(32))
        assert (len(sk), len(pk)) == (sk_len, pk_len)
        assert (level.sk_len, level.pk_len) == (sk_len, pk_len)
    report("criterion 2 (key sizes)",
           "sk/pk = 2560/1312, 4032/1952, 4896/2592 bytes")


@pytest.mark.parametrize("num", sorted(LEVELS))
def test_criterion_03_end_to_end_keygen_agreement(num):
    """100 protocol runs per level: published pk byte-equals the CA's,
    resolution returns it, and the key pair sign/verify round-trips."""
    level = LEVELS[num]
    center = init_center(8, 8, level, Drbg(f"accept3-{num}"))
    failures = 0
    for i in range(100):
        ident = f"CA{i}"
        register(center, ident, seed=f"reg-{num}-{i}")
        result = run_keygen(center, ident, Drbg(f"ca-{num}-{i}"))
        file = center.publish_file_pk()
        if pk_directory.lookup(file, ident) != result.pk:
            failures += 1
            continue
        resolved = pk_resolver.resolve(ident, result.R, file)
        if resolved is None or resolved.pk != result.pk:
            failures += 1
            continue
        msg = b"roa payload %d" % i
        if not verify(result.pk, msg, b"", sign(result.sk, msg)):
            failures += 1
    assert failures == 0
    report(f"criterion 3 (keygen agreement, ML-DSA-{num})",
           "100/100 runs agreed, resolved, and round-tripped")


def test_criterion_04_substitution_attack_resistance(enrolled_center):
    """1000 mutations each of R, id, and the stored pk: zero acceptances."""
    center, result = enrolled_center
    file = center.publish_file_pk()
    resolver = FileResolver(file)
    table = center.registration_table()
    validator = IpkpqValidator(resolver, table)
    roa_like = b"sample object"
    sig = sign(result.sk, roa_like)
    rng = Drbg("accept4")

    false_accepts = 0

    # R substitutions
    for _ in range(1000):
        mutated = bytearray(result.R)
        mutated[rng(1)[0] % 32] ^= 1 + rng(1)[0] % 255
        if pk_resolver.resolve("APNIC", bytes(mutated), file) is not None:
            false_accepts += 1

    # id substitutions (any decodable identity other than the registered one)
    for i in range(1000):
        mutated_id = f"APNIC{chr(65 + rng(1)[0] % 26)}{i % 97}"
        if pk_resolver.resolve(mutated_id, result.R, file) is not None:
            false_accepts += 1

    # stored-pk substitutions: flip a byte of the record payload in place;
    # seed-region flips must fail resolution, body flips must fail the
    # signature check on anything the key signs
    record_off = next(off for off, rid, _ in pk_directory.iter_records(file)
                      if rid == "APNIC")
    pk_off = record_off + 2 + len(b"APNIC")
    for trial in range(1000):
        pos = rng(2)
        index = (pos[0] << 8 | pos[1]) % 1312
        tampered = bytearray(file)
        tampered[pk_off + index] ^= 1 + rng(1)[0] % 255
        resolved = pk_resolver.resolve("APNIC", result.R, bytes(tampered))
        if resolved is None:
            continue
        if verify(resolved.pk, roa_like, b"", sig):
            false_accepts += 1

    assert false_accepts == 0
    report("criterion 4 (substitution resistance)",
           "3000/3000 mutations rejected (R, id, stored pk)")


def test_criterion_05_escrow_freedom():
    """The key center's complete view never reconstructs the CA's key."""
    center = make_center(seed="accept5")
    mismatches = 0
    for i in range(100):
        ident = f"CA{i}"
        register(center, ident, seed=f"r{i}")
        ca_state, msg1 = ca_begin(Drbg(f"ca{i}"))
        kc_state, msg2 = kc_respond(center, ident, msg1)
        ca_state, msg3 = ca_finish(ca_state, msg2, center.level)
        kc_commit(center, kc_state, msg3)
        _, ca_pk, _ = ca_state.result

        # center view: rho, the masked rho' it sent, Kr, and all sealed state.
        # Its best candidate key uses the masked rho' (it cannot remove the
        # CA-side registration randomness) and Kr (it cannot unblind K_ca).
        _, candidate_pk = keygen_from_components(
            center.level, msg2.rho, msg2.rho_prime_masked, msg1.Kr)
        if candidate_pk != ca_pk:
            mismatches += 1
    assert mismatches == 100
    report("criterion 5 (escrow freedom)",
           "100/100 center-view reconstructions differ from the CA key")


def test_criterion_06_op_count_laws():
    """Exact integer accounting: 2 vs 1 sign ops per ROA; verification is
    1 op at any depth in identity mode vs depth+1 along the chain."""
    for mode, per_roa in ((MODE_STANDARD, 2), (MODE_IPKPQ, 1)):
        _, leaf, _, _, _, rng = build_tree(mode, seed=f"accept6-{mode}")
        metrics = Metrics()
        for _ in range(10):
            issue_roa(leaf, InrSet.of(["10.0.0.0/24"], [(64100, 64100)]),
                      metrics, rng)
        assert metrics.sign_ops == 10 * per_roa

    for depth in range(3, 9):
        scenario = Scenario(mode=MODE_STANDARD, depth=depth, roa_count=2,
                            rounds=1, matrix_dim=8)
        rows = run_verification([scenario])
        assert rows[0].verify_ops == 2 * (depth + 1)
        scenario = Scenario(mode=MODE_IPKPQ, depth=depth, roa_count=2,
                            rounds=1, matrix_dim=8)
        rows = run_verification([scenario])
        assert rows[0].verify_ops == 2 * 1
    report("criterion 6 (op-count laws)",
           "sign ops 2 vs 1 per ROA; verify ops depth+1 vs 1 for depths 3..8")


def test_criterion_07_throughput_ratios_at_depth_3():
    """Paired interleaved rounds at L44: identity-mode generation at least
    1.1x standard, verification at least 2x, medians of 8 rounds."""
    std = Scenario(mode=MODE_STANDARD, level=44, depth=3, roa_count=25,
                   rounds=8, matrix_dim=8)
    ipk = Scenario(mode=MODE_IPKPQ, level=44, depth=3, roa_count=25,
                   rounds=8, matrix_dim=8)

    gen_rows = run_generation([std, ipk])
    gen_median = {
        mode: statistics.median(r.roas_per_sec for r in gen_rows if r.mode == mode)
        for mode in (MODE_STANDARD, MODE_IPKPQ)
    }
    gen_ratio = gen_median[MODE_IPKPQ] / gen_median[MODE_STANDARD]
    assert gen_ratio >= 1.1, f"generation ratio {gen_ratio:.2f} below 1.1x"

    ver_rows = run_verification([std, ipk])
    ver_median = {
        mode: statistics.median(r.roas_per_sec for r in ver_rows if r.mode == mode)
        for mode in (MODE_STANDARD, MODE_IPKPQ)
    }
    ver_ratio = ver_median[MODE_IPKPQ] / ver_median[MODE_STANDARD]
    assert ver_ratio >= 2.0, f"verification ratio {ver_ratio:.2f} below 2x"
    report("criterion 7 (throughput ratios)",
           f"generation {gen_ratio:.2f}x (floor 1.1), "
           f"verification {ver_ratio:.2f}x (floor 2.0)")


def test_criterion_08_depth_scaling_trends():
    """Depths 3..8: standard bytes/time strictly increase (slope > 0,
    R^2 > 0.99 on the exact byte model); identity-mode bytes and time stay
    within a 1.25 max/min band."""
    depths = list(range(3, 9))
    std_rows = run_overhead_accounting(
        Scenario(mode=MODE_STANDARD, roa_count=1, rounds=1, matrix_dim=8),
        max_depth=8)
    ipk_rows = run_overhead_accounting(
        Scenario(mode=MODE_IPKPQ, roa_count=1, rounds=1, matrix_dim=8),
        max_depth=8)

    std_bytes = [r.bytes_fetched for r in std_rows]
    assert std_bytes == sorted(std_bytes) and len(set(std_bytes)) == 6
    assert statistics.correlation(depths, std_bytes) ** 2 > 0.99
    slope, _ = statistics.linear_regression(depths, std_bytes)
    assert slope > 0
    std_storage = [r.storage_bytes for r in std_rows]
    assert statistics.correlation(depths, std_storage) ** 2 > 0.99

    ipk_bytes = [r.bytes_fetched for r in ipk_rows]
    assert max(ipk_bytes) / min(ipk_bytes) <= 1.25
    ipk_storage = [r.storage_bytes for r in ipk_rows]
    assert max(ipk_storage) / min(ipk_storage) <= 1.25

    # wall-time trend: depths visited round-robin (so machine drift cannot
    # masquerade as a depth effect), median of 5 warm rounds of 20
    # validations; the cold round 0 warms the caches and is not timed
    def depth_times(mode):
        rows = run_verification([
            Scenario(mode=mode, depth=depth, roa_count=20, rounds=6, matrix_dim=8)
            for depth in depths])
        return [statistics.median(r.run_s for r in rows
                                  if r.depth == d and r.cache == "warm")
                for d in depths]

    std_times = depth_times(MODE_STANDARD)
    assert statistics.correlation(depths, std_times) > 0.9, \
        f"standard time not increasing with depth: {std_times}"
    ipk_times = depth_times(MODE_IPKPQ)
    flatness = max(ipk_times) / min(ipk_times)
    assert flatness <= 1.25, f"identity-mode time varies {flatness:.2f}x: {ipk_times}"
    report("criterion 8 (depth scaling)",
           f"standard bytes {std_bytes[0]}->{std_bytes[-1]} (R^2 > 0.99); "
           f"identity bytes {min(ipk_bytes)}..{max(ipk_bytes)}, "
           f"time band {flatness:.2f}x (cap 1.25)")


def test_criterion_09_format_round_trips():
    """decode(encode(x)) = x over 10,000 randomized instances across the
    directory file, TLV objects, and wire frames; truncation fuzzing always
    yields structured errors, never crashes."""
    rng = Drbg("accept9")
    total = 0

    # 4,000 directory records across 40 files
    level = LEVELS[44]
    from ipkpq.seed_fabric import gen_matrices
    for f in range(40):
        _, pub = gen_matrices(2, 2, rng)
        file = pk_directory.create(pk_directory.FilePkHeader(level, 2, 2), pub)
        expected = []
        for r in range(100):
            ident = f"CA{f}-{rng(1)[0]}-{r}"
            pk = rng(4) * 328
            file = pk_directory.append_record(file, ident, pk)
            expected.append((ident, pk))
        parsed = [(rid, pk) for _, rid, pk in pk_directory.iter_records(file)]
        assert parsed == expected
        assert pk_directory.extract_matrix(file) == pub
        total += 100

    # 3,000 TLV objects (certificates, ROAs, manifests), unsigned content
    for i in range(1000):
        inr = InrSet.of([f"10.{rng(1)[0]}.0.0/16"],
                        [(int.from_bytes(rng(2), "big"),
                          65536 + int.from_bytes(rng(2), "big"))])
        mode = MODE_STANDARD if i % 2 else MODE_IPKPQ
        spki = rng(1312) if mode == MODE_STANDARD else (f"CA{i}", rng(32))
        cert = ResourceCert(
            mode=mode, serial=i, issuer_name=f"P{i}", subject_name=f"C{i}",
            inr=inr, valid_from=i, valid_to=i + 1, ski=rng(32), aki=rng(32),
            crl_uri=f"rsync://x/{i}.crl", aia_uri=f"rsync://x/{i}.cer",
            repo_uri=f"rsync://x/{i}/", mft_uri=f"rsync://x/{i}.mft",
            spki=spki, signature=rng(64))
        assert ResourceCert.decode(cert.encode()) == cert
        if mode == MODE_IPKPQ:
            roa = RoaObject(mode, f"C{i}", inr, signer_r=rng(32),
                            signature=rng(2420))
        else:
            roa = RoaObject(mode, f"C{i}", inr, ee_pk=rng(1312), ee_cert=cert,
                            signature=rng(2420))
        assert RoaObject.decode(roa.encode()) == roa
        mft = Manifest(f"C{i}", tuple(
            ManifestEntry(f"obj{j}", rng(32)) for j in range(i % 4)))
        assert Manifest.decode(mft.encode()) == mft
        total += 3

    # 3,000 wire frames
    for i in range(1000):
        lvl = LEVELS[(44, 65, 87)[i % 3]]
        for msg in (Msg1(Kr=rng(32)),
                    Msg2(R=rng(32), rho_prime_masked=rng(64), rho=rng(32)),
                    Msg3(t1=rng(lvl.pk_len - 32))):
            decoded, got_level = decode_frame(encode_frame(msg, lvl))
            assert decoded == msg and got_level == lvl
            total += 1

    assert total == 10_000

    # truncation fuzzing: structured DecodeError or a clean parse, never a crash
    fuzz_errors = 0
    frame = encode_frame(Msg2(R=rng(32), rho_prime_masked=rng(64), rho=rng(32)),
                         level)
    sample_cert = cert.encode()
    _, pub = gen_matrices(2, 2, rng)
    small_file = pk_directory.append_record(
        pk_directory.create(pk_directory.FilePkHeader(level, 2, 2), pub),
        "CA", rng(4) * 328)
    for blob, parser in ((frame, decode_frame),
                         (sample_cert, ResourceCert.decode),
                         (small_file, lambda b: (pk_directory.extract_matrix(b),
                                                 list(pk_directory.iter_records(b))))):
        for cut in range(0, len(blob), 7):
            try:
                parser(blob[:cut])
            except DecodeError:
                fuzz_errors += 1
    assert fuzz_errors > 0
    report("criterion 9 (format round-trips)",
           f"{total} randomized instances round-tripped; "
           f"{fuzz_errors} truncations all raised structured errors")


def test_criterion_10_identity_mapping_determinism():
    """Index mapping and seed derivation match the independent brute-force
    recomputation on the pinned fixtures, byte for byte."""
    from conftest import tiny_matrices
    from ipkpq.seed_fabric import (
        IdentityHandle,
        derive_public_seed,
        map_indices,
    )

    handle = IdentityHandle("APNIC", b"\x01" * 32)
    assert map_indices(handle, 4, 4) == FROZEN_4
    assert map_indices(handle, 32, 32) == FROZEN_32
    assert map_indices(handle, 4, 4) == tuple(oracle_indices("APNIC", b"\x01" * 32, 4, 4))
    assert map_indices(handle, 32, 32) == tuple(
        oracle_indices("APNIC", b"\x01" * 32, 32, 32))

    _, pub4 = tiny_matrices()
    assert derive_public_seed(handle, pub4) == FROZEN_RHO_4

    rng = Drbg("accept10")
    from ipkpq.seed_fabric import gen_matrices, seed_sum
    _, pub32 = gen_matrices(32, 32, rng)
    rows = oracle_indices("APNIC", b"\x01" * 32, 32, 32)
    expected = seed_sum([pub32.entry(rows[c], c) for c in range(32)])
    assert derive_public_seed(handle, pub32) == expected
    report("criterion 10 (identity mapping determinism)",
           "frozen fixtures and brute-force recomputation agree on 4x4 and 32x32")
