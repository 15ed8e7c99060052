"""Resolution semantics: the consistency triple, substitution, online mode."""

import itertools
import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager
from datetime import timedelta

import pytest

from conftest import WINDOW, make_center, register, scan_lookup
from ipkpq import pk_directory, pk_resolver
from ipkpq.drbg import Drbg
from ipkpq.errors import DecodeError, TransportError
from ipkpq.keygen_protocol import run_keygen
from ipkpq.mldsa import LEVELS, decode_rho
from ipkpq.pk_resolver import (
    FileResolver,
    OnlineResolver,
    PkQueryServer,
    resolve,
)
from ipkpq.seed_fabric import IdentityHandle, derive_public_seed


@pytest.fixture()
def setup():
    center = make_center(seed="resolver")
    results = {}
    for i in range(3):
        ident = f"CA{i}"
        register(center, ident, seed=f"r{i}")
        results[ident] = run_keygen(center, ident, Drbg(f"ca{i}"))
    return center, results


class TestOffline:
    def test_resolves_protocol_output(self, setup):
        center, results = setup
        file = center.publish_file_pk()
        for ident, result in results.items():
            resolved = resolve(ident, result.R, file)
            assert resolved is not None
            assert resolved.pk == result.pk

    def test_consistency_triple(self, setup):
        center, results = setup
        file = center.publish_file_pk()
        resolved = resolve("CA0", results["CA0"].R, file)
        matrix = pk_directory.extract_matrix(file)
        rho_local = derive_public_seed(IdentityHandle("CA0", resolved.R), matrix)
        assert decode_rho(resolved.pk) == resolved.rho_checked == rho_local

    def test_substituted_r_is_rejected(self, setup):
        center, results = setup
        file = center.publish_file_pk()
        rng = Drbg("flips")
        r_value = results["CA0"].R
        for _ in range(50):
            pos = rng(1)[0] % 32
            bit = 1 << (rng(1)[0] % 8)
            mutated = bytearray(r_value)
            mutated[pos] ^= bit
            assert resolve("CA0", bytes(mutated), file) is None

    def test_unregistered_id(self, setup):
        center, results = setup
        assert resolve("GHOST", results["CA0"].R, center.publish_file_pk()) is None

    def test_malformed_file_raises_not_none(self, setup):
        center, results = setup
        file = center.publish_file_pk()
        with pytest.raises(DecodeError):
            resolve("CA0", results["CA0"].R, file[:100])

    def test_tampered_record_rho_is_caught(self, setup):
        center, results = setup
        file = bytearray(center.publish_file_pk())
        # flip a byte inside the stored pk's embedded seed for the last record
        header = pk_directory.decode_header(bytes(file))
        last_off = max(off for off, _, _ in pk_directory.iter_records(bytes(file)))
        rho_off = last_off + 2 + len("CA2".encode())
        file[rho_off] ^= 0xFF
        assert resolve("CA2", results["CA2"].R, bytes(file)) is None

    def test_file_resolver_byte_model(self, setup):
        center, results = setup
        file = center.publish_file_pk()
        resolver = FileResolver(file)
        matrix_bytes = pk_directory.decode_header(file).record_region_offset
        resolver.resolve("CA0", results["CA0"].R)
        first = resolver.bytes_fetched
        record_len = 2 + len(b"CA0") + 1312
        assert first == matrix_bytes + record_len
        resolver.resolve("CA0", results["CA0"].R)
        assert resolver.bytes_fetched == first + record_len  # matrix cached


class TestIndexedDirectory:
    def test_resolves_parse_only_records_appended_since(self, setup, monkeypatch):
        center, results = setup
        parsed = []
        real_iter = pk_directory.iter_records

        def counting(file, from_offset=None):
            for record in real_iter(file, from_offset):
                parsed.append(record[0])
                yield record

        monkeypatch.setattr(pk_directory, "iter_records", counting)
        resolver = FileResolver(center.publish_file_pk)
        assert resolver.resolve("CA0", results["CA0"].R) is not None
        assert len(parsed) == 3
        for i in range(12):
            ident = f"CA{i % 3}"
            assert resolver.resolve(ident, results[ident].R) is not None
        assert len(parsed) == 3
        register(center, "LATE", seed="late")
        late = run_keygen(center, "LATE", Drbg("late-ca"))
        assert resolver.resolve("LATE", late.R).pk == late.pk
        assert len(parsed) == 4

    def test_concurrent_queries_while_the_center_appends(self, setup):
        center, _ = setup
        published = {}  # id -> every file the server was handed, kept alive

        def provider():
            file = center.publish_file_pk()
            published.setdefault(id(file), file)
            return file

        ids = ["CA0", "CA1", "CA2", "NEW0", "NEW1", "NEW2", "absent"]
        answers, errors = [], []
        stop = threading.Event()

        def client(k):
            online = OnlineResolver(server.endpoint)
            try:
                for i in itertools.count(k):
                    if stop.is_set():
                        return
                    ident = ids[i % len(ids)]
                    answers.append((ident, online.fetch_record(ident)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)
            finally:
                online.close()

        server = PkQueryServer(provider).start()
        clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads often
        try:
            for thread in clients:
                thread.start()
            for n in range(3):
                register(center, f"NEW{n}", seed=f"new{n}")
                run_keygen(center, f"NEW{n}", Drbg(f"new-ca{n}"))
            center.renew("CA0", WINDOW[1] + timedelta(days=1), Drbg("renew"))
            run_keygen(center, "CA0", Drbg("renew-ca"))
            time.sleep(0.2)  # let every client query the final file too
        finally:
            sys.setswitchinterval(switch_interval)
            stop.set()
            for thread in clients:
                thread.join(timeout=10)
            server.stop()
        assert not any(thread.is_alive() for thread in clients)
        assert not errors
        expected = [{ident: scan_lookup(file, ident) for ident in ids}
                    for file in published.values()]
        for ident, pk in answers:
            assert any(answer[ident] == pk for answer in expected), ident
        final = center.publish_file_pk()
        assert (ids[0], scan_lookup(final, ids[0])) in answers  # the renewed key


@contextmanager
def scripted_server(*answers):
    """Answer the i-th connection's request with answers[i](conn); yields the endpoint."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        for answer in answers:
            conn, _ = listener.accept()
            with conn:
                try:
                    pk_resolver._recv_msg(conn, pk_resolver.MAX_REQUEST_BYTES,
                                          time.monotonic() + 10)
                    answer(conn)
                except OSError:
                    pass  # the client hung up first

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10)
        listener.close()


def count_connections(monkeypatch):
    """The endpoints of every connection opened from now on, in order."""
    connects = []
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        connects.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(pk_resolver.socket, "create_connection", counting)
    return connects


def wait_for_hangup(conn):
    conn.settimeout(10)
    while conn.recv(1 << 16):
        pass


class TestOnline:
    def test_verdicts_match_offline(self, setup):
        center, results = setup
        file = center.publish_file_pk()
        server = PkQueryServer(file).start()
        online = OnlineResolver(server.endpoint)
        try:
            rng = Drbg("queries")
            checked = 0
            for i in range(100):
                kind = i % 4
                if kind == 0:
                    ident, r_value = "CA0", results["CA0"].R
                elif kind == 1:
                    ident, r_value = f"CA{i % 3}", rng(32)  # wrong R
                elif kind == 2:
                    ident, r_value = f"GHOST{i}", results["CA1"].R
                else:
                    ident, r_value = "CA2", results["CA2"].R
                off = resolve(ident, r_value, file)
                on = online.resolve(ident, r_value)
                assert (off is None) == (on is None)
                if off is not None:
                    assert off == on
                checked += 1
            assert checked == 100
        finally:
            online.close()
            server.stop()

    def test_warm_query_byte_budget(self, setup):
        center, results = setup
        server = PkQueryServer(center.publish_file_pk()).start()
        online = OnlineResolver(server.endpoint)
        try:
            online.resolve("CA0", results["CA0"].R)  # cold: matrix + record
            warm_start = online.bytes_fetched
            online.resolve("CA0", results["CA0"].R)
            per_query = online.bytes_fetched - warm_start
            record_len = 2 + len(b"CA0") + 1312
            assert per_query < record_len + 64
        finally:
            online.close()
            server.stop()

    def test_server_substitution_is_caught_client_side(self, setup):
        center, results = setup
        honest = center.publish_file_pk()
        # malicious server: answers CA0 queries with CA1's public key
        pk_ca1 = pk_directory.lookup(honest, "CA1")
        header_len = pk_directory.decode_header(honest).record_region_offset
        evil = honest[:header_len]
        evil = pk_directory.append_record(evil, "CA0", pk_ca1)
        server = PkQueryServer(evil).start()
        online = OnlineResolver(server.endpoint)
        try:
            assert online.resolve("CA0", results["CA0"].R) is None
        finally:
            online.close()
            server.stop()

    def test_caching_transparency(self, setup):
        center, results = setup
        server = PkQueryServer(center.publish_file_pk()).start()
        warmed, fresh = OnlineResolver(server.endpoint), OnlineResolver(server.endpoint)
        try:
            warmed.resolve("CA1", results["CA1"].R)
            cached_answer = warmed.resolve("CA0", results["CA0"].R)
            fresh_answer = fresh.resolve("CA0", results["CA0"].R)
            assert cached_answer == fresh_answer
        finally:
            warmed.close()
            fresh.close()
            server.stop()

    def test_transport_failure_is_distinct_from_bottom(self, setup):
        center, results = setup
        server = PkQueryServer(center.publish_file_pk()).start()
        endpoint = server.endpoint
        server.stop()
        with pytest.raises(TransportError):
            OnlineResolver(endpoint).resolve("CA0", results["CA0"].R)

    def test_live_appends_visible_without_matrix_refetch(self, setup):
        center, results = setup
        server = PkQueryServer(lambda: center.publish_file_pk()).start()
        online = OnlineResolver(server.endpoint)
        try:
            assert online.resolve("LATE", b"\x00" * 32) is None
            register(center, "LATE", seed="late")
            late = run_keygen(center, "LATE", Drbg("late-ca"))
            resolved = online.resolve("LATE", late.R)
            assert resolved is not None and resolved.pk == late.pk
        finally:
            online.close()
            server.stop()

    def test_undecodable_directory_is_answered_not_dropped(self, setup, capfd):
        center, results = setup
        mended = bytes(center.publish_file_pk())
        served = [mended + struct.pack(">H", 0) + bytes(LEVELS[44].pk_len)]  # empty id
        server = PkQueryServer(lambda: served[0]).start()
        online = OnlineResolver(server.endpoint)
        try:
            with pytest.raises(DecodeError):
                online.resolve("CA0", results["CA0"].R)
            with pytest.raises(DecodeError):  # the same error as over the file itself
                FileResolver(served[0]).resolve("CA0", results["CA0"].R)
            served[0] = mended
            assert online.resolve("CA0", results["CA0"].R).pk == results["CA0"].pk
        finally:
            online.close()
            server.stop()
        assert "Traceback" not in capfd.readouterr().err

    def test_oversize_request_is_dropped_unread(self, setup):
        center, results = setup
        server = PkQueryServer(center.publish_file_pk()).start()
        online = OnlineResolver(server.endpoint)
        try:
            with socket.create_connection(server.endpoint, timeout=5) as sock:
                # header only: a body this long is never sent, nor read
                sock.sendall(struct.pack(">I", pk_resolver.MAX_REQUEST_BYTES + 1))
                assert sock.recv(1) == b""  # closed without a reply
            assert online.fetch_record("CA0") == results["CA0"].pk
            assert online.fetch_record("x" * 1024) is None  # longest id still fits
        finally:
            online.close()
            server.stop()

    def test_trickling_client_is_cut_off_at_the_deadline(self, setup, monkeypatch):
        monkeypatch.setattr(pk_resolver, "HANDLER_TIMEOUT_S", 0.3)
        center, _ = setup
        server = PkQueryServer(center.publish_file_pk()).start()
        try:
            with socket.create_connection(server.endpoint, timeout=5) as sock:
                sock.sendall(struct.pack(">I", pk_resolver.MAX_REQUEST_BYTES))
                start = time.monotonic()
                try:
                    # a byte per 50 ms never trips a per-read timeout
                    while time.monotonic() - start < 4:
                        sock.sendall(b"\x02")
                        time.sleep(0.05)
                except OSError:
                    pass  # the server hung up
                assert time.monotonic() - start < 2
        finally:
            server.stop()

    def test_idle_client_is_disconnected(self, setup, monkeypatch):
        monkeypatch.setattr(pk_resolver, "HANDLER_TIMEOUT_S", 0.2)
        center, _ = setup
        server = PkQueryServer(center.publish_file_pk()).start()
        try:
            with socket.create_connection(server.endpoint, timeout=5) as sock:
                start = time.monotonic()
                assert sock.recv(1) == b""
                assert time.monotonic() - start < 4
        finally:
            server.stop()

    def test_resolves_share_one_connection(self, setup, monkeypatch):
        center, results = setup
        connects = count_connections(monkeypatch)
        server = PkQueryServer(center.publish_file_pk).start()
        online = OnlineResolver(server.endpoint)
        try:
            for i in range(20):
                ident = f"CA{i % 3}"
                assert online.resolve(ident, results[ident].R).pk == results[ident].pk
            assert connects == [server.endpoint]
        finally:
            online.close()
            server.stop()

    def test_idle_close_reconnects_and_counts_one_exchange(self, setup, monkeypatch):
        monkeypatch.setattr(pk_resolver, "HANDLER_TIMEOUT_S", 0.2)
        center, results = setup
        connects = count_connections(monkeypatch)
        server = PkQueryServer(center.publish_file_pk()).start()
        online = OnlineResolver(server.endpoint)
        try:
            assert online.resolve("CA0", results["CA0"].R) is not None
            before = online.bytes_fetched, online.objects_fetched
            time.sleep(0.4)  # the server closes the idle connection meanwhile
            assert online.resolve("CA0", results["CA0"].R).pk == results["CA0"].pk
            assert len(connects) == 2
            exchange = (4 + 1 + len(b"CA0")) + (4 + 1 + LEVELS[44].pk_len)
            assert (online.bytes_fetched, online.objects_fetched) \
                == (before[0] + exchange, before[1] + 1)
        finally:
            online.close()
            server.stop()

    def test_stop_ends_kept_open_connections(self, setup):
        center, results = setup
        before = set(threading.enumerate())
        server = PkQueryServer(center.publish_file_pk()).start()
        online = OnlineResolver(server.endpoint)
        try:
            assert online.resolve("CA0", results["CA0"].R) is not None
            kept = online._sock
        finally:
            server.stop()
        try:
            kept.settimeout(1)
            assert kept.recv(1) == b""
            assert [t for t in threading.enumerate() if t not in before] == []
        finally:
            online.close()

    def test_response_caps_follow_the_header_format(self):
        # the matrix cap is the region of the largest header that decodes:
        # u16 m at its maximum with h = 16 (h = 32 would allow only m <= 256)
        largest = pk_directory.FilePkHeader(LEVELS[44], 0xFFFF, 16).encode()
        assert pk_directory.decode_header(largest).record_region_offset \
            == pk_resolver.MAX_MATRIX_RESPONSE
        with pytest.raises(DecodeError):
            pk_directory.decode_header(
                pk_directory.FilePkHeader(LEVELS[44], 257, 32).encode())

    def test_oversize_response_is_refused_unread(self, monkeypatch):
        def claim_4gib(conn):
            conn.sendall(struct.pack(">I", 0xFFFFFFFF) + b"\x00" * 4096)
            wait_for_hangup(conn)

        asked = []
        real_recv_exact = pk_resolver._recv_exact

        def spy(sock, n, deadline):
            if threading.current_thread() is threading.main_thread():  # the client
                asked.append(n)
            return real_recv_exact(sock, n, deadline)

        monkeypatch.setattr(pk_resolver, "_recv_exact", spy)
        with scripted_server(claim_4gib) as endpoint:
            with pytest.raises(TransportError, match="exceeds"):
                OnlineResolver(endpoint).resolve("CA0", b"\x00" * 32)
        assert asked == [4]  # the length prefix only, never the body

    def test_oversize_response_on_a_kept_connection_is_not_retried(self, setup):
        center, _ = setup
        file = center.publish_file_pk()
        region = bytes(file[:pk_directory.decode_header(file).record_region_offset])
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)

        def serve():
            conn, _ = listener.accept()
            with conn:
                deadline = time.monotonic() + 10
                pk_resolver._recv_msg(conn, pk_resolver.MAX_REQUEST_BYTES, deadline)
                pk_resolver._send_msg(conn, region)
                pk_resolver._recv_msg(conn, pk_resolver.MAX_REQUEST_BYTES, deadline)
                conn.sendall(struct.pack(">I", 0xFFFFFFFF))
                wait_for_hangup(conn)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            online = OnlineResolver(listener.getsockname())
            with pytest.raises(TransportError, match="exceeds"):
                online.resolve("CA0", b"\x00" * 32)
            thread.join(timeout=10)
            assert not thread.is_alive()
            listener.settimeout(0.2)
            with pytest.raises(TimeoutError):
                listener.accept()  # no second connection: the request was not sent again
        finally:
            listener.close()

    def test_record_response_capped_at_one_plus_pk_len(self, setup):
        center, results = setup
        file = center.publish_file_pk()
        region = file[:pk_directory.decode_header(file).record_region_offset]
        pk_len = LEVELS[44].pk_len

        def serve_matrix(conn):
            pk_resolver._send_msg(conn, region)

        def overlong_record(conn):
            conn.sendall(struct.pack(">I", 2 + pk_len))
            wait_for_hangup(conn)

        with scripted_server(serve_matrix, overlong_record) as endpoint:
            with pytest.raises(TransportError, match=f"{1 + pk_len}-byte limit"):
                OnlineResolver(endpoint).resolve("CA0", results["CA0"].R)

    def test_trickling_server_is_cut_off_at_the_deadline(self):
        stop = threading.Event()

        def trickle(conn):
            conn.sendall(struct.pack(">I", 1000))
            while not stop.wait(0.05):  # a byte per 50 ms never trips a per-read timeout
                conn.sendall(b"\x00")

        with scripted_server(trickle) as endpoint:
            start = time.monotonic()
            try:
                with pytest.raises(TransportError):
                    OnlineResolver(endpoint, timeout=0.5).resolve("CA0", b"\x00" * 32)
                elapsed = time.monotonic() - start
            finally:
                stop.set()
        assert elapsed < 2.0
