"""Live LogServer: real sockets, harvest parity, storm bursts.

The acceptance bar for the served-log layer: all five RFC 6962
endpoints answer over genuine HTTP (including a 400 and a 429 on the
wire, never a bare 500 page), a corpus harvested purely through the
HTTP API is bit-identical to one read from the in-process
:class:`~repro.ct.log.CTLog`, and a seeded load-storm burst completes
cleanly under both executor modes of CI's matrix.
"""

import base64
import http.client
import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from datetime import timedelta

import pytest

from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.merkle import (
    leaf_hash,
    verify_consistency_proof,
    verify_inclusion_proof,
)
from repro.ct.server import (
    HarvestedLog,
    HarvestMismatchError,
    LogClient,
    LogClientError,
    LogServer,
    _LogServerHandler,
    harvest_log,
)
from repro.ct.storage import dump_log
from repro.dataset import CertCorpus
from repro.obs import EventLog, MetricsRegistry
from repro.resilience import DEFAULT_RETRYABLE
from repro.util.timeutil import utc_datetime
from repro.workloads.loadgen import LoadStormConfig, plan_storm, run_storm
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 10, 0)

# CI's log-server-smoke job pins one executor per matrix leg via
# REPRO_EXECUTOR; locally both run.
EXECUTORS = (
    [os.environ["REPRO_EXECUTOR"]]
    if os.environ.get("REPRO_EXECUTOR")
    else ["process", "thread"]
)


def _build_log(name="Live Served Log", entries=12, **kwargs):
    log = CTLog(name=name, operator="Live", key=log_key(name, 256), **kwargs)
    ca = CertificateAuthority("Live Serve CA", key_bits=256)
    for i in range(entries):
        ca.issue(
            IssuanceRequest(
                (f"live{i}.example", f"www.live{i}.example")
            ),
            [log],
            NOW + timedelta(seconds=i),
        )
    return log


def _precerts(count, tag):
    ca = CertificateAuthority(f"Live Submit CA {tag}", key_bits=256)
    scratch = CTLog(
        name=f"live-scratch-{tag}",
        operator="Live",
        key=log_key(f"live-scratch-{tag}", 256),
    )
    pairs = [
        ca.issue(IssuanceRequest((f"s{i}.{tag}.example",)), [scratch], NOW)
        for i in range(count)
    ]
    return [pair.precertificate for pair in pairs], ca.issuer_key_hash


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode())


def test_all_five_endpoints_over_real_http():
    log = _build_log()
    with LogServer(log, clock=lambda: NOW) as server:
        base = server.log_url(log.name)
        client = LogClient(base)

        sth = client.get_sth()
        assert sth["tree_size"] == 12
        assert base64.b64decode(sth["sha256_root_hash"]) == log.tree.root()

        entries = client.get_entries(0, 11)
        assert [entry.leaf_input for entry in entries] == [
            entry.leaf_input for entry in log.entries
        ]

        leaf = log.entries[7].leaf_input
        index, path = client.get_proof_by_hash(leaf_hash(leaf), 12)
        assert index == 7
        assert verify_inclusion_proof(leaf, 7, 12, path, log.tree.root())

        proof = client.get_sth_consistency(5, 12)
        assert proof == log.tree.consistency_proof(5, 12)

        (precert,), issuer_key_hash = _precerts(1, "live")
        sct = client.add_pre_chain(precert, issuer_key_hash)
        assert sct.log_id == log.log_id
        assert log.size == 13

        # The index page lists the mount.
        status, payload = _get_json(server.url)
        assert status == 200
        assert payload["logs"][0]["slug"] == "live-served-log"


def test_errors_arrive_as_json_over_the_wire():
    log = _build_log(entries=4, capacity_per_day=4, strict_capacity=True)
    with LogServer(log, clock=lambda: NOW) as server:
        base = server.log_url(log.name)

        # 400: malformed range, straight HTTP (no client wrapper).
        try:
            urllib.request.urlopen(
                f"{base}/ct/v1/get-entries?start=9&end=2", timeout=10
            )
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            payload = json.loads(exc.read().decode())
            assert payload["code"] == 400 and "invalid range" in payload["error"]

        # 429: the log's daily capacity is exhausted by the seed.
        (precert,), issuer_key_hash = _precerts(1, "overload")
        client = LogClient(base)
        with pytest.raises(LogClientError) as excinfo:
            client.add_pre_chain(precert, issuer_key_hash)
        assert excinfo.value.status == 429
        assert excinfo.value.body["code"] == 429


def test_http_harvest_is_bit_identical_to_in_process_log(tmp_path):
    log = _build_log(entries=10)
    with LogServer(log, clock=lambda: NOW) as server:
        client = LogClient(server.log_url(log.name))
        replica = harvest_log(
            client, name=log.name, operator=log.operator, page_size=3
        )

    assert isinstance(replica, HarvestedLog)
    assert replica.size == log.size
    assert replica.tree.root() == log.tree.root()
    assert replica.entries == log.entries

    # Byte-identical persisted dumps...
    direct_path = tmp_path / "direct.jsonl"
    harvested_path = tmp_path / "harvested.jsonl"
    dump_log(log, direct_path)
    dump_log(replica, harvested_path)
    assert harvested_path.read_bytes() == direct_path.read_bytes()

    # ...and an identical columnar corpus.
    direct = CertCorpus.from_logs([log])
    via_http = CertCorpus.from_logs([replica])
    assert len(direct) == len(via_http) == 10
    for column in (
        "issuer_org", "serial", "day", "log_name", "month",
        "is_precert", "names",
    ):
        assert getattr(direct, column) == getattr(via_http, column)


def test_harvest_detects_truncated_replica():
    log = _build_log(entries=6)
    with LogServer(log, clock=lambda: NOW) as server:

        class LyingClient(LogClient):
            def get_entries(self, start, end):
                entries = super().get_entries(start, end)
                return entries[:-1] if end >= 5 else entries

        client = LyingClient(server.log_url(log.name))
        with pytest.raises(HarvestMismatchError):
            harvest_log(client, page_size=6)


def test_harvest_pinned_to_sth_while_log_grows_concurrently():
    """TOCTOU regression: appends landing mid-harvest must not leak in.

    Every ``get-entries`` round triggers a concurrent submission over
    the same HTTP server before the page is fetched, so the served
    tree is strictly larger than the STH the harvest pinned up front.
    The replica must stop at the pinned tree size and still verify
    against the pinned root — growth after the STH fetch is invisible.
    """
    log = _build_log(entries=9)
    precerts, issuer_key_hash = _precerts(6, "toctou")
    with LogServer(log, clock=lambda: NOW) as server:
        base = server.log_url(log.name)
        submitter = LogClient(base)

        class GrowingClient(LogClient):
            def __init__(self, url):
                super().__init__(url)
                self.pending = list(precerts)

            def get_entries(self, start, end):
                if self.pending:  # the log grows before every page
                    submitter.add_pre_chain(
                        self.pending.pop(), issuer_key_hash
                    )
                return super().get_entries(start, end)

        client = GrowingClient(base)
        pinned = int(client.get_sth()["tree_size"])
        assert pinned == 9

        replica = harvest_log(
            client, name=log.name, operator=log.operator, page_size=2
        )

    assert replica.size == pinned  # not one entry past the pinned STH
    assert [entry.index for entry in replica.entries] == list(range(pinned))
    assert replica.entries == log.entries[:pinned]
    assert log.size > pinned  # the concurrent appends really landed
    # harvest_log verified the rebuilt root against the pinned STH; a
    # second harvest after the growth settles sees the longer log.
    with LogServer(log, clock=lambda: NOW) as server:
        settled = harvest_log(
            LogClient(server.log_url(log.name)),
            name=log.name,
            operator=log.operator,
            page_size=4,
        )
    assert settled.size == log.size
    assert settled.tree.root() == log.tree.root()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_storm_burst_under_both_executors(executor):
    log = _build_log(entries=8)
    config = LoadStormConfig(
        seed=11,
        browsers=2,
        monitors=1,
        submitters=1,
        audits_per_browser=3,
        pages_per_monitor=2,
        page_size=4,
        submissions_per_submitter=3,
        # One await_inclusion op fans out into many polls; keep the
        # request count exact so the middleware tally below stays 1:1.
        await_inclusion=False,
    )
    plans = plan_storm(config, log)
    metrics = MetricsRegistry()
    events = EventLog()
    with LogServer(
        log, clock=lambda: NOW, metrics=metrics, events=events
    ) as server:
        report = run_storm(
            plans, server.log_url(log.name), executor=executor, workers=4
        )

    assert report.executor == executor
    assert report.transport_errors == 0
    assert report.verification_failures == 0
    assert report.submissions_ok == config.planned_submissions
    assert report.reads_ok == sum(plan.reads for plan in plans)
    assert log.size == 8 + config.planned_submissions

    # The middleware saw every request the clients made.
    total_ops = sum(len(result.ops) for result in report.results)
    served = sum(
        count
        for key, count in metrics.snapshot().counters.items()
        if key.startswith("log_server.responses")
    )
    assert served == total_ops == events.emitted


# -- persistent connections ----------------------------------------------------


@pytest.fixture
def connects(monkeypatch):
    """Count TCP connects made through ``http.client``."""
    counter = {"n": 0}
    original = http.client.HTTPConnection.connect

    def counting(self):
        counter["n"] += 1
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return counter


def test_calls_on_one_client_share_one_connection(connects):
    log = _build_log()
    with LogServer(log, clock=lambda: NOW) as server:
        with LogClient(server.log_url(log.name)) as client:
            for _ in range(5):
                client.get_sth()
                client.get_entries(0, 11)
                client.get_proof_by_hash(leaf_hash(log.entries[3].leaf_input), 12)
                client.get_sth_consistency(4, 12)
            (precert,), issuer_key_hash = _precerts(1, "keepalive")
            client.add_pre_chain(precert, issuer_key_hash)
    assert client.requests == 21
    assert connects["n"] == 1


def test_error_answers_do_not_poison_a_kept_alive_connection(connects):
    log = _build_log()
    with LogServer(log, clock=lambda: NOW) as server:
        with LogClient(server.log_url(log.name)) as client:
            for _ in range(3):
                with pytest.raises(LogClientError) as bad_range:
                    client.get_entries(9, 2)
                assert bad_range.value.status == 400
                assert "invalid range" in bad_range.value.body["error"]
                with pytest.raises(LogClientError) as unknown:
                    client.get_proof_by_hash(b"\0" * 32, 12)
                assert unknown.value.status == 404
                assert unknown.value.body["code"] == 404
                entries = client.get_entries(0, 11)
                assert entries == log.entries
    assert client.requests == 9
    assert connects["n"] == 1


def test_reconnects_once_after_the_server_drops_an_idle_connection(
    connects, monkeypatch
):
    monkeypatch.setattr(_LogServerHandler, "timeout", 0.2)
    log = _build_log()
    with LogServer(log, clock=lambda: NOW) as server:
        with LogClient(server.log_url(log.name)) as client:
            first = client.get_sth()
            time.sleep(0.6)  # the handler times the idle connection out
            assert client.get_sth() == first
    # The stale socket was retried on a fresh one: two connects, but the
    # ledger counts one request per call, not per attempt.
    assert connects["n"] == 2
    assert client.requests == 2


def test_refused_connection_is_a_retryable_connection_error(connects):
    log = _build_log(entries=2)
    with LogServer(log, clock=lambda: NOW) as server:
        client = LogClient(server.log_url(log.name))
        client.get_sth()
    # The stopped server hung up the kept-alive connection; the one
    # retry finds nothing listening, and a fresh connection is never
    # retried.
    with pytest.raises(ConnectionRefusedError) as excinfo:
        client.get_sth()
    assert isinstance(excinfo.value, DEFAULT_RETRYABLE)
    assert connects["n"] == 2
    connects["n"] = 0
    with pytest.raises(ConnectionRefusedError):
        client.get_sth()
    assert connects["n"] == 1
    assert client.requests == 3


def _raw_exchange(server, request):
    """Send raw bytes; return (status, headers, json body) once the
    server has closed the connection (a read timeout fails the test)."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


@pytest.mark.parametrize(
    "length, status",
    [
        ("abc", 400),
        ("-5", 400),
        (str(_LogServerHandler.MAX_BODY_BYTES + 1), 413),
    ],
)
def test_bad_or_oversized_content_length_gets_json_error_and_hangup(
    length, status
):
    log = _build_log(entries=2)
    with LogServer(log, clock=lambda: NOW) as server:
        got, headers, body = _raw_exchange(
            server,
            (
                "POST /ct/v1/add-pre-chain HTTP/1.1\r\n"
                "Host: log.example\r\n"
                f"Content-Length: {length}\r\n\r\n"
            ).encode("ascii"),
        )
        assert got == status
        assert body["code"] == status and body["error"]
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        # The server is unharmed: a well-formed request still answers.
        assert LogClient(server.url).get_sth()["tree_size"] == 2
    assert log.size == 2


def test_threads_sharing_one_client_get_verified_answers(connects):
    log = _build_log()
    root = log.tree.root()
    failures = []
    with LogServer(log, clock=lambda: NOW) as server:
        client = LogClient(server.log_url(log.name))

        def worker(offset):
            try:
                for round_ in range(10):
                    index = (offset + round_) % 12
                    leaf = log.entries[index].leaf_input
                    got, path = client.get_proof_by_hash(leaf_hash(leaf), 12)
                    assert got == index
                    assert verify_inclusion_proof(leaf, index, 12, path, root)
                    proof = client.get_sth_consistency(index + 1, 12)
                    assert verify_consistency_proof(
                        index + 1, 12, log.tree.root(index + 1), root, proof
                    )
            except Exception as exc:  # surfaced below, on the main thread
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(k * 3,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the ledger updates hard
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        client.close()
    assert failures == []
    assert client.requests == 80
    assert 1 <= connects["n"] <= 4  # at most one connection per thread


def test_short_lived_threads_reuse_one_pooled_connection(connects):
    """A fresh thread per round (a thread pool per poll round) still
    reuses the client's one idle connection."""
    log = _build_log(entries=4)
    with LogServer(log, clock=lambda: NOW) as server:
        with LogClient(server.log_url(log.name)) as client:
            for _ in range(5):
                thread = threading.Thread(target=client.get_entries, args=(0, 3))
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert client.get_sth()["tree_size"] == 4
    assert client.requests == 6
    assert connects["n"] == 1


def test_bytes_received_ledger_is_unchanged_by_keep_alive():
    """Body bytes only, counted once per call: the same total the
    connection-per-call client recorded for this call sequence (the
    monitor benchmarks gate on this ledger)."""
    log = _build_log()
    with LogServer(log, clock=lambda: NOW) as server:
        with LogClient(server.log_url(log.name)) as client:
            client.get_sth()
            client.get_entries(0, 3)
            client.get_proof_by_hash(leaf_hash(log.entries[5].leaf_input), 12)
            client.get_sth_consistency(3, 12)
            with pytest.raises(LogClientError):
                client.get_entries(9, 2)
            with pytest.raises(LogClientError):
                client.get_proof_by_hash(b"\0" * 32, 12)
    assert client.requests == 6
    assert client.bytes_received == 5412
