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
from urllib.parse import urlsplit

import pytest

from repro.ct.auditor import make_split_view_log
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
    SplitView,
    _LogServerHandler,
    harvest_log,
)
from repro.ct.storage import certificate_to_dict, dump_log
from repro.dataset import CertCorpus
from repro.obs import TRACEPARENT_HEADER, EventLog, MetricsRegistry, SpanTracer
from repro.resilience import DEFAULT_RETRYABLE
from repro.util.timeutil import utc_datetime
from repro.workloads.loadgen import LoadStormConfig
from repro.workloads.scenario import Scenario
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
    spec = Scenario(
        log_entries=8,
        storm=LoadStormConfig(
            seed=11, browsers=2, monitors=1, submitters=1,
            audits_per_browser=3, pages_per_monitor=2, page_size=4,
            submissions_per_submitter=3,
            # One await_inclusion op fans out into many polls; keep the
            # request count exact so the middleware tally below stays 1:1.
            await_inclusion=False,
        ),
        executor=executor,
        workers=4,
    )
    metrics = MetricsRegistry()
    events = EventLog()
    # Leaving the world checks zero transport errors and every read
    # verified.
    with spec.serve(metrics=metrics, events=events) as world:
        report = world.storm()

    assert report.executor == executor
    assert report.submissions_ok == spec.storm.planned_submissions
    assert report.reads_ok == sum(plan.reads for plan in world.plans)
    assert world.log.size == 8 + spec.storm.planned_submissions

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


def _read_to_close(sock):
    """Everything the server sends until it hangs up (a read timeout
    fails the test; a reset after a hang-up with unread input ends it)."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _parse_replies(data):
    """Split a byte stream into [(status, headers, json body)]."""
    replies = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers["Content-Length"])
        body, data = data[:length], data[length:]
        replies.append((int(lines[0].split()[1]), headers, json.loads(body)))
    return replies


def _raw_replies(server, request):
    """Send raw bytes; return every reply once the server has closed
    the connection."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        try:
            sock.sendall(request)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and hung up before reading it all
        return _parse_replies(_read_to_close(sock))


def _raw_exchange(server, request):
    """Send raw bytes; return the one (status, headers, json body)."""
    (reply,) = _raw_replies(server, request)
    return reply


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


# -- server framing on a hostile wire ------------------------------------------

_GET_STH = "GET /ct/v1/get-sth HTTP/1.1\r\nHost: log.example\r\n"

MALFORMED = {
    # One word: no HTTP/0.9 fallback (that answered an HTML page).
    "one-word": (b"GARBAGE\r\n\r\n", 400),
    "no-version": (b"GET /ct/v1/get-sth\r\n\r\n", 400),
    "http2": (b"GET /ct/v1/get-sth HTTP/2.0\r\n\r\n", 400),
    "header-without-colon": ((_GET_STH + "no colon here\r\n\r\n").encode(), 400),
    # A chunked body is never mistaken for the next request, so the
    # pipelined get-sth behind it is not answered out of a desync.
    "chunked": (
        (
            "POST /ct/v1/add-pre-chain HTTP/1.1\r\nHost: log.example\r\n"
            "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            + _GET_STH
            + "\r\n"
        ).encode(),
        501,
    ),
    "101-headers": (
        (_GET_STH + "".join(f"X-Pad-{i}: {i}\r\n" for i in range(100)) + "\r\n").encode(),
        431,
    ),
    "long-header-line": ((_GET_STH + "X-Pad: " + "a" * 65536 + "\r\n\r\n").encode(), 431),
    "long-request-line": (("GET /" + "a" * 65536 + " HTTP/1.1\r\n\r\n").encode(), 414),
    "unknown-method": (b"DELETE /ct/v1/get-sth HTTP/1.1\r\nHost: log.example\r\n\r\n", 501),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_gets_a_json_error_and_a_hangup(case):
    request, status = MALFORMED[case]
    log = _build_log(entries=2)
    with LogServer(log, clock=lambda: NOW) as server:
        got, headers, body = _raw_exchange(server, request)
        assert got == status
        assert body == {"code": status, "error": body["error"]} and body["error"]
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert headers["Server"].startswith("repro-ct-log/1")
        assert headers["Date"].endswith(" GMT")
        assert LogClient(server.url).get_sth()["tree_size"] == 2
    assert log.size == 2


def test_fuzzed_connections_leave_no_handler_threads():
    log = _build_log(entries=2)
    with LogServer(log, clock=lambda: NOW) as server:
        baseline = threading.active_count()
        for request, status in MALFORMED.values():
            assert _raw_exchange(server, request)[0] == status
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == baseline


def test_header_names_are_case_insensitive():
    log = _build_log()
    twin = make_split_view_log(log, fork_at=6, pad_to=log.size)
    tracer = SpanTracer(seed=7, name="case")
    trace_id, span_id = "ab" * 16, "cd" * 8
    with LogServer(SplitView(log, twin), tracer=tracer) as server:
        path = urlsplit(server.log_url(log.name)).path + "/ct/v1/get-sth"
        roots = {}
        for client in ("browser-0", "browser-1"):
            ((status, _, body),) = _raw_replies(
                server,
                (
                    f"GET {path} HTTP/1.1\r\nhost: log.example\r\n"
                    f"x-repro-client: {client}\r\n"
                    f"x-repro-traceparent: {trace_id}-{span_id}\r\n"
                    "connection: close\r\n\r\n"
                ).encode(),
            )
            assert status == 200
            roots[client] = base64.b64decode(body["sha256_root_hash"])
    assert roots == {"browser-0": log.tree.root(), "browser-1": twin.tree.root()}
    served = [span for span in tracer.spans if span.name == "server.get-sth"]
    assert len(served) == 2
    assert {(s.trace_id, s.parent_span_id) for s in served} == {(trace_id, span_id)}


def test_pipelined_requests_get_in_order_replies_on_one_connection():
    log = _build_log()
    with LogServer(log, clock=lambda: NOW) as server:
        replies = _raw_replies(
            server,
            (
                _GET_STH
                + "\r\n"
                + "GET /ct/v1/get-entries?start=3&end=3 HTTP/1.1\r\n"
                + "Host: log.example\r\nConnection: close\r\n\r\n"
            ).encode(),
        )
    (sth_status, sth_headers, sth), (page_status, page_headers, page) = replies
    assert sth_status == page_status == 200
    assert "Connection" not in sth_headers
    assert page_headers["Connection"] == "close"
    assert sth["tree_size"] == 12
    assert len(page["entries"]) == 1


def test_http10_closes_unless_kept_alive():
    log = _build_log(entries=2)
    with LogServer(log, clock=lambda: NOW) as server:
        (reply,) = _raw_replies(server, b"GET /ct/v1/get-sth HTTP/1.0\r\n\r\n")
        assert reply[0] == 200 and reply[1]["Connection"] == "close"
        kept, closed = _raw_replies(
            server,
            b"GET /ct/v1/get-sth HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /ct/v1/get-sth HTTP/1.0\r\n\r\n",
        )
    assert "Connection" not in kept[1]
    assert closed[1]["Connection"] == "close"
    assert kept[2] == closed[2] == reply[2]


def test_expect_100_continue_is_answered_before_the_body_is_read():
    log = _build_log(entries=2)
    (precert,), issuer_key_hash = _precerts(1, "expect")
    body = json.dumps(
        {
            "chain": [certificate_to_dict(precert)],
            "issuer_key_hash": base64.b64encode(issuer_key_hash).decode(),
        }
    ).encode()
    with LogServer(log, clock=lambda: NOW) as server:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(
                (
                    "POST /ct/v1/add-pre-chain HTTP/1.1\r\nHost: log.example\r\n"
                    f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
            )
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            assert log.size == 2
            sock.sendall(body)
            ((status, _, sct),) = _parse_replies(_read_to_close(sock))
    assert status == 200
    assert base64.b64decode(sct["id"]) == log.log_id
    assert log.size == 3


# -- client framing against a raw-socket fake log ------------------------------


class _FakeLog:
    """A scripted log on a raw socket.

    The n-th accepted connection answers its requests with the n-th
    script's raw replies in order; ``None`` reads the request and hangs
    up without a reply.  A connection hangs up when its script ends,
    and moves on early if the client hangs up first.  ``header_names``
    collects every request header name, lower-cased.
    """

    def __init__(self, *scripts):
        self.scripts = scripts
        self.requests = []
        self.header_names = set()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for script in self.scripts:
            conn, _ = self._sock.accept()
            with conn, conn.makefile("rb") as reader:
                for reply in script:
                    head = reader.readline()
                    if not head:
                        break  # the client hung up
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        self.header_names.add(line.split(b":", 1)[0].strip().lower().decode())
                    self.requests.append(head.split(b" ", 2)[1].decode())
                    if reply is None:
                        break
                    conn.sendall(reply)

    def close(self):
        self._thread.join(timeout=10)
        self._sock.close()
        assert not self._thread.is_alive()


def _reply(body=b'{"tree_size": 7}\n', *headers, length=True):
    head = ["HTTP/1.1 200 OK", "Content-Type: application/json", *headers]
    if length:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def test_client_reads_a_reply_without_length_to_close_and_never_pools_it(connects):
    fake = _FakeLog([_reply(length=False)], [_reply()])
    with LogClient(fake.url) as client:
        assert client.get_sth() == {"tree_size": 7}
        assert client._idle == []  # its end was the hang-up
        assert client.get_sth() == {"tree_size": 7}
    fake.close()
    assert connects["n"] == 2
    assert client.requests == 2
    assert client.bytes_received == 2 * len(b'{"tree_size": 7}\n')


def test_client_honours_connection_close(connects):
    # Were the close ignored, the second call would reuse the first
    # connection and get its second reply.
    fake = _FakeLog([_reply(b'{"n": 1}\n', "Connection: close"), _reply()], [_reply(b'{"n": 2}\n')])
    with LogClient(fake.url) as client:
        assert client.get_sth() == {"n": 1}
        assert client.get_sth() == {"n": 2}
    fake.close()
    assert connects["n"] == 2
    assert fake.requests == ["/ct/v1/get-sth"] * 2
    # Without a tracer the client sends no trace-context header.
    assert "host" in fake.header_names
    assert TRACEPARENT_HEADER.lower() not in fake.header_names


def test_client_truncated_body_raises_incomplete_read_without_retry(connects):
    truncated = _reply()[:-5]
    fake = _FakeLog([_reply(), truncated], [_reply()])
    with LogClient(fake.url) as client:
        client.get_sth()
        with pytest.raises(http.client.IncompleteRead):
            client.get_sth()
        assert connects["n"] == 1  # a reused connection, still not resent
        assert client.get_sth() == {"tree_size": 7}  # not pooled either
    fake.close()
    assert connects["n"] == 2
    assert client.requests == 3
    assert len(fake.requests) == 3


@pytest.mark.parametrize("status_line", [b"HELLO THERE\r\n", b"HTTP/1.1 OK\r\n", b"\r\n"])
def test_client_garbage_status_line_raises_bad_status_line(connects, status_line):
    fake = _FakeLog([_reply(), status_line + b"\r\n"], [_reply()])
    with LogClient(fake.url) as client:
        client.get_sth()
        with pytest.raises(http.client.BadStatusLine) as excinfo:
            client.get_sth()
        assert not isinstance(excinfo.value, http.client.RemoteDisconnected)
        assert connects["n"] == 1
        client.get_sth()
    fake.close()
    assert connects["n"] == 2


def test_client_resends_once_when_a_reused_connection_answers_nothing(connects):
    fake = _FakeLog([_reply(), None], [_reply(b'{"n": 2}\n')])
    with LogClient(fake.url) as client:
        client.get_sth()
        assert client.get_sth() == {"n": 2}
    fake.close()
    assert connects["n"] == 2
    assert client.requests == 2  # one call, two attempts
    assert len(fake.requests) == 3


def test_client_does_not_resend_on_a_fresh_connection(connects):
    fake = _FakeLog([None])
    client = LogClient(fake.url)
    with pytest.raises(http.client.RemoteDisconnected):
        client.get_sth()
    fake.close()
    assert connects["n"] == 1
    assert client.requests == 1


def test_client_id_cannot_smuggle_header_lines():
    with pytest.raises(ValueError):
        LogClient("http://127.0.0.1:9", client_id="browser-1\r\nX-Repro-Client: browser-0")
