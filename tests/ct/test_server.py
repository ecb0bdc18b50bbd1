"""Unit tests for the RFC 6962 HTTP front end (no sockets).

Everything here drives :meth:`repro.ct.server.LogServer.handle_request`
directly — routing, parameter validation, error mapping, memoization,
and the request-logging middleware — so the boundary behaviour is
pinned without binding a port.  The live-socket behaviour (real HTTP,
concurrency, harvest parity) lives in
``tests/integration/test_log_server_live.py``.
"""

import base64
import gc
import json
import tracemalloc
from datetime import timedelta

import pytest

from repro.ct.log import CTLog, SignedTreeHead
from repro.ct.merkle import (
    EMPTY_TREE_HASH,
    leaf_hash,
    verify_consistency_proof,
    verify_inclusion_proof,
)
from repro.ct import server as server_module
from repro.ct.server import (
    LogServer,
    entry_from_wire,
    entry_to_wire,
    log_slug,
)
from repro.obs import EventLog, MetricsRegistry
from repro.util.timeutil import utc_datetime
from repro.workloads.scenario import seeded_log
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 12, 0)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def make_log(name="Unit Log", entries=5, **kwargs):
    log = CTLog(
        name=name,
        operator="Unit",
        key=crypto.KeyPair.generate(f"unit:{name}", 256),
        **kwargs,
    )
    ca = CertificateAuthority(f"Unit CA {name}", key_bits=256)
    for i in range(entries):
        ca.issue(
            IssuanceRequest((f"e{i}.{log_slug(name)}.example",)),
            [log],
            NOW + timedelta(seconds=i),
        )
    return log


def make_precerts(count, tag="sub"):
    """Distinct precertificates (issued into a scratch log) + key hash."""
    ca = CertificateAuthority(f"Submit CA {tag}", key_bits=256)
    scratch = CTLog(
        name=f"scratch-{tag}",
        operator="Unit",
        key=crypto.KeyPair.generate(f"scratch:{tag}", 256),
    )
    precerts = []
    for i in range(count):
        pair = ca.issue(
            IssuanceRequest((f"p{i}.{tag}.example",)), [scratch], NOW
        )
        precerts.append(pair.precertificate)
    return precerts, ca.issuer_key_hash


def submit_body(precert, issuer_key_hash):
    from repro.ct.storage import certificate_to_dict

    return json.dumps(
        {
            "chain": [certificate_to_dict(precert)],
            "issuer_key_hash": _b64(issuer_key_hash),
        }
    ).encode()


def get(server, path, query=""):
    return server.handle_request("GET", path, query, b"")


def assert_json_error(result, status):
    got_status, payload, _ = result
    assert got_status == status
    assert payload["code"] == status
    assert isinstance(payload["error"], str) and payload["error"]
    json.dumps(payload)  # always serialisable


# -- slugs and wire format ---------------------------------------------------


def test_log_slug():
    assert log_slug("Google Pilot log") == "google-pilot-log"
    assert log_slug("  DigiCert Log Server 2 ") == "digicert-log-server-2"
    with pytest.raises(ValueError):
        log_slug("!!!")


def test_entry_wire_round_trip():
    log = make_log(entries=3)
    for entry in log.entries:
        back = entry_from_wire(entry_to_wire(entry))
        assert back == entry


# -- mounting ----------------------------------------------------------------


def test_single_log_mounts_bare_and_slugged():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    for path in ("/ct/v1/get-sth", f"/{log_slug(log.name)}/ct/v1/get-sth"):
        status, payload, endpoint = get(server, path)
        assert status == 200
        assert payload["tree_size"] == 5
        assert endpoint == "get-sth"


def test_multi_log_requires_slug_prefix():
    logs = [make_log("Alpha Log", 2), make_log("Beta Log", 3)]
    server = LogServer(logs, clock=lambda: NOW)
    assert server.slugs == ["alpha-log", "beta-log"]
    assert_json_error(get(server, "/ct/v1/get-sth"), 404)
    status, payload, _ = get(server, "/beta-log/ct/v1/get-sth")
    assert status == 200 and payload["tree_size"] == 3


def test_duplicate_slug_rejected():
    with pytest.raises(ValueError, match="duplicate log slug"):
        LogServer([make_log("Same Name"), make_log("same name")])


def test_index_lists_served_logs():
    server = LogServer([make_log("Alpha Log", 2)], clock=lambda: NOW)
    status, payload, endpoint = get(server, "/")
    assert status == 200 and endpoint == "index"
    assert payload == {
        "logs": [
            {
                "slug": "alpha-log",
                "name": "Alpha Log",
                "operator": "Unit",
                "tree_size": 2,
                "disqualified": False,
                "url": "/alpha-log",
            }
        ]
    }


def test_log_url_requires_started_server_and_known_name():
    server = LogServer(make_log())
    with pytest.raises(KeyError):
        server.log_url("No Such Log")


def test_unknown_route_and_endpoint_are_404():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(get(server, "/nope"), 404)
    assert_json_error(get(server, "/unit-log/ct/v1/get-nothing"), 404)


def test_wrong_method_is_405():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(
        server.handle_request("POST", "/ct/v1/get-sth", "", b""), 405
    )
    assert_json_error(
        server.handle_request("GET", "/ct/v1/add-pre-chain", "", b""), 405
    )
    assert_json_error(server.handle_request("POST", "/", "", b""), 405)


# -- get-sth -----------------------------------------------------------------


def test_get_sth_signature_verifies():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    _, payload, _ = get(server, "/ct/v1/get-sth")
    root = base64.b64decode(payload["sha256_root_hash"])
    assert root == log.tree.root()
    covered = SignedTreeHead.signed_payload(
        payload["tree_size"], payload["timestamp"], root
    )
    assert crypto.verify(
        log.key, covered, base64.b64decode(payload["tree_head_signature"])
    )


def test_get_sth_of_empty_log_is_valid_tree_size_zero():
    server = LogServer(make_log(entries=0), clock=lambda: NOW)
    status, payload, _ = get(server, "/ct/v1/get-sth")
    assert status == 200
    assert payload["tree_size"] == 0
    assert base64.b64decode(payload["sha256_root_hash"]) == EMPTY_TREE_HASH


# -- get-entries boundaries --------------------------------------------------


def test_get_entries_happy_path_round_trips():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    status, payload, _ = get(server, "/ct/v1/get-entries", "start=1&end=3")
    assert status == 200
    entries = [entry_from_wire(el) for el in payload["entries"]]
    assert entries == log.entries[1:4]


def test_get_entries_empty_log_is_400():
    server = LogServer(make_log(entries=0), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=0&end=0"), 400
    )


def test_get_entries_start_after_end_is_400():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=3&end=1"), 400
    )
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=-1&end=2"), 400
    )


def test_get_entries_start_beyond_size_is_400():
    server = LogServer(make_log(entries=5), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=5&end=9"), 400
    )


def test_get_entries_end_beyond_size_is_clamped_not_500():
    server = LogServer(make_log(entries=5), clock=lambda: NOW)
    status, payload, _ = get(
        server, "/ct/v1/get-entries", "start=3&end=100000"
    )
    assert status == 200
    assert len(payload["entries"]) == 2  # entries 3 and 4


def test_get_entries_respects_page_limit():
    server = LogServer(make_log(entries=5), clock=lambda: NOW, page_limit=2)
    status, payload, _ = get(server, "/ct/v1/get-entries", "start=0&end=4")
    assert status == 200
    assert len(payload["entries"]) == 2  # clamped to the serving limit


def test_get_entries_malformed_params_are_400():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(get(server, "/ct/v1/get-entries", "start=0"), 400)
    assert_json_error(
        get(server, "/ct/v1/get-entries", "start=zero&end=4"), 400
    )
    assert_json_error(get(server, "/ct/v1/get-entries", ""), 400)


# -- get-proof-by-hash boundaries --------------------------------------------


def test_get_proof_by_hash_verifies():
    log = make_log()
    server = LogServer(log, clock=lambda: NOW)
    leaf = log.entries[2].leaf_input
    status, payload, _ = get(
        server,
        "/ct/v1/get-proof-by-hash",
        f"hash={_b64(leaf_hash(leaf)).replace('+', '%2B').replace('/', '%2F')}"
        "&tree_size=5",
    )
    assert status == 200
    assert payload["leaf_index"] == 2
    path = [base64.b64decode(node) for node in payload["audit_path"]]
    assert verify_inclusion_proof(leaf, 2, 5, path, log.tree.root())


def test_get_proof_by_hash_invalid_base64_is_400():
    server = LogServer(make_log(), clock=lambda: NOW)
    assert_json_error(
        get(server, "/ct/v1/get-proof-by-hash", "hash=%%%&tree_size=5"), 400
    )


def test_get_proof_by_hash_unknown_hash_is_404():
    server = LogServer(make_log(), clock=lambda: NOW)
    missing = _b64(leaf_hash(b"never appended"))
    assert_json_error(
        get(
            server,
            "/ct/v1/get-proof-by-hash",
            f"hash={missing.replace('+', '%2B').replace('/', '%2F')}"
            "&tree_size=5",
        ),
        404,
    )


def test_get_proof_by_hash_bad_tree_size_is_400():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    digest = _b64(leaf_hash(log.entries[0].leaf_input))
    quoted = digest.replace("+", "%2B").replace("/", "%2F")
    for tree_size in (0, -1, 6):
        assert_json_error(
            get(
                server,
                "/ct/v1/get-proof-by-hash",
                f"hash={quoted}&tree_size={tree_size}",
            ),
            400,
        )


def test_get_proof_by_hash_leaf_outside_prefix_is_400():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    digest = _b64(leaf_hash(log.entries[4].leaf_input))
    quoted = digest.replace("+", "%2B").replace("/", "%2F")
    assert_json_error(
        get(
            server,
            "/ct/v1/get-proof-by-hash",
            f"hash={quoted}&tree_size=3",
        ),
        400,
    )


# -- get-sth-consistency boundaries ------------------------------------------


def test_get_consistency_verifies():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    status, payload, _ = get(
        server, "/ct/v1/get-sth-consistency", "first=2&second=5"
    )
    assert status == 200
    proof = [base64.b64decode(node) for node in payload["consistency"]]
    assert verify_consistency_proof(
        2, 5, log.tree.root(2), log.tree.root(5), proof
    )


def test_get_consistency_invalid_ranges_are_400():
    server = LogServer(make_log(entries=5), clock=lambda: NOW)
    for query in ("first=3&second=2", "first=-1&second=2", "first=0&second=6"):
        assert_json_error(
            get(server, "/ct/v1/get-sth-consistency", query), 400
        )


# -- add-pre-chain -----------------------------------------------------------


def test_add_pre_chain_returns_verifiable_sct():
    log = make_log(entries=1)
    server = LogServer(log, clock=lambda: NOW)
    (precert,), issuer_key_hash = make_precerts(1, "ok")
    status, payload, _ = server.handle_request(
        "POST",
        "/ct/v1/add-pre-chain",
        "",
        submit_body(precert, issuer_key_hash),
    )
    assert status == 200
    assert set(payload) == {
        "sct_version", "id", "timestamp", "extensions", "signature"
    }
    assert base64.b64decode(payload["id"]) == log.log_id
    assert log.size == 2  # appended for real


def test_add_pre_chain_malformed_bodies_are_400():
    server = LogServer(make_log(entries=1), clock=lambda: NOW)
    (precert,), ikh = make_precerts(1, "bad")
    from repro.ct.storage import certificate_to_dict

    bodies = [
        b"not json",
        json.dumps([1, 2]).encode(),
        json.dumps({"chain": []}).encode(),
        json.dumps({"chain": [{"bogus": 1}], "issuer_key_hash": "AA=="}).encode(),
        json.dumps(
            {"chain": [certificate_to_dict(precert)]}  # missing key hash
        ).encode(),
        json.dumps(
            {
                "chain": [certificate_to_dict(precert)],
                "issuer_key_hash": "!!!not-base64!!!",
            }
        ).encode(),
    ]
    bodies.append(
        json.dumps(
            {"chain": [certificate_to_dict(precert)], "issuer_key_hash": 12345}
        ).encode()  # wrong type entirely
    )
    for body in bodies:
        assert_json_error(
            server.handle_request("POST", "/ct/v1/add-pre-chain", "", body),
            400,
        )


def test_add_pre_chain_final_certificate_is_400():
    """A non-poisoned (final) certificate is a ValueError -> 400."""
    log = make_log(entries=1)
    server = LogServer(log, clock=lambda: NOW)
    ca = CertificateAuthority("Final CA", key_bits=256)
    pair = ca.issue(IssuanceRequest(("final.example",)), [], NOW)
    assert pair.precertificate is None
    assert_json_error(
        server.handle_request(
            "POST",
            "/ct/v1/add-pre-chain",
            "",
            submit_body(pair.final_certificate, ca.issuer_key_hash),
        ),
        400,
    )


def test_add_pre_chain_overload_is_429():
    log = make_log(entries=0, capacity_per_day=2, strict_capacity=True)
    server = LogServer(log, clock=lambda: NOW)
    precerts, ikh = make_precerts(3, "overload")
    statuses = [
        server.handle_request(
            "POST", "/ct/v1/add-pre-chain", "", submit_body(p, ikh)
        )[0]
        for p in precerts
    ]
    assert statuses == [200, 200, 429]
    assert log.size == 2


def test_disqualified_log_is_410():
    log = make_log(entries=1)
    log.disqualify()
    server = LogServer(log, clock=lambda: NOW)
    (precert,), ikh = make_precerts(1, "gone")
    assert_json_error(
        server.handle_request(
            "POST", "/ct/v1/add-pre-chain", "", submit_body(precert, ikh)
        ),
        410,
    )


# -- memoization -------------------------------------------------------------


def test_sth_memoized_per_tree_size():
    log = make_log(entries=2)
    server = LogServer(log, clock=lambda: NOW)
    slug = log_slug(log.name)
    first = get(server, "/ct/v1/get-sth")[1]
    second = get(server, "/ct/v1/get-sth")[1]
    assert first is second  # same cached body, one signature
    stats = server.memo_stats()[slug]
    assert stats == {"hits": 1, "misses": 1, "lookups": 2, "hit_rate": 0.5}

    (precert,), ikh = make_precerts(1, "grow")
    server.handle_request(
        "POST", "/ct/v1/add-pre-chain", "", submit_body(precert, ikh)
    )
    third = get(server, "/ct/v1/get-sth")[1]
    assert third["tree_size"] == 3  # re-signed after growth
    assert server.memo_stats()[slug]["misses"] == 2


def test_proof_and_entries_pages_are_memoized():
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    slug = log_slug(log.name)
    for _ in range(3):
        assert get(server, "/ct/v1/get-entries", "start=0&end=4")[0] == 200
        assert (
            get(server, "/ct/v1/get-sth-consistency", "first=2&second=5")[0]
            == 200
        )
    stats = server.memo_stats()[slug]
    assert stats["misses"] == 2  # one per distinct key
    assert stats["hits"] == 4
    assert stats["lookups"] == 6
    assert stats["hit_rate"] == pytest.approx(4 / 6)


def test_memo_stats_before_any_request_has_zero_hit_rate():
    """Scraping a fresh server's stats must not divide by zero."""
    server = LogServer(make_log(entries=3), clock=lambda: NOW)
    stats = server.memo_stats()[log_slug("Unit Log")]
    assert stats == {"hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0}


def test_invalid_requests_never_touch_the_memo():
    """Junk ranges can't skew hit rates or evict cached pages."""
    log = make_log(entries=5)
    server = LogServer(log, clock=lambda: NOW)
    slug = log_slug(log.name)
    served = server._served[slug]

    # Warm one legitimate page into the cache.
    assert get(server, "/ct/v1/get-entries", "start=0&end=4")[0] == 200
    warmed = server.memo_stats()[slug]
    assert ("entries", 0, 4) in served.memo

    for query in (
        "start=-1&end=4",        # negative start
        "start=9&end=2",         # start after end
        "start=99&end=104",      # start beyond tree size
        "start=zero&end=4",      # non-integer
        "end=4",                 # missing parameter
    ):
        assert get(server, "/ct/v1/get-entries", query)[0] == 400
    empty = LogServer(make_log(name="Empty", entries=0), clock=lambda: NOW)
    assert get(empty, "/ct/v1/get-entries", "start=0&end=0")[0] == 400

    assert server.memo_stats()[slug] == warmed  # not a single lookup
    assert empty.memo_stats()[log_slug("Empty")]["lookups"] == 0
    assert ("entries", 0, 4) in served.memo  # nothing evicted
    assert len(served.memo) == 1


def _memo_growth_mib(server, requests):
    """MiB still allocated after serving ``requests`` (path, query)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for path, query in requests:
            assert get(server, path, query)[0] == 200
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def log_1200():
    return seeded_log(1, 1200)


def test_memo_bounds_bytes_of_overlapping_pages(log_1200):
    """A client stepping ``start`` cannot pin a full page per step."""
    windows = [
        ("/ct/v1/get-entries", f"start={start}&end={start + 1023}")
        for start in range(64)
    ]
    # Each window is a ~1.1 MiB reply: 72.8 MiB if every one stayed.
    assert _memo_growth_mib(LogServer(log_1200), windows) < 24


def test_evicted_pages_release_their_elements(log_1200, monkeypatch):
    """An entry's element lives only while a memoized page holds it."""
    monkeypatch.setattr(server_module, "MEMO_BYTES", 64 << 10)
    harvest = [
        ("/ct/v1/get-entries", f"start={start}&end={start + 31}")
        for start in range(0, 1200, 32)
    ]
    # The memo keeps one 32-entry page; 1,200 elements are ~1.6 MiB.
    assert _memo_growth_mib(LogServer(log_1200), harvest) < 0.5


def test_memo_bounds_bytes_of_many_small_proofs(log_1200):
    """Small replies are charged their overhead too, not only their body."""
    proofs = [
        ("/ct/v1/get-sth-consistency", f"first={first}&second={second}")
        for second in range(1080, 1200)
        for first in range(1, 141)
    ]
    # 16,800 proofs of ~2.1 KiB each: 34 MiB if every one stayed.
    assert _memo_growth_mib(LogServer(log_1200), proofs) < 24


# -- harvest pinned to the fetched STH ---------------------------------------


class _OveransweringClient:
    """A replica that answers ``get-entries`` past the requested range.

    Duck-types the two :class:`~repro.ct.server.LogClient` methods
    :func:`harvest_log` uses; the STH is pinned at issuance time while
    the backing log keeps growing, so every page call can over-answer
    beyond the verified tree head.  ``stuck`` makes it answer every
    range with entry 0 instead.
    """

    def __init__(self, log, sth, *, stuck=False):
        self.log = log
        self.sth = sth
        self.stuck = stuck

    def get_sth(self):
        return self.sth

    def get_entries(self, start, end):
        if self.stuck:  # every range answered with entry 0
            return self.log.get_entries(0, 0)
        # Ignore ``end`` entirely: hand out everything from ``start``.
        return self.log.get_entries(start, self.log.size - 1)


def _pinned_sth(log):
    sth = log.get_sth(NOW)
    return {
        "tree_size": sth.tree_size,
        "sha256_root_hash": _b64(sth.root_hash),
    }


def test_harvest_truncates_pages_beyond_the_pinned_sth():
    from repro.ct.server import harvest_log

    log = make_log(entries=6)
    sth = _pinned_sth(log)  # pin at size 6...
    ca = CertificateAuthority("Unit CA Unit Log", key_bits=256)
    for i in range(4):  # ...then the log grows underneath the harvest
        ca.issue(IssuanceRequest((f"late{i}.example",)), [log], NOW)
    assert log.size == 10

    from repro.dataset import LiveAnalytics

    live = LiveAnalytics()
    replica = harvest_log(
        _OveransweringClient(log, sth), page_size=4, analytics=live
    )
    assert replica.size == 6
    assert [entry.index for entry in replica.entries] == list(range(6))
    # The analytics fold saw only the verified window, nothing more.
    assert live.records_folded == 6


def test_harvest_rejects_a_misnumbered_page_before_folding_it():
    from repro.ct.server import HarvestMismatchError, harvest_log
    from repro.dataset import LiveAnalytics

    log = make_log(entries=6)
    live = LiveAnalytics()
    with pytest.raises(HarvestMismatchError):
        harvest_log(
            _OveransweringClient(log, _pinned_sth(log), stuck=True),
            page_size=4,
            analytics=live,
        )
    # Only the first page, whose entry 0 sits at index 0, was folded.
    assert live.records_folded == 1


# -- middleware --------------------------------------------------------------


def test_middleware_records_metrics_and_events():
    metrics = MetricsRegistry()
    events = EventLog(clock=lambda: 1525.0)
    server = LogServer(
        make_log(entries=3), clock=lambda: NOW, metrics=metrics, events=events
    )
    get(server, "/ct/v1/get-sth")
    get(server, "/ct/v1/get-entries", "start=9&end=9")  # 400
    get(server, "/nope")  # 404 before routing

    snapshot = metrics.snapshot()
    assert snapshot.counters[
        "log_server.responses{endpoint=get-sth,status=200}"
    ] == 1
    assert snapshot.counters[
        "log_server.responses{endpoint=get-entries,status=400}"
    ] == 1
    assert snapshot.counters[
        "log_server.responses{endpoint=unknown,status=404}"
    ] == 1
    histogram_keys = [
        key
        for key in snapshot.histograms
        if key.startswith("log_server.request_seconds")
    ]
    assert any("endpoint=get-sth" in key for key in histogram_keys)

    kinds = [record["kind"] for record in events.tail(10)]
    assert kinds == ["log_server_request"] * 3
    statuses = [record["status"] for record in events.tail(10)]
    assert statuses == [200, 400, 404]
    assert events.tail(10)[0]["log"] == "unit-log"
