"""Monitors over transports: in-memory parity, HTTP, wire accounting.

The transport refactor's contract: every pre-existing monitor behaves
bit-identically when polling a bare log versus an
:class:`~repro.ct.monitor.InMemoryTransport`, and the same monitor
code runs unchanged against a live :class:`~repro.ct.server.LogServer`
through :class:`~repro.ct.monitor.HttpTransport` — with the wire
ledger recording what that costs.
"""

from datetime import timedelta

import pytest

from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.monitor import (
    BatchMonitor,
    HttpTransport,
    InMemoryTransport,
    LogTransport,
    StreamingMonitor,
    as_transport,
    watch_logs,
)
from repro.ct.server import (
    HarvestMismatchError,
    LogClient,
    LogClientError,
    LogServer,
)
from repro.resilience import FlakyLog, RetryPolicy
from repro.util.rng import SeededRng
from repro.x509.ca import CertificateAuthority, IssuanceRequest


@pytest.fixture()
def log_with_entries(now):
    log = CTLog(name="Mon Log", operator="T", key=log_key("Mon Log", 256))
    ca = CertificateAuthority("Mon CA", key_bits=256)
    for i in range(5):
        ca.issue(
            IssuanceRequest((f"mon{i}.example",)), [log],
            now + timedelta(minutes=i),
        )
    return log


def grow(log, count, start, prefix="late"):
    ca = CertificateAuthority("Late CA", key_bits=256)
    for i in range(count):
        ca.issue(
            IssuanceRequest((f"{prefix}{i}.example",)), [log],
            start + timedelta(minutes=i),
        )


# -- coercion and the in-memory transport ----------------------------------


def test_as_transport_wraps_logs_and_passes_transports(log_with_entries):
    transport = as_transport(log_with_entries)
    assert isinstance(transport, InMemoryTransport)
    assert transport.name == log_with_entries.name
    assert as_transport(transport) is transport


def test_in_memory_transport_parity_streaming(log_with_entries):
    direct = StreamingMonitor("s", SeededRng(1), latency_range_s=(60, 180))
    via_transport = StreamingMonitor(
        "s", SeededRng(1), latency_range_s=(60, 180)
    )
    a = direct.observe(log_with_entries)
    b = via_transport.observe(InMemoryTransport(log_with_entries))
    assert a == b
    assert len(a) == 5


def test_in_memory_transport_parity_batch(log_with_entries):
    direct = BatchMonitor("b", SeededRng(2), interval=timedelta(hours=2))
    via_transport = BatchMonitor("b", SeededRng(2), interval=timedelta(hours=2))
    assert direct.observe(log_with_entries) == via_transport.observe(
        InMemoryTransport(log_with_entries)
    )


def test_transport_cursor_is_shared_with_bare_log(log_with_entries, now):
    # One monitor, polled through a transport and then the bare log:
    # both are the same log name, so the cursor carries over.
    monitor = StreamingMonitor("s", SeededRng(3))
    assert len(monitor.observe(InMemoryTransport(log_with_entries))) == 5
    assert monitor.observe(log_with_entries) == []
    grow(log_with_entries, 2, now + timedelta(hours=1))
    assert len(monitor.observe(log_with_entries)) == 2


def test_in_memory_wire_ledger_counts_no_bytes(log_with_entries):
    transport = InMemoryTransport(log_with_entries)
    StreamingMonitor("s", SeededRng(4)).observe(transport)
    stats = transport.stats()
    assert stats["entries"] == 5
    assert stats["bytes"] == 0
    assert stats["requests"] >= 1


def test_flaky_log_through_transport_counts_monitor_error(log_with_entries):
    def fail_first_fetch():
        calls = {"n": 0}

        def predicate(method, _args):
            if method != "get_entries":
                return False
            calls["n"] += 1
            return calls["n"] == 1

        return predicate

    flaky = FlakyLog(
        log_with_entries,
        SeededRng(8),
        failure_rate=0.0,
        fail_when=fail_first_fetch(),
    )
    transport = InMemoryTransport(flaky)
    monitor = StreamingMonitor(
        "s", SeededRng(9), retry=RetryPolicy(max_attempts=1)
    )
    assert monitor.observe(transport) == []
    health = monitor.log_health()[log_with_entries.name]
    assert health["errors"] == 1
    assert health["cursor"] == 0
    # Next poll succeeds from the intact cursor.
    assert len(monitor.observe(transport)) == 5


# -- the same monitors over real HTTP --------------------------------------


def test_streaming_monitor_over_http_matches_in_memory(log_with_entries):
    in_memory = StreamingMonitor("s", SeededRng(11))
    over_http = StreamingMonitor("s", SeededRng(11))
    expected = in_memory.observe(log_with_entries)
    with LogServer(log_with_entries) as server:
        transport = HttpTransport(
            server.log_url(log_with_entries.name), log_with_entries.name
        )
        got = over_http.observe(transport)
    assert got == expected


def test_batch_monitor_over_http_cursor_grows(log_with_entries, now):
    monitor = BatchMonitor("b", SeededRng(12), interval=timedelta(hours=1))
    with LogServer(log_with_entries) as server:
        transport = HttpTransport(
            server.log_url(log_with_entries.name), log_with_entries.name
        )
        assert len(monitor.observe(transport)) == 5
        assert monitor.observe(transport) == []
        grow(log_with_entries, 3, now + timedelta(hours=1))
        fresh = monitor.observe(transport)
    assert len(fresh) == 3
    assert monitor.log_health()[log_with_entries.name]["cursor"] == 8


def test_http_transport_pages_through_entry_limit(log_with_entries):
    with LogServer(log_with_entries, page_limit=2) as server:
        transport = HttpTransport(
            server.log_url(log_with_entries.name),
            log_with_entries.name,
            page_size=2,
        )
        entries = transport.get_entries(0, 4)
    assert [entry.index for entry in entries] == [0, 1, 2, 3, 4]
    stats = transport.stats()
    assert stats["entries"] == 5
    assert stats["requests"] >= 3  # five entries, two per page
    assert stats["bytes"] > 0


def test_http_wire_ledger_exact_under_forced_retries(log_with_entries):
    # A fault mid-range forces the monitor's retry layer to refetch the
    # whole window.  The wire ledger must count exactly what crossed
    # the wire: the page received before the fault counts once, the
    # refetched pages count again, nothing is double-counted beyond
    # actual transfer.
    def fail_second_page_once():
        calls = {"n": 0}

        def predicate(method, call_args):
            if method != "get_entries" or call_args[0] != 2:
                return False
            calls["n"] += 1
            return calls["n"] == 1

        return predicate

    def run(log, retry):
        monitor = StreamingMonitor("s", SeededRng(21), retry=retry)
        with LogServer([log], page_limit=2) as server:
            transport = HttpTransport(
                server.log_url(log_with_entries.name),
                log_with_entries.name,
                page_size=2,
            )
            observations = monitor.observe(transport)
        return observations, transport.stats()

    control_obs, control = run(log_with_entries, None)
    assert control == {"requests": 4, "entries": 5, "bytes": control["bytes"]}

    flaky = FlakyLog(
        log_with_entries,
        SeededRng(22),
        failure_rate=0.0,
        fail_when=fail_second_page_once(),
    )
    # Over HTTP a server-side fault surfaces as a LogClientError (the
    # 500 response), so the policy must list it as retryable.
    faulty_obs, faulty = run(
        flaky,
        RetryPolicy(
            max_attempts=2, base_delay_s=0.0, retryable=(LogClientError,)
        ),
    )
    # The monitor's output is identical — the retry hid the fault.
    assert [o.entry.index for o in faulty_obs] == [
        o.entry.index for o in control_obs
    ]
    # get-sth, then pages (0,1) ok / (2,3) fault / full refetch (0,1),
    # (2,3), (4,4): six requests, seven entry bodies over the wire.
    assert faulty["requests"] == control["requests"] + 2
    assert faulty["entries"] == control["entries"] + 2
    # Bytes also count the failed attempt's error body plus the
    # refetched page, so they strictly exceed the clean run's total.
    assert faulty["bytes"] > control["bytes"]


class _HostileClient(LogClient):
    """A served log whose ``get-entries`` answers ignore the request.

    ``stuck`` answers every range with entry 0; otherwise each answer
    runs past ``end`` to the end of the served log.  ``sth`` pins the
    tree head the client reports, so the log can grow behind it.
    """

    def __init__(self, url, *, stuck=False, sth=None):
        super().__init__(url)
        self.stuck = stuck
        self.sth = sth
        self.pages = 0

    def get_signed_tree_head(self):
        return self.sth or super().get_signed_tree_head()

    def get_entries(self, start, end):
        self.pages += 1
        if self.pages > 50:
            raise AssertionError("still paging after 50 pages")
        if self.stuck:
            return super().get_entries(0, 0)
        return super().get_entries(start, start + 1000)


def test_http_transport_truncates_an_overlong_answer(log_with_entries, now):
    grow(log_with_entries, 5, now + timedelta(hours=1))
    name = log_with_entries.name
    with LogServer(log_with_entries) as server:
        transport = HttpTransport(
            _HostileClient(server.log_url(name)), name, page_size=4
        )
        entries = transport.get_entries(2, 4)
    assert [entry.index for entry in entries] == [2, 3, 4]
    assert transport.stats()["entries"] == 3


def test_monitor_cursor_stops_at_the_tree_size_it_fetched(
    log_with_entries, now
):
    name = log_with_entries.name
    with LogServer(log_with_entries) as server:
        client = _HostileClient(server.log_url(name))
        client.sth = client.get_signed_tree_head()  # pinned at size 5
        grow(log_with_entries, 5, now + timedelta(hours=1))
        monitor = StreamingMonitor("s", SeededRng(16))
        seen = monitor.observe(HttpTransport(client, name, page_size=4))
    assert [obs.entry.index for obs in seen] == [0, 1, 2, 3, 4]
    assert monitor.log_health()[name]["cursor"] == 5


def test_http_transport_rejects_a_page_that_does_not_advance(
    log_with_entries, now
):
    grow(log_with_entries, 5, now + timedelta(hours=1))
    name = log_with_entries.name
    with LogServer(log_with_entries) as server:
        client = _HostileClient(server.log_url(name), stuck=True)
        with pytest.raises(HarvestMismatchError):
            HttpTransport(client, name, page_size=4).get_entries(5, 9)
        assert client.pages == 1
        # A monitor counts the rejected page as a failed fetch and
        # keeps its cursor where it was.
        monitor = StreamingMonitor("s", SeededRng(17))
        assert monitor.observe(HttpTransport(client, name)) == []
    health = monitor.log_health()[name]
    assert health["errors"] == 1
    assert health["cursor"] == 0


def test_http_transport_failure_counts_monitor_error(log_with_entries):
    with LogServer(log_with_entries) as server:
        url = server.log_url(log_with_entries.name)
    # Server is gone: the poll fails, the cursor stays put.
    monitor = StreamingMonitor(
        "s", SeededRng(13), retry=RetryPolicy(max_attempts=1)
    )
    transport = HttpTransport(url, log_with_entries.name, timeout=0.5)
    assert monitor.observe(transport) == []
    health = monitor.log_health()[log_with_entries.name]
    assert health["errors"] == 1
    assert health["cursor"] == 0


def test_watch_logs_accepts_transports(log_with_entries):
    fast = StreamingMonitor("fast", SeededRng(14), latency_range_s=(1, 2))
    slow = StreamingMonitor("slow", SeededRng(15), latency_range_s=(500, 600))
    observations = watch_logs(
        [fast, slow], [InMemoryTransport(log_with_entries)]
    )
    times = [obs.observed_at for obs in observations]
    assert times == sorted(times)
    assert len(observations) == 10


def test_transport_base_stats_shape():
    transport = LogTransport("abstract")
    assert transport.stats() == {"requests": 0, "entries": 0, "bytes": 0}
    with pytest.raises(NotImplementedError):
        transport.tree_size()
