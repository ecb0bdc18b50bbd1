"""Live batched write pipeline: submitters race readers while merges run.

The acceptance bar for the MMD sequencer under real concurrency:
several logs mounted on one :class:`~repro.ct.server.LogServer` with
background merge workers, submitter threads (including cross-thread
duplicate certificates) racing reader threads over genuine HTTP — and
afterwards, nothing lost, nothing duplicated, every SCT's promise
provable against a post-merge STH, and the final tree bit-identical to
a serial replay of the observed entry order.

The seeded-storm variant runs under both CI executor matrix legs
(``REPRO_EXECUTOR=process|thread``), same as the per-entry smoke.
"""

import base64
import os
import threading
from datetime import timedelta

import pytest

from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.merkle import leaf_hash, verify_inclusion_proof
from repro.ct.sct import precert_signing_input
from repro.ct.server import LogClient, LogClientError, LogServer
from repro.obs import EventLog, MetricsRegistry
from repro.util.timeutil import utc_datetime
from repro.workloads.loadgen import LoadStormConfig
from repro.workloads.scenario import Scenario
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 10, 0)

EXECUTORS = (
    [os.environ["REPRO_EXECUTOR"]]
    if os.environ.get("REPRO_EXECUTOR")
    else ["process", "thread"]
)


def _build_log(name, entries=6):
    log = CTLog(name=name, operator="Live", key=log_key(name, 256))
    ca = CertificateAuthority(f"Seed CA {name}", key_bits=256)
    for i in range(entries):
        ca.issue(
            IssuanceRequest((f"seed{i}.{name.lower().replace(' ', '-')}.example",)),
            [log],
            NOW + timedelta(seconds=i),
        )
    return log


def _precerts(count, tag):
    ca = CertificateAuthority(f"Live Seq CA {tag}", key_bits=256)
    scratch = CTLog(
        name=f"seq-live-scratch-{tag}",
        operator="Live",
        key=log_key(f"seq-live-scratch-{tag}", 256),
    )
    pairs = [
        ca.issue(IssuanceRequest((f"s{i}.{tag}.example",)), [scratch], NOW)
        for i in range(count)
    ]
    return [pair.precertificate for pair in pairs], ca.issuer_key_hash


def test_submitters_race_readers_across_sharded_logs():
    logs = [_build_log(f"Shard Log {i}") for i in range(3)]
    seeded_sizes = {log.name: log.size for log in logs}
    precerts_by_log = {}
    ikh_by_log = {}
    for log in logs:
        precerts, ikh = _precerts(10, tag=log.name.replace(" ", "-").lower())
        precerts_by_log[log.name] = precerts
        ikh_by_log[log.name] = ikh

    metrics = MetricsRegistry()
    # Readers emit thousands of log_server_request events; a big tail
    # keeps the interleaved sequencer_merge events inspectable.
    events = EventLog(tail_size=100_000)
    server = LogServer(
        logs,
        merge_interval=0.01,
        max_batch=4,
        metrics=metrics,
        events=events,
    )
    errors = []
    scts_by_log = {log.name: [] for log in logs}
    reader_rounds = []
    stop_readers = threading.Event()

    with server:
        urls = {log.name: server.log_url(log.name) for log in logs}

        def submit(log_name, start):
            # Two submitter threads per log walk the same precert list
            # from both ends, so the middle certs are submitted twice
            # across threads — the cross-thread duplicate race.
            try:
                client = LogClient(urls[log_name], timeout=30)
                precerts = precerts_by_log[log_name]
                order = precerts if start == 0 else list(reversed(precerts))
                for precert in order:
                    sct = client.add_pre_chain(precert, ikh_by_log[log_name])
                    scts_by_log[log_name].append((precert, sct))
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(f"submitter {log_name}: {exc!r}")

        def read(log_name):
            try:
                client = LogClient(urls[log_name], timeout=30)
                rounds = 0
                while not stop_readers.is_set():
                    sth = client.get_sth()
                    size = int(sth["tree_size"])
                    assert size >= seeded_sizes[log_name]
                    if size:
                        entries = client.get_entries(0, min(size - 1, 3))
                        assert entries[0].index == 0
                    rounds += 1
                reader_rounds.append(rounds)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(f"reader {log_name}: {exc!r}")

        submitters = [
            threading.Thread(target=submit, args=(log.name, start))
            for log in logs
            for start in (0, 1)
        ]
        readers = [
            threading.Thread(target=read, args=(log.name,)) for log in logs
        ]
        for t in readers + submitters:
            t.start()
        for t in submitters:
            t.join(timeout=120)
        stop_readers.set()
        for t in readers:
            t.join(timeout=30)
        assert not errors

        # Everything pending is merged before the assertions below.
        server.drain_writes()

        # Every SCT's leaf verifies inclusion against a *served*
        # post-merge STH — the MMD promise, checked over the wire.
        for log in logs:
            client = LogClient(urls[log.name], timeout=30)
            sth = client.get_sth()
            size = int(sth["tree_size"])
            root = base64.b64decode(str(sth["sha256_root_hash"]))
            for precert, sct in scts_by_log[log.name]:
                assert sct.log_id == log.log_id
                leaf = precert_signing_input(precert, ikh_by_log[log.name])
                index, path = client.get_proof_by_hash(leaf_hash(leaf), size)
                assert verify_inclusion_proof(leaf, index, size, path, root)

    for log in logs:
        # No lost and no duplicated entries: every submitted precert
        # landed exactly once despite two racing submitters per log.
        assert log.size == seeded_sizes[log.name] + 10
        assert len({e.leaf_input for e in log.entries}) == log.size

        # The final tree equals a serial replay of the observed order.
        replay = CTLog(
            name=log.name, operator="Live", key=log_key(log.name, 256)
        )
        for entry in log.entries:
            replay.tree.append(entry.leaf_input)
        assert replay.tree.root() == log.tree.root()
        for size in range(log.size + 1):
            assert replay.tree.root(size) == log.tree.root(size)

    # Both submitters per log got an SCT for all ten precerts (the
    # duplicate submissions were answered from the pending/merged
    # caches, with identical bytes per cert).
    for log in logs:
        assert len(scts_by_log[log.name]) == 20
        by_leaf = {}
        for precert, sct in scts_by_log[log.name]:
            by_leaf.setdefault(precert.serial, set()).add(sct.signature)
        assert all(len(sigs) == 1 for sigs in by_leaf.values())

    assert reader_rounds and all(rounds > 0 for rounds in reader_rounds)
    stats = server.sequencer_stats()
    assert set(stats) == {
        "shard-log-0", "shard-log-1", "shard-log-2"
    }
    for per_log in stats.values():
        assert per_log["entries_merged"] == 10
        assert per_log["pending"] == 0
        assert per_log["dedup_hits"] >= 1  # the cross-thread duplicates
    merge_events = [
        e for e in events.tail(100_000) if e["kind"] == "sequencer_merge"
    ]
    assert sum(int(e["batch"]) for e in merge_events) == 30


@pytest.mark.parametrize("executor", EXECUTORS)
def test_batched_storm_under_both_executors(executor):
    spec = Scenario(
        log_entries=8,
        storm=LoadStormConfig(
            seed=13, browsers=2, monitors=1, submitters=2,
            audits_per_browser=3, pages_per_monitor=2, page_size=4,
            submissions_per_submitter=4, timeout_s=60.0,
        ),
        merge_interval=0.02,
        max_batch=8,
        executor=executor,
        workers=5,
    )
    # Leaving the world checks that every read verified and every
    # submitter saw all of its leaves merged and proven.
    with spec.serve() as world:
        report = world.storm()

    log = world.log
    assert report.executor == executor
    assert report.submissions_ok == spec.storm.planned_submissions
    assert report.merge_lag_max_s > 0.0
    assert log.size == 8 + spec.storm.planned_submissions
    assert len({e.leaf_input for e in log.entries}) == log.size


def test_pending_depth_visible_on_index_page():
    log = _build_log("Depth Log", entries=3)
    (precert,), ikh = _precerts(1, "depth")
    # A huge interval means no background merge fires during the test:
    # the submission stays pending until drain_writes.
    with LogServer(log, merge_interval=3600.0) as server:
        client = LogClient(server.log_url(log.name), timeout=30)
        client.add_pre_chain(precert, ikh)
        assert log.size == 3  # promise issued, not yet merged
        import json as _json
        import urllib.request

        with urllib.request.urlopen(server.url, timeout=10) as response:
            payload = _json.loads(response.read().decode())
        (mount,) = payload["logs"]
        assert mount["pending"] == 1
        assert mount["tree_size"] == 3
        assert server.drain_writes() == 1
    assert log.size == 4


def test_disqualified_sequenced_log_rejects_over_http():
    log = _build_log("DQ Log", entries=2)
    (precert,), ikh = _precerts(1, "dq")
    with LogServer(log, merge_interval=0.05) as server:
        log.disqualify()
        client = LogClient(server.log_url(log.name), timeout=30)
        with pytest.raises(LogClientError) as excinfo:
            client.add_pre_chain(precert, ikh)
        assert excinfo.value.status == 410
    assert log.size == 2
