"""Verifiable light-weight monitoring vs replay, over real HTTP.

Two equal-coverage monitor swarms track the same growing served log:

* **lightweight** — :class:`repro.ct.monitor.LightweightMonitor`
  members walk signed batch digests and download *only* the entry
  bodies matching their domain subscriptions (plus inclusion proofs);
* **replay** — the control population of
  :class:`repro.ct.monitor.BatchMonitor` members that download every
  entry, the cost every §5/§6-style monitor pays today.

The gates are the paper-level claim made concrete: the light-weight
swarm must move **>= 10x fewer entry bodies and bytes** over the wire
while missing **zero** subscribed-domain certificates.  A second
benchmark closes the gossip loop end to end: a seeded storm against a
split-view server must surface a gossip-detected
:class:`~repro.workloads.incidents.SplitViewIncident`.

Both workloads are deterministic (seeded subscriptions, explicit
sequencer merges, pinned clocks), so the entry-count keys in the
recorded artifacts are regression-exact; only byte/ratio/timing keys
may drift.
"""

import time

from conftest import record_artifact

from repro.ct.auditor import GossipPool, make_split_view_log
from repro.ct.log import CTLog
from repro.ct.sequencer import LogSequencer
from repro.ct.server import LogServer
from repro.util.timeutil import utc_datetime
from repro.workloads.incidents import split_view_incidents
from repro.workloads.loadgen import (
    LoadStormConfig,
    MonitorSwarm,
    MonitorSwarmConfig,
    gossip_storm_sths,
    plan_swarm_subscriptions,
)
from repro.workloads.scenario import Scenario
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest

SEED_ENTRIES = 60
GROWTH_ENTRIES = 20
SWARM = MonitorSwarmConfig(
    seed=2018, monitors=100, domains_per_monitor=2, workers=16
)
MERGE_BATCH = 10  # growth lands as two merge batches (two digests)
MIN_WIRE_RATIO = 10.0
NOW = utc_datetime(2018, 5, 1, 9, 0)


def _seeded_log():
    log = CTLog(
        name="Bench Monitor Log",
        operator="Repro",
        key=crypto.KeyPair.generate("bench-monitor-log", 256),
    )
    ca = CertificateAuthority("Bench Monitor CA", key_bits=256)
    for index in range(SEED_ENTRIES):
        ca.issue(
            IssuanceRequest((f"site{index}.bench.example",)), [log], NOW
        )
    return log


def _growth_precerts(count):
    """Fresh precertificates reusing seeded names (new certs, same domains)."""
    ca = CertificateAuthority("Bench Growth CA", key_bits=256)
    scratch = CTLog(
        name="bench-monitor-scratch",
        operator="Repro",
        key=crypto.KeyPair.generate("bench-monitor-scratch", 256),
    )
    pairs = [
        ca.issue(
            IssuanceRequest((f"site{index}.bench.example",)), [scratch], NOW
        )
        for index in range(count)
    ]
    return [pair.precertificate for pair in pairs], ca.issuer_key_hash


def test_bench_lightweight_swarm_wire_efficiency():
    log = _seeded_log()
    domain_pool = [
        name for entry in log.entries
        for name in entry.certificate.dns_names()
    ]
    subscriptions = plan_swarm_subscriptions(SWARM, domain_pool)
    sequencer = LogSequencer(log, max_batch=MERGE_BATCH)

    started = time.perf_counter()
    with LogServer(sequencer) as server:
        url = server.log_url(log.name)
        light = MonitorSwarm(
            url, log.name, subscriptions, mode="lightweight",
            key=log.key, workers=SWARM.workers,
            page_size=SWARM.page_size,
        )
        replay = MonitorSwarm(
            url, log.name, subscriptions, mode="replay",
            workers=SWARM.workers, page_size=SWARM.page_size,
        )
        # Round 1: both swarms catch up on the seeded tree.
        matched_light = light.poll(utc_datetime(2018, 5, 1, 10, 0))
        matched_replay = replay.poll(utc_datetime(2018, 5, 1, 10, 0))
        # The log grows by two explicit merge batches …
        precerts, issuer_key_hash = _growth_precerts(GROWTH_ENTRIES)
        for precert in precerts:
            sequencer.submit_pre_chain(precert, issuer_key_hash)
        merge_results = sequencer.run_merges(
            GROWTH_ENTRIES, utc_datetime(2018, 5, 1, 11, 0)
        )
        merges = len(merge_results)
        assert merges == GROWTH_ENTRIES // MERGE_BATCH
        # … and round 2 tracks the growth.
        matched_light += light.poll(utc_datetime(2018, 5, 1, 12, 0))
        matched_replay += replay.poll(utc_datetime(2018, 5, 1, 12, 0))
    wall = time.perf_counter() - started

    light_wire = light.wire_totals()
    replay_wire = replay.wire_totals()
    tree_size = SEED_ENTRIES + GROWTH_ENTRIES
    assert log.size == tree_size

    # Zero-miss: every subscribed-domain entry reached its subscriber,
    # in both populations, and every proof verified.
    assert light.missed_subscribed(log) == 0
    assert replay.missed_subscribed(log) == 0
    assert light.findings() == []
    assert matched_light == matched_replay

    # The control population replays everything; the light-weight one
    # downloads only what it subscribed to — >= 10x cheaper on entry
    # bodies and on raw bytes (these ratios are workload-determined,
    # not machine-dependent, so they gate in every mode).
    assert replay_wire["entries"] == SWARM.monitors * tree_size
    entries_ratio = replay_wire["entries"] / max(1, light_wire["entries"])
    bytes_ratio = replay_wire["bytes"] / max(1, light_wire["bytes"])
    assert entries_ratio >= MIN_WIRE_RATIO, (
        f"light-weight swarm fetched {light_wire['entries']} entry bodies "
        f"vs replay's {replay_wire['entries']} — only "
        f"{entries_ratio:.1f}x better, needs >= {MIN_WIRE_RATIO:.0f}x"
    )
    assert bytes_ratio >= MIN_WIRE_RATIO, (
        f"light-weight swarm moved {light_wire['bytes']} bytes vs replay's "
        f"{replay_wire['bytes']} — only {bytes_ratio:.1f}x better, "
        f"needs >= {MIN_WIRE_RATIO:.0f}x"
    )

    lines = [
        f"Light-weight monitor swarm — {SWARM.monitors} monitors x "
        f"{SWARM.domains_per_monitor} domains over a {tree_size}-entry "
        f"served log ({SEED_ENTRIES} seeded + {GROWTH_ENTRIES} merged), "
        f"{wall:.2f}s wall",
        f"  lightweight  {light_wire['entries']:6d} entry bodies  "
        f"{light_wire['bytes']:10d} bytes  "
        f"{light_wire['requests']:6d} requests",
        f"  replay       {replay_wire['entries']:6d} entry bodies  "
        f"{replay_wire['bytes']:10d} bytes  "
        f"{replay_wire['requests']:6d} requests",
        f"  efficiency   {entries_ratio:.1f}x fewer bodies, "
        f"{bytes_ratio:.1f}x fewer bytes, {matched_light} matches, "
        f"0 missed, 0 findings",
        f"  gates        >= {MIN_WIRE_RATIO:.0f}x on entries and bytes, "
        f"zero subscribed-domain misses",
    ]
    record_artifact(
        "monitor_swarm",
        "\n".join(lines),
        data={
            "monitors": SWARM.monitors,
            "domains_per_monitor": SWARM.domains_per_monitor,
            "seed_entries": SEED_ENTRIES,
            "growth_entries": GROWTH_ENTRIES,
            "tree_size": tree_size,
            "merge_batches": merges,
            "matched_observations": matched_light,
            "missed_subscribed": 0,
            "findings": 0,
            "light_entries": light_wire["entries"],
            "replay_entries": replay_wire["entries"],
            "light_bytes": light_wire["bytes"],
            "replay_bytes": replay_wire["bytes"],
            "light_requests": light_wire["requests"],
            "replay_requests": replay_wire["requests"],
            "entries_ratio": entries_ratio,
            "bytes_ratio": bytes_ratio,
            "wall_seconds": wall,
            "gate_min_wire_ratio": MIN_WIRE_RATIO,
        },
    )


GOSSIP = Scenario(
    log_entries=24,
    storm=LoadStormConfig(
        seed=2018, browsers=8, monitors=3, submitters=0,
        audits_per_browser=4, pages_per_monitor=4, page_size=8,
    ),
    split_view=True,
)


def test_bench_storm_gossip_detects_split_view():
    # The wire stays healthy (leaving the world checks zero transport
    # errors): the equivocation is served, not broken.
    started = time.perf_counter()
    with GOSSIP.serve() as world:
        report = world.storm()
    wall = time.perf_counter() - started
    log = world.log

    pool = GossipPool({log.name: log.key})
    findings = gossip_storm_sths(report, pool, log.name)
    incidents = split_view_incidents(pool)
    assert findings, "storm clients gossiping their STHs must expose the fork"
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.tree_size == log.size
    twin = make_split_view_log(log, fork_at=log.size // 2, pad_to=log.size)
    assert {incident.first_root, incident.second_root} == {
        log.tree.root().hex(), twin.tree.root().hex()
    }

    lines = [
        f"Split-view gossip under storm — {GOSSIP.storm.clients} clients "
        f"against a partitioned {log.size}-entry log "
        f"(fork at {log.size // 2}), {wall:.2f}s wall",
        report.render(),
        f"  gossip       {pool.sths_gossiped} STHs pooled, "
        f"{len(incidents)} split-view incident at size "
        f"{incident.tree_size}",
        "  gates        0 transport errors, exactly 1 detected incident",
    ]
    record_artifact(
        "monitor_gossip",
        "\n".join(lines),
        data={
            "clients": GOSSIP.storm.clients,
            "tree_size": log.size,
            "fork_at": log.size // 2,
            "sths_gossiped": pool.sths_gossiped,
            "split_view_incidents": len(incidents),
            "transport_errors": report.transport_errors,
            "reads_ok": report.reads_ok,
            "wall_seconds": wall,
        },
    )
