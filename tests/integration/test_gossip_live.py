"""Split-view serving and wire-level STH gossip, end to end.

An equivocating operator mounts a :class:`~repro.ct.server.SplitView`:
the honest log plus a fully servable twin, partitioned per client
identity (the ``X-Repro-Client`` header).  The suites here prove the
attack is *served* faithfully — both views answer the full read API —
and then *caught*: independent storm clients gossip the STHs they saw
and :class:`~repro.ct.auditor.GossipPool` pins the fork, surfacing a
:class:`~repro.workloads.incidents.SplitViewIncident`.
"""

from datetime import timedelta

import pytest

from repro.ct.auditor import GossipPool, make_split_view_log
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.monitor import HttpTransport, LightweightMonitor
from repro.ct.server import (
    LogClient,
    LogServer,
    SplitView,
    default_split_partition,
    harvest_log,
)
from repro.util.timeutil import utc_datetime
from repro.workloads.incidents import split_view_incidents
from repro.workloads.loadgen import LoadStormConfig, gossip_storm_sths
from repro.workloads.scenario import Scenario
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 10, 0)


def _build_log(name="Gossip Log", entries=12):
    log = CTLog(name=name, operator="Gossip", key=log_key(name, 256))
    ca = CertificateAuthority("Gossip CA", key_bits=256)
    for i in range(entries):
        ca.issue(
            IssuanceRequest((f"site{i}.example",)),
            [log],
            NOW + timedelta(seconds=i),
        )
    return log


@pytest.fixture()
def split_served():
    log = _build_log()
    twin = make_split_view_log(log, fork_at=log.size // 2, pad_to=log.size)
    with LogServer(SplitView(log, twin)) as server:
        yield server, log, twin


def test_default_partition_is_deterministic():
    assert default_split_partition("") is False  # anonymous -> honest
    assert default_split_partition("browser-0") is False
    assert default_split_partition("browser-1") is True
    assert default_split_partition("browser-2") is False
    # Non-numeric tails hash stably.
    assert default_split_partition("alice") == default_split_partition("alice")


def test_split_view_requires_matching_slug():
    log = _build_log()
    other = _build_log(name="Other Log", entries=3)
    with pytest.raises(ValueError):
        SplitView(log, other)


def test_partitioned_clients_see_different_roots(split_served):
    server, log, twin = split_served
    url = server.log_url(log.name)
    honest_client = LogClient(url, client_id="browser-0")
    victim_client = LogClient(url, client_id="browser-1")
    honest_sth = honest_client.get_signed_tree_head()
    victim_sth = victim_client.get_signed_tree_head()
    assert honest_sth.tree_size == victim_sth.tree_size == log.size
    assert honest_sth.root_hash != victim_sth.root_hash
    assert honest_sth.root_hash == log.tree.root()
    assert victim_sth.root_hash == twin.tree.root()
    # Both STHs verify under the shared log key: signatures alone
    # cannot expose the equivocation — only gossip can.
    assert honest_sth.verify(log.key)
    assert victim_sth.verify(log.key)


def test_anonymous_client_gets_honest_view(split_served):
    server, log, _twin = split_served
    client = LogClient(server.log_url(log.name))
    assert client.get_signed_tree_head().root_hash == log.tree.root()


def test_twin_view_is_fully_servable(split_served):
    server, log, twin = split_served
    victim_client = LogClient(
        server.log_url(log.name), client_id="browser-1"
    )
    harvested = harvest_log(victim_client, name=log.name)
    assert harvested.tree.root() == twin.tree.root()
    assert harvested.size == twin.size


def test_submissions_land_on_the_honest_log(split_served):
    server, log, twin = split_served
    ca = CertificateAuthority("Gossip Submit CA", key_bits=256)
    scratch = CTLog(
        name="gossip-scratch", operator="G", key=log_key("gossip-scratch", 256)
    )
    pair = ca.issue(IssuanceRequest(("new.example",)), [scratch], NOW)
    victim_client = LogClient(
        server.log_url(log.name), client_id="browser-1"
    )
    sct = victim_client.add_pre_chain(
        pair.precertificate, ca.issuer_key_hash
    )
    assert sct is not None
    assert log.size == 13
    assert twin.size == 12


def test_lightweight_monitor_catches_the_swap(split_served):
    server, log, _twin = split_served
    url = server.log_url(log.name)
    monitor = LightweightMonitor("lw", ["site3.example"], key=log.key)
    # First poll rides the honest partition and verifies cleanly …
    honest = HttpTransport(url, log.name, client_id="client-0")
    assert len(monitor.poll(honest, NOW + timedelta(hours=1))) == 1
    assert monitor.clean
    # … then the operator flips this client onto the twin: the new STH
    # cannot be proven consistent with the verified history.
    victim = HttpTransport(url, log.name, client_id="client-1")
    assert monitor.poll(victim, NOW + timedelta(hours=2)) == []
    assert not monitor.clean
    assert monitor.findings[0].kind == "inconsistent-history"


def test_honest_mount_still_gossips_clean():
    spec = Scenario(
        log_entries=12,
        storm=LoadStormConfig(
            seed=7, browsers=4, monitors=2, submitters=0,
            audits_per_browser=2, pages_per_monitor=2,
        ),
    )
    # Leaving the world checks zero transport errors.
    with spec.serve() as world:
        report = world.storm()
    pool = GossipPool({world.log.name: world.log.key})
    assert gossip_storm_sths(report, pool, world.log.name) == []
    assert pool.clean
    assert split_view_incidents(pool) == []


def test_mini_monitor_swarm_lightweight_beats_replay():
    from repro.workloads.loadgen import (
        MonitorSwarmConfig,
        MonitorSwarm,
        plan_swarm_subscriptions,
    )

    log = _build_log(name="Swarm Mini Log", entries=20)
    pool = [
        name for entry in log.entries
        for name in entry.certificate.dns_names()
    ]
    config = MonitorSwarmConfig(
        seed=11, monitors=6, domains_per_monitor=2, workers=4
    )
    subscriptions = plan_swarm_subscriptions(config, pool)
    with LogServer(log) as server:
        url = server.log_url(log.name)
        light = MonitorSwarm(
            url, log.name, subscriptions, mode="lightweight",
            key=log.key, workers=4,
        )
        replay = MonitorSwarm(
            url, log.name, subscriptions, mode="replay", workers=4,
        )
        assert light.poll(NOW) >= 6
        replay.poll(NOW)
    assert light.missed_subscribed(log) == 0
    assert replay.missed_subscribed(log) == 0
    assert light.findings() == []
    light_wire = light.wire_totals()
    replay_wire = replay.wire_totals()
    # Replay members each pull all 20 bodies; light-weight members pull
    # only their subscribed entries.
    assert replay_wire["entries"] == 6 * log.size
    assert light_wire["entries"] < replay_wire["entries"]
    assert light_wire["bytes"] < replay_wire["bytes"]
