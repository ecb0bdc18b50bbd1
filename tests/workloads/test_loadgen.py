"""Unit tests for the load-storm planner and report math (no sockets)."""

import pickle

import pytest

from repro.util.timeutil import utc_datetime
from repro.workloads.loadgen import (
    READ_OPS,
    ClientResult,
    LoadStormConfig,
    LoadStormReport,
    OpResult,
    plan_storm,
    run_storm,
)
from repro.workloads.scenario import seeded_log

NOW = utc_datetime(2018, 5, 1, 10, 0)


def test_plans_are_deterministic_and_seed_sensitive():
    log = seeded_log(1, 10)
    config = LoadStormConfig(seed=5, browsers=2, monitors=1, submitters=1)
    assert plan_storm(config, log) == plan_storm(config, log)
    other = LoadStormConfig(seed=6, browsers=2, monitors=1, submitters=1)
    assert plan_storm(config, log) != plan_storm(other, log)


def test_plan_population_matches_config():
    log = seeded_log(1, 10)
    config = LoadStormConfig(
        seed=3,
        browsers=3,
        monitors=2,
        submitters=2,
        audits_per_browser=4,
        pages_per_monitor=3,
        submissions_per_submitter=5,
    )
    plans = plan_storm(config, log)
    assert [plan.kind for plan in plans].count("browser") == 3
    assert [plan.kind for plan in plans].count("monitor") == 2
    assert [plan.kind for plan in plans].count("submitter") == 2
    assert sum(plan.submissions for plan in plans) == 10
    # Browsers: one get-sth plus the audits, all reads.
    browser = next(plan for plan in plans if plan.kind == "browser")
    assert browser.reads == len(browser.ops) == 5
    # Monitors end with a consistency check against the seed head.
    monitor = next(plan for plan in plans if plan.kind == "monitor")
    assert monitor.ops[-1].kind == "get_sth_consistency"
    assert monitor.ops[-1].second == log.size
    # Submitters carry real poisoned precertificates in wire form and
    # end with one await_inclusion op covering every submitted leaf.
    submitter = next(plan for plan in plans if plan.kind == "submitter")
    assert [op.kind for op in submitter.ops] == ["add_pre_chain"] * 5 + [
        "await_inclusion"
    ]
    assert all(
        op.chain and op.issuer_key_hash
        for op in submitter.ops
        if op.kind == "add_pre_chain"
    )
    assert submitter.awaited_leaves == 5
    assert len(submitter.ops[-1].leaves) == 5
    assert submitter.submissions == 5  # the await op is not a submission
    assert submitter.reads == 0  # ...and not a read either


def test_await_inclusion_can_be_disabled():
    log = seeded_log(1, 10)
    config = LoadStormConfig(
        seed=3, browsers=0, monitors=0, submitters=2,
        submissions_per_submitter=4, await_inclusion=False,
    )
    for plan in plan_storm(config, log):
        assert all(op.kind == "add_pre_chain" for op in plan.ops)
        assert plan.awaited_leaves == 0


def test_monitor_pages_pinned_to_seed_tree_size():
    """TOCTOU guard: planned reads never reach past the seeded tree.

    Submitter clients grow the log mid-storm, so a monitor page
    planned as ``cursor + page_size - 1`` could land beyond the seed
    size and return entries the verification STH does not cover.  The
    planner must clamp every page to the seed window and pin its
    ``tree_size`` so execution can reject any over-answer.
    """
    log = seeded_log(1, 10)
    config = LoadStormConfig(
        seed=9,
        browsers=0,
        monitors=3,
        submitters=2,
        pages_per_monitor=8,
        page_size=7,  # guarantees cursor + page_size overruns size 10
        submissions_per_submitter=4,
    )
    pages = [
        op
        for plan in plan_storm(config, log)
        for op in plan.ops
        if op.kind == "get_entries"
    ]
    assert pages
    assert any(op.start + config.page_size - 1 > 9 for op in pages)
    for op in pages:
        assert 0 <= op.start <= op.end <= 9  # clamped to the seed window
        assert op.tree_size == 10  # pinned for execution-time checks


def test_plans_are_picklable_for_process_executor():
    log = seeded_log(1, 4)
    config = LoadStormConfig(
        seed=1, browsers=1, monitors=1, submitters=1,
        audits_per_browser=1, pages_per_monitor=1,
        submissions_per_submitter=1,
    )
    plans = plan_storm(config, log)
    assert pickle.loads(pickle.dumps(plans)) == plans


def test_plan_storm_rejects_empty_log():
    with pytest.raises(ValueError, match="seeded"):
        plan_storm(LoadStormConfig(), seeded_log(1, 0))


def test_run_storm_rejects_unknown_executor():
    with pytest.raises(ValueError, match="executor"):
        run_storm([], "http://127.0.0.1:1", executor="fibers")


def _report(ops_by_client):
    return LoadStormReport(
        wall_seconds=2.0,
        executor="thread",
        workers=4,
        clients=len(ops_by_client),
        results=[
            ClientResult("browser", f"c{i}", ops=list(ops))
            for i, ops in enumerate(ops_by_client)
        ],
    )


def test_report_percentiles_and_rates():
    reads = [
        OpResult("get_sth", 200, seconds / 100, True)
        for seconds in range(1, 101)
    ]
    submissions = [OpResult("add_pre_chain", 200, 0.01, True)] * 10
    rejected = [OpResult("add_pre_chain", 429, 0.01, None)] * 3
    failed = [OpResult("get_entries", 400, 0.01, None)]
    report = _report([reads, submissions + rejected + failed])

    assert report.reads_ok == 100
    assert report.read_p50 == pytest.approx(0.505, abs=0.01)
    assert report.read_p99 == pytest.approx(1.0, abs=0.02)
    assert report.submissions_ok == 10
    assert report.submissions_rejected == 3
    assert report.submissions_per_sec == pytest.approx(5.0)
    assert report.reads_per_sec == pytest.approx(50.0)
    assert report.status_counts() == {200: 110, 400: 1, 429: 3}
    assert report.transport_errors == 0


def test_report_flags_verification_failures_only_on_success():
    ops = [
        OpResult("get_proof_by_hash", 200, 0.01, False),  # lying server
        OpResult("get_proof_by_hash", 404, 0.01, None),  # clean error
        OpResult("get_sth", -1, 0.01, None),  # transport
    ]
    report = _report([ops])
    assert report.verification_failures == 1
    assert report.transport_errors == 1


def test_report_to_dict_round_trips_schema():
    report = _report([[OpResult("get_sth", 200, 0.5, True)]])
    data = report.to_dict()
    assert data["version"] == 2
    assert data["clients"] == 1
    assert data["reads_ok"] == 1
    assert data["status_counts"] == {"200": 1}
    for key in (
        "sct_p50_s", "sct_p99_s", "merge_lag_max_s", "merge_lag_mean_s",
        "inclusions_verified",
    ):
        assert key in data
    assert set(READ_OPS) == {
        "get_sth", "get_entries", "get_proof_by_hash", "get_sth_consistency"
    }


def test_report_separates_sct_latency_from_merge_lag():
    submissions = [
        OpResult("add_pre_chain", 200, 0.002, True),
        OpResult("add_pre_chain", 200, 0.004, True),
        OpResult("add_pre_chain", 429, 9.0, None),  # rejected: excluded
    ]
    awaits = [
        OpResult("await_inclusion", 200, 0.050, True),
        OpResult("await_inclusion", 200, 0.030, True),
        OpResult("await_inclusion", 200, 10.0, False),  # timed out
    ]
    report = _report([submissions, awaits])
    assert report.sct_latencies == [0.002, 0.004]
    assert report.sct_p99 <= 0.004
    # Merge lag comes from the await ops — including the timeout (its
    # duration is real waiting), but it fails inclusion verification.
    assert report.merge_lag_max_s == pytest.approx(10.0)
    assert report.merge_lag_mean_s == pytest.approx((0.05 + 0.03 + 10.0) / 3)
    assert report.inclusions_verified == 2
    assert report.verification_failures == 1
    # The await ops never leak into the read-latency percentiles.
    assert report.read_latencies == []


def test_report_render_mentions_the_gated_numbers():
    report = _report([[OpResult("add_pre_chain", 200, 0.01, True)]])
    rendered = report.render()
    assert "submissions" in rendered
    assert "p99" in rendered
    assert "thread pool" in rendered
    assert "sct latency" in rendered
    assert "merge lag" not in rendered  # no await ops ran


def test_report_render_includes_merge_lag_when_awaited():
    report = _report(
        [[
            OpResult("add_pre_chain", 200, 0.01, True),
            OpResult("await_inclusion", 200, 0.2, True),
        ]]
    )
    rendered = report.render()
    assert "merge lag" in rendered
    assert "1 submitters fully included" in rendered


# -- monitor swarm planning and storm gossip (no sockets) -------------------


def test_swarm_subscriptions_deterministic_and_sorted():
    from repro.workloads.loadgen import (
        MonitorSwarmConfig,
        plan_swarm_subscriptions,
    )

    pool = [f"d{i}.example" for i in range(20)]
    config = MonitorSwarmConfig(seed=5, monitors=10, domains_per_monitor=2)
    subs = plan_swarm_subscriptions(config, pool)
    assert subs == plan_swarm_subscriptions(config, list(reversed(pool)))
    assert len(subs) == 10
    assert [name for name, _ in subs] == [f"lw-monitor-{m}" for m in range(10)]
    for _, domains in subs:
        assert len(domains) == 2
        assert list(domains) == sorted(domains)
        assert set(domains) <= set(pool)
    other = MonitorSwarmConfig(seed=6, monitors=10, domains_per_monitor=2)
    assert plan_swarm_subscriptions(other, pool) != subs


def test_swarm_subscriptions_reject_empty_pool():
    from repro.workloads.loadgen import (
        MonitorSwarmConfig,
        plan_swarm_subscriptions,
    )

    with pytest.raises(ValueError):
        plan_swarm_subscriptions(MonitorSwarmConfig(), [])


def test_monitor_swarm_validates_inputs():
    from repro.workloads.loadgen import MonitorSwarm

    with pytest.raises(ValueError):
        MonitorSwarm("http://x", "L", [], mode="lightweight")
    with pytest.raises(ValueError):
        MonitorSwarm(
            "http://x", "L", [("m", ("d.example",))], mode="firehose"
        )


def test_gossip_storm_sths_skips_failed_and_foreign_ops():
    import base64

    from repro.ct.auditor import GossipPool
    from repro.workloads.loadgen import gossip_storm_sths

    log = seeded_log(1, 4)
    sth = log.get_sth(NOW)
    body = {
        "tree_size": sth.tree_size,
        "timestamp": sth.timestamp_ms,
        "sha256_root_hash": base64.b64encode(sth.root_hash).decode(),
        "tree_head_signature": base64.b64encode(sth.signature).decode(),
    }
    results = [
        ClientResult(
            kind="browser", name="b-0",
            ops=[
                OpResult("get_sth", 200, 0.001, True, sth=body),
                OpResult("get_sth", 500, 0.001, None),  # failed: skipped
                OpResult("get_entries", 200, 0.001, True),  # not an STH
            ],
        ),
        ClientResult(
            kind="monitor", name="m-0",
            ops=[OpResult("get_sth", 200, 0.001, True, sth=body)],
        ),
    ]
    report = LoadStormReport(
        wall_seconds=0.01, executor="serial", workers=1,
        clients=2, results=results,
    )
    pool = GossipPool({log.name: log.key})
    findings = gossip_storm_sths(report, pool, log.name, now=NOW)
    assert findings == []
    assert pool.sths_gossiped == 2
    assert pool.clean
