"""The seeded storm world: its log, its spec and its standing checks."""

import os
from dataclasses import replace

import pytest

from repro.ct.auditor import GossipPool, make_split_view_log
from repro.obs import EventLog, SpanTracer
from repro.obs.events import ENVELOPE_FIELDS
from repro.workloads.incidents import split_view_incidents
from repro.workloads.loadgen import LoadStormConfig, gossip_storm_sths
from repro.workloads.scenario import Scenario, seeded_log

# CI's log-server job pins one pool executor per matrix leg via
# REPRO_EXECUTOR; locally both run.
EXECUTORS = (
    [os.environ["REPRO_EXECUTOR"]]
    if os.environ.get("REPRO_EXECUTOR")
    else ["process", "thread"]
)
INVARIANTS = ("transport", "verification", "inclusion", "orphan-spans", "event-replay")
SMALL = Scenario(
    log_entries=6,
    storm=LoadStormConfig(
        seed=3, browsers=2, monitors=1, submitters=1, audits_per_browser=3,
        pages_per_monitor=2, page_size=4, submissions_per_submitter=3,
    ),
    executor="serial",
)
#: No submitter, so a dead wire leaves no awaited leaf unproven.
READERS = replace(SMALL, storm=replace(SMALL.storm, submitters=0))
#: Merges run once a minute and clients wait 0.2 s: no leaf lands.
UNMERGED = replace(
    SMALL, storm=replace(SMALL.storm, timeout_s=0.2), merge_interval=60.0
)


def _traced(tail_size=65536):
    events = EventLog(tail_size=tail_size)
    return events, SpanTracer(seed=3, name="scenario", events=events)


def test_seeded_log_is_pinned():
    assert seeded_log(1, 12).tree.root().hex() == (
        "684ea74af69f2ba8360256a61a71e19d9b1e1e059f3996f1128d87fa6f5df033"
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_traced_world_ships_every_span_home(executor):
    spec = replace(SMALL, merge_interval=0.02, executor=executor, workers=4)
    events, tracer = _traced()
    with spec.serve(events=events, tracer=tracer) as world:
        report = world.storm()
    assert report.inclusions_verified == 1
    assert len(world.submitted_domains()) == 2 * spec.storm.planned_submissions
    shipped = sum(len(result.spans) for result in report.results)
    assert 0 < shipped < len(world.trace_store)


def _stop_server_first(world):
    world.server.stop()
    world.storm()


def _fail_one_proof(world):
    world.storm().results[0].ops[1].verified = False


def _drop_root_span(world):
    # The root span's HTTP child now names a parent nobody recorded.
    spans = world.storm().results[0].spans
    spans.remove(next(s for s in spans if s["name"] == "storm.get_sth"))


def _emit_stray_span(world):
    world.storm()
    events = world.tracer.events
    span = next(e for e in events.tail(events.emitted) if e["kind"] == "span")
    fields = {k: v for k, v in span.items() if k not in ENVELOPE_FIELDS}
    events.emit("span", **{**fields, "span_id": "f" * 16})


@pytest.mark.parametrize(
    "invariant, spec, tail_size, run",
    [
        ("transport", READERS, 65536, _stop_server_first),
        ("verification", SMALL, 65536, _fail_one_proof),
        ("inclusion", UNMERGED, 65536, lambda world: world.storm()),
        ("orphan-spans", SMALL, 65536, _drop_root_span),
        ("event-replay", SMALL, 65536, _emit_stray_span),
        ("event-replay", SMALL, 8, lambda world: world.storm()),
    ],
    ids=["transport", "verification", "inclusion", "orphan", "stray", "ring"],
)
def test_each_invariant_trips_under_its_own_name(invariant, spec, tail_size, run):
    events, tracer = _traced(tail_size)
    broken = pytest.raises(AssertionError, match="scenario invariants broken")
    with broken as excinfo, spec.serve(events=events, tracer=tracer) as world:
        run(world)
    named = [name for name in INVARIANTS if f"{name}: " in str(excinfo.value)]
    assert named == [invariant]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_split_view_yields_exactly_one_incident(executor):
    spec = Scenario(
        log_entries=16,
        storm=LoadStormConfig(seed=7, browsers=6, monitors=2, submitters=0),
        split_view=True,
        executor=executor,
    )
    with spec.serve() as world:
        report = world.storm()
    # The twin's readers fail their proofs: that is the attack, not a
    # broken world, so a split view skips the verification check.
    assert report.verification_failures > 0
    log = world.log
    pool = GossipPool({log.name: log.key})
    assert gossip_storm_sths(report, pool, log.name), "the fork is exposed"
    assert pool.sths_gossiped >= spec.storm.clients
    incidents = [item.to_dict() for item in split_view_incidents(pool)]
    assert [item["kind"] for item in incidents] == ["split-view"]
    twin = make_split_view_log(log, fork_at=log.size // 2, pad_to=log.size)
    incident = incidents[0]
    assert (incident["log"], incident["tree_size"]) == (log.name, log.size)
    assert {incident["first_root"], incident["second_root"]} == {
        log.tree.root().hex(), twin.tree.root().hex()
    }
    assert incident["first_reporter"] != incident["second_reporter"]
