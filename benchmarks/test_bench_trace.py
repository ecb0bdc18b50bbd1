"""Cost of distributed tracing on the live storm path: on vs off.

Two identical seeded storms run serially against a live
sequencer-backed :class:`~repro.ct.server.LogServer`; one bare, one
fully traced — client root spans per op, the trace context crossing
the wire in ``X-Repro-Traceparent``, server + sequencer spans, and
every span serialized into an in-memory event log.  Two gates:

* the storm's trace-independent output (op kinds, statuses, verify
  verdicts, errors) must be **byte-identical** between the runs —
  tracing observes the storm, it never changes it;
* tracing must cost < ``OVERHEAD_CEILING`` over the bare storm.

Overhead is measured in **process CPU time**, not wall clock: client
and server share one process, tracing cost is pure CPU, and on shared
CI runners wall-clock per-request latency swings far more than the
ceiling this gate enforces.  Bare and traced storms in a pair serve
the same seeded :class:`~repro.workloads.scenario.Scenario` (hence the
same derived key), so signing work is identical and only tracing
differs.  A full run measures a fixed ``PAIRS`` pairs, alternating
which side runs first, and judges the **median** pair's overhead, so
neither a pass nor a fail hangs on one lucky or unlucky pair.
"""

import json
import statistics
import time

from conftest import record_artifact

from repro.obs import NULL_EVENTS, NULL_TRACER, EventLog, SpanTracer
from repro.workloads.loadgen import LoadStormConfig
from repro.workloads.scenario import Scenario

SEED = 2018
#: Bare/traced storm pairs in a full run (a smoke run measures one).
PAIRS = 10
#: Ceiling on the median pair's overhead.  The storm is small (~20 ms
#: CPU per side), so tracing costs a visible share of it: 60 pairs of
#: the code this estimator replaced, on 2 vCPUs with Python 3.11.7,
#: read a median of +34% and an upper quartile of +56% (CHANGES.md has
#: the values).  The ceiling sits just above that upper quartile.
OVERHEAD_CEILING = 0.60
#: ``await_inclusion=False``: inclusion polling races the background
#: merge worker and its sleeps would swamp the tracing signal.  The
#: timed section is pure request/response work; merges drain after.
SCENARIO = Scenario(
    log_entries=4,
    storm=LoadStormConfig(
        seed=SEED, browsers=2, monitors=1, submitters=4, await_inclusion=False
    ),
    merge_interval=60.0,
    executor="serial",
)


def _stable_view(report):
    """The storm's trace-independent output, as canonical JSON."""
    return json.dumps(
        [
            {
                "client": result.name,
                "kind": result.kind,
                "errors": result.errors,
                "ops": [
                    {
                        "kind": op.kind,
                        "status": op.status,
                        "verified": op.verified,
                    }
                    for op in result.ops
                ],
            }
            for result in report.results
        ],
        sort_keys=True,
    )


def _run_storm(traced):
    events = EventLog(tail_size=65536) if traced else NULL_EVENTS
    tracer = (
        SpanTracer(seed=SEED, name="bench", events=events)
        if traced
        else NULL_TRACER
    )
    # Leaving a traced world checks zero orphan spans and an identical
    # event replay, outside the timed section.
    with SCENARIO.serve(events=events, tracer=tracer) as world:
        started = time.process_time()
        report = world.storm()
        spent = time.process_time() - started
    return spent, report, len(world.trace_store)


def _pair(traced_first):
    """One bare and one traced storm, in the given order."""
    if traced_first:
        traced_seconds, traced_report, spans = _run_storm(True)
        bare_seconds, bare_report, _ = _run_storm(False)
    else:
        bare_seconds, bare_report, _ = _run_storm(False)
        traced_seconds, traced_report, spans = _run_storm(True)
    # Tracing-off output stays byte-identical to tracing-on.
    assert _stable_view(bare_report) == _stable_view(traced_report)
    return bare_seconds, traced_seconds, spans, bare_report


def test_bench_tracing_overhead(request):
    smoke = request.config.getoption("--benchmark-disable", default=False)
    # One seeded log both sides: identical keys, identical signing
    # work — a pair differs only in tracing and in which ran first.
    pairs = [_pair(traced_first=n % 2 == 1) for n in range(1 if smoke else PAIRS)]
    overheads = [traced / bare - 1.0 for bare, traced, _, _ in pairs]
    overhead = statistics.median(overheads)

    if not smoke:
        assert overhead < OVERHEAD_CEILING, (
            f"median tracing overhead {overhead:.1%} over {len(pairs)} "
            f"pairs exceeds the {OVERHEAD_CEILING:.0%} ceiling"
        )

    ops = sum(len(result.ops) for result in pairs[0][3].results)
    bare_ms = statistics.median(pair[0] for pair in pairs) * 1e3
    traced_ms = statistics.median(pair[1] for pair in pairs) * 1e3
    lines = [
        f"Distributed tracing — seed {SEED}, serial storm, {ops} ops, "
        f"{len(pairs)} pairs (first side alternating)",
        f"  tracing off  {bare_ms:8.2f} ms CPU (median)",
        f"  tracing on   {traced_ms:8.2f} ms CPU (median, {pairs[0][2]} spans)",
        f"  overhead     {overhead:+.1%} (median pair; "
        f"range {min(overheads):+.1%} .. {max(overheads):+.1%})",
        f"  ceiling      {OVERHEAD_CEILING:.0%}",
    ]
    record_artifact(
        "trace",
        "\n".join(lines),
        data={
            "seed": SEED,
            "ops": ops,
            "overhead": overhead,
            "pairs": [
                {
                    "traced_first": n % 2 == 1,
                    "bare_seconds": bare,
                    "traced_seconds": traced,
                    "overhead": traced / bare - 1.0,
                }
                for n, (bare, traced, _, _) in enumerate(pairs)
            ],
            "ceiling": OVERHEAD_CEILING,
        },
    )
