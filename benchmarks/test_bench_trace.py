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
differs; the gate takes the minimum ratio over up to ``MAX_REPEATS``
interleaved pairs, stopping at the first pair under the ceiling.
"""

import json
import time

from conftest import record_artifact

from repro.obs import NULL_EVENTS, NULL_TRACER, EventLog, SpanTracer
from repro.workloads.loadgen import LoadStormConfig
from repro.workloads.scenario import Scenario

SEED = 2018
#: Upper bound on bare/traced storm pairs; the gate takes the best
#: (minimum) ratio and stops as soon as one pair lands under the
#: ceiling, so a clean machine runs a single pair.
MAX_REPEATS = 6
OVERHEAD_CEILING = 0.05
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


def test_bench_tracing_overhead(request):
    smoke = request.config.getoption("--benchmark-disable", default=False)
    runs = []
    for repeat in range(1 if smoke else MAX_REPEATS):
        # One seeded log both sides: identical keys, identical signing
        # work — the pair differs only in tracing.
        bare_seconds, bare_report, _ = _run_storm(False)
        traced_seconds, traced_report, spans = _run_storm(True)
        # Tracing-off output stays byte-identical to tracing-on.
        assert _stable_view(bare_report) == _stable_view(traced_report)
        runs.append((bare_seconds, traced_seconds, spans))
        if traced_seconds / bare_seconds - 1.0 < OVERHEAD_CEILING:
            break

    # Min over repeats: shared-runner noise only ever inflates a pair.
    # The rendering reports that one pair's CPU times, never minima
    # taken from different pairs.
    best = min(range(len(runs)), key=lambda i: runs[i][1] / runs[i][0])
    bare_seconds, traced_seconds, spans = runs[best]
    overhead = traced_seconds / bare_seconds - 1.0

    if not smoke:
        assert overhead < OVERHEAD_CEILING, (
            f"tracing overhead {overhead:.1%} exceeds the "
            f"{OVERHEAD_CEILING:.0%} ceiling after {len(runs)} pairs"
        )

    ops = sum(len(result.ops) for result in bare_report.results)
    lines = [
        f"Distributed tracing — seed {SEED}, serial storm, {ops} ops",
        f"  tracing off  {bare_seconds * 1e3:8.2f} ms CPU   "
        f"(pair {best + 1} of {len(runs)})",
        f"  tracing on   {traced_seconds * 1e3:8.2f} ms CPU   "
        f"({spans} spans, {overhead:+.1%})",
        f"  ceiling      {OVERHEAD_CEILING:.0%}",
    ]
    record_artifact(
        "trace",
        "\n".join(lines),
        data={
            "seed": SEED,
            "max_repeats": MAX_REPEATS,
            "ops": ops,
            "bare_seconds": bare_seconds,
            "traced_seconds": traced_seconds,
            "overhead": overhead,
            "pairs": [
                {
                    "bare_seconds": bare,
                    "traced_seconds": traced,
                    "overhead": traced / bare - 1.0,
                }
                for bare, traced, _ in runs
            ],
            "ceiling": OVERHEAD_CEILING,
        },
    )
