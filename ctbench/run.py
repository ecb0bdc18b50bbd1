"""CT-log benchmark: one command, two workloads.

Usage (from the root of a checkout)::

    python3 ctbench/run.py --workload audit_read --seed 1 --seconds 40 --trace 0

Every run seeds two logs from ``--seed``, serves them on loopback and
runs the three client journeys of :mod:`journeys` in interleaved
rounds (audit reads, harvest, certificate lifecycle).  The workload
picks which journey gets half of ``--seconds``; the other two get a
quarter each, so every run reports every end-to-end metric.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same plan twice at half length, untraced and under
:class:`layertrace.LayerTracer` in alternating rounds, and prints the
per-layer metrics; the gap between the two is ``trace_overhead``.  Both
modes verify every answer, write a JSON artifact to ``ctbench/out/``
and print one JSON result as the last line of standard output.  A
failed check makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("audit_read", "ct_lifecycle")
PHASES = ("audit", "harvest", "lifecycle")
PRIMARY = {"audit_read": "audit", "ct_lifecycle": "lifecycle"}
#: The latency samples whose means compare the untraced and traced passes.
PRIMARY_SAMPLE = {"audit": "read", "lifecycle": "sct"}

LOG_SIZE = 1024
SETUPS = 3
ROUNDS = 5
#: Never used while the benchmark or a change was tuned; re-run later
#: claims on it.
HELD_OUT_SEED = 9001

ENDPOINTS = (
    "get-sth",
    "get-entries",
    "get-proof-by-hash",
    "get-sth-consistency",
    "get-batch-digest",
    "add-pre-chain",
)


def phase_plan(workload: str, seconds: float) -> Dict[str, float]:
    """Seconds per journey: half for the workload's own, a quarter else."""
    primary = PRIMARY[workload]
    return {phase: seconds / (2 if phase == primary else 4) for phase in PHASES}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    k = (len(ordered) - 1) * q
    low = math.floor(k)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (k - low)


def run_pass(world, plan: Dict[str, float], tracers: List[object], tag: str):
    """Run the journeys in ``ROUNDS`` interleaved blocks per tracer.

    Interleaving spreads every journey over the whole run, so a slow
    stretch of the machine hits all metrics alike instead of one; with
    two tracers (untraced, traced) it also alternates the two passes
    round by round, so their gap is the tracing cost and not the
    machine's.  Each block's throughput lands in the ``round_rate``
    samples; the run reports their median, which a burst confined to
    one block cannot move.
    Returns one merged result per tracer.
    """
    import journeys

    merged = [{phase: journeys.PhaseResult() for phase in PHASES} for _ in tracers]
    for r in range(ROUNDS):
        for t, tracer in enumerate(tracers):
            memo_before = world.server.memo_stats()
            with tracer:
                blocks = {
                    "audit": journeys.audit_phase(world, plan["audit"] / ROUNDS, tracer, f"{tag}{t}{r}"),
                    "harvest": journeys.harvest_phase(
                        world, plan["harvest"] / ROUNDS, tracer, f"{tag}{t}{r}"
                    ),
                    "lifecycle": journeys.lifecycle_phase(
                        world, plan["lifecycle"] / ROUNDS, tracer, f"{tag}{t}{r}"
                    ),
                }
            tracer.count_memo(memo_before, world.server.memo_stats())
            audit, harvest = blocks["audit"], blocks["harvest"]
            reads = audit.samples.get("read", [])
            if reads:
                audit.add("round_rate", len(reads) / audit.seconds)
            if harvest.seconds:
                harvest.add("round_rate", harvest.counts.get("entries", 0) / harvest.seconds)
            for phase, block in blocks.items():
                merged[t][phase].absorb(block)
    return merged


def end_to_end(results, setup_s: float) -> Dict[str, Tuple[float, str]]:
    audit, harvest, lifecycle = results["audit"], results["harvest"], results["lifecycle"]
    ms = 1e3
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "reads_per_s": (median(audit.samples.get("round_rate", [])), "1/s"),
        "read_p50_ms": (percentile(audit.samples.get("read", []), 0.5) * ms, "ms"),
        "read_p90_ms": (percentile(audit.samples.get("read", []), 0.9) * ms, "ms"),
        "sct_p50_ms": (percentile(lifecycle.samples.get("sct", []), 0.5) * ms, "ms"),
        "detect_p50_ms": (percentile(lifecycle.samples.get("detect", []), 0.5) * ms, "ms"),
        "harvest_entries_per_s": (median(harvest.samples.get("round_rate", [])), "1/s"),
        "page_p50_ms": (percentile(harvest.samples.get("page", []), 0.5) * ms, "ms"),
        "page_p90_ms": (percentile(harvest.samples.get("page", []), 0.9) * ms, "ms"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, traced, untraced, workload: str) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced rounds (see README.md for the map).

    ``*_ms`` values are mean self time per call unless the README says
    otherwise; client-observed means use the call's whole duration.
    """
    c = tracer.counters
    calls = tracer.stat("client.call", "client")
    connects = tracer.stat("httpd.connect", "client")
    shares = [tracer.op_breakdown(op) for op in tracer.ops]

    def self_ms(layer: str, side: Optional[str] = None) -> Tuple[float, str]:
        stat = tracer.stat(layer, side)
        return _ratio(stat.self_time, stat.count) * 1e3, "ms"

    def total_ms(layer: str, side: str) -> Tuple[float, str]:
        stat = tracer.stat(layer, side)
        return _ratio(stat.total, stat.count) * 1e3, "ms"

    def per_call_ms(layer: str) -> Tuple[float, str]:
        return _ratio(sum(s.get(layer, 0.0) for s in shares), calls.count) * 1e3, "ms"

    merges = c["sequencer.merges"]
    polls = tracer.stat("monitor.poll", "client")
    folds = tracer.stat("dataset.fold", "client")
    metrics: Dict[str, Tuple[float, str]] = {
        "httpd.connects_per_call": (_ratio(connects.count, calls.count), "ratio"),
        "httpd.connect_ms": total_ms("httpd.connect", "client"),
        "httpd.accept_wait_ms": per_call_ms("httpd.accept_wait"),
        "httpd.server_request_ms": self_ms("httpd.server_request", "server"),
        "httpd.client_residual_ms": per_call_ms("httpd.client_residual"),
        "httpd.bytes_per_response": (_ratio(c["httpd.bytes"], calls.count), "bytes"),
    }
    for endpoint in ENDPOINTS:
        metrics[f"server.handle_ms.{endpoint}"] = self_ms(f"server.handle.{endpoint}", "server")
    metrics.update(
        {
            "server.memo_hit_rate": (_ratio(c["memo.hits"], c["memo.lookups"]), "ratio"),
            "merkle.proof_ms": self_ms("merkle.proof", "server"),
            "merkle.append_ms": self_ms("merkle.append"),
            "merkle.verify_ms": self_ms("merkle.verify", "client"),
            "crypto.signs": (float(tracer.stat("crypto.sign").count), "count"),
            "crypto.sign_ms": self_ms("crypto.sign"),
            "crypto.verifies": (float(tracer.stat("crypto.verify").count), "count"),
            "crypto.verify_ms": self_ms("crypto.verify"),
            "log.batch_digest_ms": self_ms("log.batch_digest", "server"),
            "sequencer.submit_ms": self_ms("sequencer.submit", "server"),
            "sequencer.merge_ms": (
                _ratio(tracer.stat("sequencer.merge", "server").self_time, merges) * 1e3,
                "ms",
            ),
            "sequencer.merges": (merges, "count"),
            "sequencer.entries_per_merge": (_ratio(c["sequencer.entries_merged"], merges), "count"),
            "sequencer.merge_lag_ms": (_ratio(c["sequencer.lag_s"], merges) * 1e3, "ms"),
            "monitor.poll_ms": total_ms("monitor.poll", "client"),
            "monitor.polls": (float(polls.count), "count"),
            "monitor.useful_poll_ratio": (_ratio(c["monitor.useful_polls"], polls.count), "ratio"),
            "monitor.requests_per_detection": (
                _ratio(tracer.calls_in("lifecycle.poll"), c["monitor.detections"]),
                "count",
            ),
        }
    )
    for endpoint in ENDPOINTS:
        metrics[f"client.call_ms.{endpoint}"] = total_ms(f"client.call.{endpoint}", "client")
    phase = PRIMARY[workload]
    base = untraced[phase].samples.get(PRIMARY_SAMPLE[phase], [])
    with_trace = traced[phase].samples.get(PRIMARY_SAMPLE[phase], [])
    late = traced["lifecycle"].samples.get("late", [])
    metrics.update(
        {
            "client.decode_ms": self_ms("client.decode", "client"),
            "dataset.fold_ms": self_ms("dataset.fold", "client"),
            "dataset.records_per_fold": (_ratio(c["dataset.records"], folds.count), "count"),
            "driver.late_ms": (_ratio(sum(late), len(late)) * 1e3, "ms"),
            "unattributed_ms": (
                _ratio(sum(s["unattributed"] for s in shares), len(shares)) * 1e3,
                "ms",
            ),
            "trace_overhead": (
                statistics.fmean(with_trace) / statistics.fmean(base) - 1.0
                if base and with_trace
                else 0.0,
                "ratio",
            ),
        }
    )
    return metrics


def breakdown_artifact(tracer) -> Dict[str, object]:
    """Per-layer counts and self time, the mean split of each op kind,
    and the ten slowest ops of each kind with their splits."""
    layers = {
        f"{side}:{name}": {
            "count": stat.count,
            "total_ms": round(stat.total * 1e3, 3),
            "self_ms": round(stat.self_time * 1e3, 3),
        }
        for (side, name), stat in sorted(tracer.stats.items())
    }
    by_kind: Dict[str, List[Tuple[float, str, Dict[str, float]]]] = {}
    for op, (kind, start, end) in tracer.ops.items():
        by_kind.setdefault(kind, []).append((end - start, op, tracer.op_breakdown(op)))

    def split_ms(split: Dict[str, float], n: int = 1) -> Dict[str, float]:
        return {k: round(v / n * 1e3, 3) for k, v in sorted(split.items()) if v > 0}

    mean_split = {}
    slowest = {}
    for kind, ops in sorted(by_kind.items()):
        summed: Dict[str, float] = {}
        for _, _, split in ops:
            for layer, seconds in split.items():
                summed[layer] = summed.get(layer, 0.0) + seconds
        mean_split[kind] = {
            "ops": len(ops),
            "mean_ms": round(sum(d for d, _, _ in ops) / len(ops) * 1e3, 3),
            "layers_ms": split_ms(summed, len(ops)),
        }
        ops.sort(key=lambda item: item[0], reverse=True)
        slowest[kind] = [
            {"op": op, "ms": round(duration * 1e3, 3), "layers_ms": split_ms(split)}
            for duration, op, split in ops[:10]
        ]
    op_time = sum(d for ops in by_kind.values() for d, _, _ in ops)
    unattributed = sum(s["unattributed"] for ops in by_kind.values() for _, _, s in ops)
    return {
        "layers": layers,
        "unattributed_share": unattributed / op_time if op_time else 0.0,
        "unattributed_note": (
            "share of client-observed operation time that no traced layer "
            "(client spans or the server spans matched to them) covers"
        ),
        "mean_split": mean_split,
        "slowest_ops": slowest,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    log_size: int = LOG_SIZE,
    setups: int = SETUPS,
) -> Dict[str, object]:
    """Run one workload; returns the result and its artifact."""
    import journeys
    from layertrace import LayerTracer, NullTracer

    plan = phase_plan(workload, seconds / 2 if trace else seconds)
    pass_count = 2 if trace else 1
    lifecycle_s = pass_count * (plan["lifecycle"] + ROUNDS * journeys.WARMUP_S)
    submissions = int(journeys.RATE * lifecycle_s) + pass_count * ROUNDS * 2 + 10
    setup_times: List[float] = []
    world = None
    for attempt in range(setups):
        started = time.perf_counter()
        world = journeys.build_world(seed, log_size, submissions)
        setup_times.append(time.perf_counter() - started)
        if attempt < setups - 1:
            world.close()
    assert world is not None
    artifact: Dict[str, object] = {}
    try:
        if trace:
            tracer = LayerTracer()
            passes = run_pass(world, plan, [NullTracer(), tracer], "p")
            metrics = per_layer(tracer, passes[1], passes[0], workload)
            artifact["breakdown"] = breakdown_artifact(tracer)
        else:
            passes = run_pass(world, plan, [NullTracer()], "p")
            metrics = end_to_end(passes[0], statistics.median(setup_times))
            # Tails too unsteady on a shared host to gate on (see
            # README.md), kept for explaining them.
            samples = {p: r.samples for p, r in passes[0].items()}
            artifact["tails_ms"] = {
                "read_p99": percentile(samples["audit"].get("read", []), 0.99) * 1e3,
                "sct_p90": percentile(samples["lifecycle"].get("sct", []), 0.9) * 1e3,
                "detect_p90": percentile(samples["lifecycle"].get("detect", []), 0.9) * 1e3,
            }
        unmeasured = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    finally:
        world.close()
    attempted = sum(r.attempted for p in passes for r in p.values())
    failed = sum(r.failed for p in passes for r in p.values())
    errors = [e for p in passes for r in p.values() for e in r.errors]
    if unmeasured:
        # A run too short to sample a journey measured nothing: that is
        # a failed run, not a number.
        failed += 1
        errors.append(f"no samples for {', '.join(unmeasured)}")
        metrics = {name: (v if math.isfinite(v) else 0.0, u) for name, (v, u) in metrics.items()}
    artifact.update(
        {
            "workload": workload,
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "commit": git_commit(),
            },
            "inputs": {
                "seed": seed,
                "held_out_seed": HELD_OUT_SEED,
                "log_size": log_size,
                "offered_rate_per_s": journeys.RATE,
                "merge_interval_s": journeys.MERGE_INTERVAL,
                "audit_clients": journeys.AUDIT_CLIENTS,
                "phase_seconds": plan,
                "trace": trace,
            },
            "setup_s": setup_times,
            "error_rate": failed / attempted if attempted else 1.0,
            "errors": errors[:20],
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    )
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": artifact["metrics"],
        "artifact": artifact,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"ctbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    artifact = result.pop("artifact")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(
        f"ctbench {args.workload} seed={args.seed} error_rate={artifact['error_rate']:.4f} "
        f"artifact={path.relative_to(ROOT)}"
    )
    for error in artifact["errors"]:
        print(f"  error: {error}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
