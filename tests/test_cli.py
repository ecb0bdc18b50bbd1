"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import COMMANDS, build_parser, main
from repro.core import leakage
from repro.core.report import render_table2
from repro.dataset import analyze, fqdn_graph, fused
from repro.obs import EVENT_SCHEMA_VERSION, MetricsSnapshot
from repro.pipeline import PipelineEngine
from repro.workloads.domains import DomainWorkload


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


def test_list(capsys):
    code, output = run_cli(capsys, "list")
    assert code == 0
    for name in ("fig1a", "table4", "sec43"):
        assert name in output


def test_parser_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_table3_runs(capsys):
    code, output = run_cli(capsys, "table3", "--scale", "0.002", "--seed", "3")
    assert code == 0
    assert "Apple" in output
    assert "PayPal" in output


def test_table4_runs(capsys):
    code, output = run_cli(capsys, "table4", "--seed", "2")
    assert code == 0
    assert "CT log entry" in output
    assert "★15169" in output


def test_sec34_runs(capsys):
    code, output = run_cli(capsys, "sec34")
    assert code == 0
    assert "16" in output
    assert "GlobalSign" in output


def test_table2_runs_small(capsys):
    code, output = run_cli(capsys, "table2", "--scale", "0.0001")
    assert code == 0
    assert "www" in output


def test_sec43_with_ablations(capsys):
    code, output = run_cli(
        capsys, "sec43", "--scale", "0.00002", "--ablations"
    )
    assert code == 0
    assert "ablation" in output


def test_threatintel_runs(capsys):
    code, output = run_cli(capsys, "threatintel", "--seed", "4")
    assert code == 0
    assert "Quasi Networks" in output


def test_table2_parallel_output_identical(capsys):
    code, serial = run_cli(capsys, "table2", "--scale", "0.0001", "--seed", "5")
    assert code == 0
    code, parallel = run_cli(
        capsys,
        "table2", "--scale", "0.0001", "--seed", "5",
        "--workers", "2", "--shard-size", "1000",
    )
    assert code == 0
    assert parallel == serial


def test_fig1b_parallel_output_identical(capsys):
    args = ("fig1b", "--scale", "0.000002")
    code, serial = run_cli(capsys, *args)
    assert code == 0
    code, parallel = run_cli(capsys, *args, "--workers", "3")
    assert code == 0
    assert parallel == serial


def test_parser_defaults_to_serial():
    args = build_parser().parse_args(["fig1a"])
    assert args.workers == 1
    assert args.shard_size is None


def test_parser_fault_tolerance_defaults():
    args = build_parser().parse_args(["fig1a"])
    assert args.retries == 0
    assert args.backoff == pytest.approx(0.05)
    assert args.on_error == "raise"


def test_parser_rejects_unknown_on_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig1a", "--on-error", "ignore"])


def test_retries_and_degrade_do_not_change_output(capsys):
    args = ("table2", "--scale", "0.0001", "--seed", "5")
    code, baseline = run_cli(capsys, *args)
    assert code == 0
    code, tolerant = run_cli(
        capsys, *args,
        "--workers", "2", "--shard-size", "1000",
        "--retries", "3", "--backoff", "0", "--on-error", "degrade",
    )
    assert code == 0
    # No faults in a plain run: the fault-tolerant configuration must
    # be byte-identical to the serial baseline.
    assert tolerant == baseline


def test_parser_observability_defaults():
    args = build_parser().parse_args(["fig1a"])
    assert args.metrics_out is None
    assert args.trace is False


def test_metrics_out_writes_snapshot_without_touching_stdout(capsys, tmp_path):
    args = ("table2", "--scale", "0.0001", "--seed", "5")
    code, baseline = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "metrics.json"
    code, instrumented = run_cli(
        capsys, *args, "--workers", "2", "--shard-size", "1000",
        "--metrics-out", str(path),
    )
    assert code == 0
    assert instrumented == baseline  # instrumentation changes no bytes
    snap = MetricsSnapshot.from_json(path.read_text())
    assert snap.counter("pipeline.shards_planned") > 0
    assert snap.counter("pipeline.shards_completed") == snap.counter(
        "pipeline.shards_planned"
    )
    assert json.loads(path.read_text())["version"] == 1


def test_serial_table2_runs_through_the_engine(capsys, tmp_path):
    """``--workers 1`` is one shard of the same graph, so the pipeline
    and dataset counters describe it too."""
    path = tmp_path / "m.json"
    code, _ = run_cli(
        capsys, "table2", "--scale", "0.0001", "--metrics-out", str(path)
    )
    assert code == 0
    snap = MetricsSnapshot.from_json(path.read_text())
    assert snap.counter("dataset.shard_traversals") == 1
    assert snap.counter("pipeline.shards_planned") == 1


def _lose_shard_of(names, start, stop, monkeypatch):
    """Make the shard task fail on exactly the ``names[start:stop]``
    shard (thread pools only: the patch does not cross processes)."""
    real_task = fused.fused_shard_task

    def losing_task(payload):
        if list(payload[1]) == names[start:stop]:
            raise RuntimeError("lost shard")
        return real_task(payload)

    monkeypatch.setattr(fused, "fused_shard_task", losing_task)


def test_degraded_table2_reports_on_stderr(capsys, monkeypatch):
    scale, seed = 0.0001, 5
    corpus = DomainWorkload(scale=scale, seed=seed).build()
    names = corpus.ct_fqdns
    shards = -(-len(names) // 512)
    assert shards > 2
    _lose_shard_of(names, 512, 1024, monkeypatch)
    real_engine = cli._engine

    def thread_engine(args):
        engine = real_engine(args)
        engine.executor = "thread"
        return engine

    monkeypatch.setattr(cli, "_engine", thread_engine)
    code = main([
        "table2", "--scale", str(scale), "--seed", str(seed),
        "--workers", "2", "--shard-size", "512", "--on-error", "degrade",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (
        f"[degraded] {shards - 1}/{shards} shard(s) completed; "
        "failed: [1] (0 retries)\n"
    )
    surviving = leakage.analyze_names(names[:512] + names[1024:], corpus.psl)
    assert captured.out == render_table2(surviving, weight=1.0 / scale) + "\n"


def test_analyze_prints_nothing(capsys, monkeypatch):
    names = [f"host{i}.example.org" for i in range(12)]
    _lose_shard_of(names, 4, 8, monkeypatch)
    engine = PipelineEngine(
        workers=2, shard_size=4, executor="thread", on_error="degrade"
    )
    outcome = analyze(names, fqdn_graph(), engine)
    assert outcome.report.failed_indices == [1]
    assert capsys.readouterr() == ("", "")


def test_trace_renders_tree_on_stderr_only(capsys):
    args = (
        "table2", "--scale", "0.0001", "--seed", "5",
        "--workers", "2", "--shard-size", "1000",
    )
    code = main(list(args))
    baseline = capsys.readouterr().out
    code = main([*args, "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == baseline  # stdout untouched
    assert "cli.table2" in captured.err
    assert "pipeline.map_reduce" in captured.err
    assert "pipeline.reduce" in captured.err


def test_all_commands_registered():
    assert set(COMMANDS) == {
        "fig1a", "fig1b", "fig1c", "sec2", "fig2", "table1", "sec32",
        "sec33", "sec34", "table2", "sec43", "table3", "table4",
        "threatintel", "projection", "status", "serve", "loadstorm",
        "watch", "gossip", "lifecycle",
    }


def test_parser_telemetry_defaults():
    args = build_parser().parse_args(["fig1a"])
    assert args.trace_out is None
    assert args.events_out is None
    assert args.status_out is None


def test_trace_out_writes_span_tree_without_touching_stdout(capsys, tmp_path):
    args = (
        "table2", "--scale", "0.0001", "--seed", "5",
        "--workers", "2", "--shard-size", "1000",
    )
    code, baseline = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "trace.json"
    code, traced = run_cli(capsys, *args, "--trace-out", str(path))
    assert code == 0
    assert traced == baseline  # stdout untouched
    spans = json.loads(path.read_text())
    names = [span["name"] for span in spans]
    assert "cli.table2" in names
    assert "pipeline.map_reduce" in names
    assert spans[0]["attrs"]["seed"] == 5
    # Root span has no parent; children point at ancestors by index.
    assert spans[0]["parent"] is None
    assert all(
        span["parent"] is not None for span in spans if span["depth"] > 0
    )
    assert path.read_text().endswith("\n")


def test_events_out_writes_live_jsonl(capsys, tmp_path):
    from repro.obs import read_events, replay_metrics
    from tests.obs.derived import derived, families

    args = ("table2", "--scale", "0.0001", "--seed", "5")
    code, baseline = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "events.jsonl"
    metrics_path = tmp_path / "metrics.json"
    code, instrumented = run_cli(
        capsys, *args, "--workers", "2", "--shard-size", "1000",
        "--events-out", str(path), "--metrics-out", str(metrics_path),
    )
    assert code == 0
    assert instrumented == baseline  # instrumentation changes no bytes
    events = read_events(path)
    kinds = [event["kind"] for event in events]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_finish"
    assert "map_start" in kinds and "shard_finish" in kinds
    # Envelope invariants: one run id, gapless seq, current schema.
    assert len({event["run"] for event in events}) == 1
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert all(event["v"] == EVENT_SCHEMA_VERSION for event in events)
    # The event stream replays to the snapshot: counters, gauges and
    # histograms of every family the events derive.
    snap = derived(MetricsSnapshot.from_json(metrics_path.read_text()))
    assert derived(replay_metrics(events)) == snap
    assert "pipeline.shard_seconds" in families(snap)


def test_status_renders_verdicts_and_writes_json(capsys, tmp_path):
    path = tmp_path / "status.json"
    code, output = run_cli(capsys, "status", "--status-out", str(path))
    assert code == 0
    assert "overall failing" in output
    assert "degraded" in output and "healthy" in output
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    assert payload["overall"] == "failing"
    verdicts = {name: log["verdict"] for name, log in payload["logs"].items()}
    assert verdicts["Symantec log"] == "failing"
    assert verdicts["DigiCert Log Server"] == "degraded"
    assert verdicts["Google Pilot log"] == "healthy"


def test_status_is_deterministic(capsys):
    code, first = run_cli(capsys, "status", "--seed", "11")
    assert code == 0
    code, second = run_cli(capsys, "status", "--seed", "11")
    assert code == 0
    assert second == first


def test_sec2_matches_separate_commands(capsys):
    """The fused sec2 artifact is the three §2 artifacts' bytes."""
    scale = ("--scale", "0.000002")
    code, fused = run_cli(capsys, "sec2", *scale)
    assert code == 0
    _, fig1a = run_cli(capsys, "fig1a", *scale)
    _, fig1b = run_cli(capsys, "fig1b", *scale)
    _, fig1c = run_cli(capsys, "fig1c", *scale)
    assert fused == fig1a.rstrip("\n") + "\n\n" + fig1b.rstrip("\n") + (
        "\n\n"
    ) + fig1c.rstrip("\n") + "\n"


def test_sec2_parallel_output_identical(capsys):
    args = ("sec2", "--scale", "0.000002")
    code, serial = run_cli(capsys, *args)
    assert code == 0
    code, parallel = run_cli(
        capsys, *args, "--workers", "2", "--shard-size", "512"
    )
    assert code == 0
    assert parallel == serial


def test_serve_runs_for_duration_and_reports(capsys):
    code, output = run_cli(
        capsys,
        "serve", "--duration-s", "0.2", "--log-entries", "4", "--seed", "9",
    )
    assert code == 0
    assert (
        "serving 'Repro Serve Log' (4 entries, per-entry writes) "
        "at http://127.0.0.1:"
    ) in output
    for endpoint in (
        "get-sth", "get-entries", "get-proof-by-hash",
        "get-sth-consistency", "add-pre-chain",
    ):
        assert f"/ct/v1/{endpoint}" in output
    assert "served 'Repro Serve Log': tree size 4" in output


def test_serve_batched_mode_reports_sequencer_stats(capsys):
    code, output = run_cli(
        capsys,
        "serve", "--duration-s", "0.2", "--log-entries", "4", "--seed", "9",
        "--merge-interval", "0.05", "--max-batch", "16",
    )
    assert code == 0
    assert "(4 entries, batched writes, merge every 0.05s)" in output
    assert "sequencer repro-serve-log: 0 merges" in output


def test_serve_is_actually_reachable_while_up(capsys):
    """Scrape get-sth from a `repro serve` instance while it serves."""
    import re
    import threading
    import time
    import urllib.request

    result = {}

    def run():
        result["code"] = main(
            ["serve", "--duration-s", "1.5", "--log-entries", "3"]
        )

    thread = threading.Thread(target=run)
    thread.start()
    try:
        base = None
        for _ in range(100):
            banner = capsys.readouterr().out
            match = re.search(r"at (http://127\.0\.0\.1:\d+)", banner)
            if match:
                base = match.group(1)
                break
            time.sleep(0.02)
        assert base, "serve never printed its URL"
        with urllib.request.urlopen(
            f"{base}/ct/v1/get-sth", timeout=10
        ) as response:
            sth = json.loads(response.read().decode())
        assert sth["tree_size"] == 3
    finally:
        thread.join()
    assert result["code"] == 0


def test_loadstorm_reports_and_writes_sidecar(capsys, tmp_path):
    path = tmp_path / "storm.json"
    code, output = run_cli(
        capsys,
        "loadstorm", "--log-entries", "8", "--browsers", "2",
        "--monitors", "1", "--submitters", "1", "--seed", "4",
        "--executor", "thread", "--storm-out", str(path),
    )
    assert code == 0
    assert "Load storm" in output
    assert "p99" in output
    assert "0 failed   0 transport errors" in output
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert payload["clients"] == 4
    assert payload["submissions_ok"] == 10
    assert payload["verification_failures"] == 0
    assert payload["transport_errors"] == 0
    # Per-entry writes merge synchronously, but the submitter still
    # proves its leaves included before exiting.
    assert payload["inclusions_verified"] == 1


def test_watch_streams_and_cross_checks(capsys):
    code, output = run_cli(capsys, "watch", "--seed", "7")
    assert code == 0
    assert "CT live analytics — seed 7, 6 poll rounds" in output
    assert "schema v1" in output
    assert "growth (Fig 1a)" in output
    assert "matrix (Table 1)" in output
    assert (
        "cross-check: incremental fold == batch recompute" in output
    )


def test_watch_is_deterministic(capsys):
    code, first = run_cli(capsys, "watch", "--seed", "3")
    assert code == 0
    code, second = run_cli(capsys, "watch", "--seed", "3")
    assert code == 0
    assert first == second


def test_watch_writes_analytics_snapshot(capsys, tmp_path):
    path = tmp_path / "analytics.json"
    code, output = run_cli(
        capsys, "watch", "--seed", "7", "--analytics-out", str(path)
    )
    assert code == 0
    snapshot = json.loads(path.read_text())
    assert snapshot["version"] == 1
    assert set(snapshot["sections"]) == {"growth", "rates", "matrix"}
    assert snapshot["records_folded"] > 0
    assert snapshot["batches_folded"] == 6
    # The rendering and the sidecar agree on the record count.
    assert f"{snapshot['records_folded']} records" in output


def test_loadstorm_serial_executor_matches_population(capsys):
    code, output = run_cli(
        capsys,
        "loadstorm", "--log-entries", "6", "--browsers", "1",
        "--monitors", "1", "--submitters", "0", "--executor", "serial",
    )
    assert code == 0
    assert "serial pool" in output
    assert "2 clients" in output



def test_lifecycle_replays_every_event_of_a_large_storm(capsys):
    # Over 16k events: more than a bounded in-memory ring would hold.
    argv = ("--browsers", "400", "--monitors", "60", "--submitters", "20")
    code, output = run_cli(capsys, "lifecycle", *argv)
    assert code == 0
    assert output.rstrip().endswith("orphans: 0  replay: identical")


def test_events_out_overwrites_like_every_other_out_file(capsys, tmp_path):
    from repro.obs import read_events, replay_metrics
    from tests.obs.derived import derived

    events, metrics = tmp_path / "events.jsonl", tmp_path / "metrics.json"
    argv = ("--metrics-out", str(metrics), "--events-out", str(events))
    assert run_cli(capsys, "status", *argv)[0] == run_cli(capsys, "status", *argv)[0] == 0
    replayed = derived(replay_metrics(read_events(events)))
    assert [e["kind"] for e in read_events(events)].count("run_start") == 1
    assert replayed["counters"]
    assert replayed == derived(MetricsSnapshot.from_json(metrics.read_text()))
