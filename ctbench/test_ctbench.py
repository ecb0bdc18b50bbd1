"""Tests of the benchmark itself (run: ``python -m pytest ctbench -q``).

Tiny runs of every workload must emit exactly the metric names and
units ``BENCHMARK.json`` declares, and a log that lies — a tampered
proof, entry or SCT — must show up as failed operations, never as an
exception out of a journey.
"""

from __future__ import annotations

import base64
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import journeys  # noqa: E402
import run  # noqa: E402
from layertrace import TARGETS, LayerTracer, NullTracer  # noqa: E402

from repro.ct.log import SignedTreeHead  # noqa: E402
from repro.ct.server import LogServer  # noqa: E402
from repro.x509 import crypto  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_LOG = 64


def _declared(kind: str):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.fixture
def world():
    built = journeys.build_world(3, TINY_LOG, submissions=60)
    yield built
    built.close()


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "ctbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_the_declared_metrics(workload, trace):
    result = run.run_workload(workload, 5, 1.5, trace, log_size=TINY_LOG, setups=1)
    assert result["correct"], result["artifact"]["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    artifact = result["artifact"]
    assert artifact["inputs"]["seed"] == 5
    assert artifact["inputs"]["held_out_seed"] == run.HELD_OUT_SEED
    assert artifact["machine"]["nproc"] >= 1
    if trace:
        breakdown = artifact["breakdown"]
        assert 0.0 <= breakdown["unattributed_share"] <= 1.0
        assert all(len(ops) <= 10 for ops in breakdown["slowest_ops"].values())
        assert {"audit.proof", "harvest.page", "lifecycle.submit"} <= set(breakdown["mean_split"])


def _tamper(monkeypatch, endpoint, corrupt):
    """Serve ``endpoint`` answers through ``corrupt`` (a copy, not the memo)."""
    original = LogServer.handle_request

    def handle_request(self, *args):
        status, payload, label = original(self, *args)
        if label == endpoint and status == 200:
            payload = corrupt(json.loads(json.dumps(payload)))
        return status, payload, label

    monkeypatch.setattr(LogServer, "handle_request", handle_request)


def _zeros(length: int) -> str:
    return base64.b64encode(bytes(length)).decode()


def test_tampered_proof_is_a_failed_read(world, monkeypatch):
    def corrupt(payload):
        payload["audit_path"][0] = _zeros(32)
        return payload

    _tamper(monkeypatch, "get-proof-by-hash", corrupt)
    result = journeys.audit_phase(world, 0.3, NullTracer(), "x")
    assert result.failed > 0
    assert any("did not verify" in error for error in result.errors)


def test_tampered_entry_is_a_failed_harvest(world, monkeypatch):
    def corrupt(payload):
        payload["entries"][0]["leaf_input"] = _zeros(40)
        return payload

    _tamper(monkeypatch, "get-entries", corrupt)
    result = journeys.harvest_phase(world, 0.2, NullTracer(), "x")
    assert result.attempted > 0 and result.failed == result.attempted


def test_stale_signed_sth_is_a_failed_harvest(world, monkeypatch):
    """A correctly signed head of a shorter tree must not pass."""
    size = TINY_LOG // 2
    root = world.archive.tree.root(size)
    timestamp = 1_525_000_000_000
    signature = crypto.sign(
        world.archive.key, SignedTreeHead.signed_payload(size, timestamp, root)
    )

    def corrupt(payload):
        return {
            "tree_size": size,
            "timestamp": timestamp,
            "sha256_root_hash": base64.b64encode(root).decode(),
            "tree_head_signature": base64.b64encode(signature).decode(),
        }

    _tamper(monkeypatch, "get-sth", corrupt)
    result = journeys.harvest_phase(world, 0.2, NullTracer(), "x")
    assert result.attempted > 0 and result.failed == result.attempted
    assert any("pinned tree head" in error for error in result.errors)


def test_forged_sct_is_a_failed_submission(world, monkeypatch):
    def corrupt(payload):
        payload["signature"] = _zeros(len(base64.b64decode(payload["signature"])))
        return payload

    _tamper(monkeypatch, "add-pre-chain", corrupt)
    result = journeys.lifecycle_phase(world, 0.2, NullTracer(), "x")
    assert result.failed > 0
    assert any("does not verify" in error for error in result.errors)


def test_honest_world_has_no_failures(world):
    for result in (
        journeys.audit_phase(world, 0.2, NullTracer(), "h"),
        journeys.harvest_phase(world, 0.2, NullTracer(), "h"),
        journeys.lifecycle_phase(world, 0.2, NullTracer(), "h"),
    ):
        assert result.attempted > 0 and result.failed == 0, result.errors


def test_tracer_restores_every_patched_function(world):
    before = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in TARGETS
    ]
    tracer = LayerTracer()
    with tracer:
        journeys.audit_phase(world, 0.2, tracer, "t")
    after = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in TARGETS
    ]
    assert before == after
    calls = tracer.stat("client.call", "client")
    assert calls.count > 0
    assert tracer.stat("server.handle", "server").count == calls.count
    # Every server-side request span was matched to its client op.
    assert all(op in tracer.ops for op in tracer.op_layers)


def test_without_program_sources_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "ctbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "ctbench/run.py", "--workload", "audit_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
