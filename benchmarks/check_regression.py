"""Diff benchmark JSON sidecars against committed baselines.

Usage::

    python benchmarks/check_regression.py BASELINE_DIR CURRENT_DIR

Compares every ``*.json`` sidecar in ``BASELINE_DIR`` against its
counterpart in ``CURRENT_DIR`` (the directory a fresh benchmark run
just rewrote).  The check is **structural, not byte-exact**:

* a baseline artifact missing from the current run fails — a
  benchmark (and its gates) silently disappearing is exactly the
  regression this guards against;
* schema drift fails: the nested key sets and value types of the
  ``data`` payload must match (so a renamed gate, a dropped metric, or
  a type change is caught);
* numeric values under *timing-ish* keys (seconds, latency, p50/p99,
  rates, overheads, cache hit counts...) may differ freely — shared CI
  runners make wall-clock values non-reproducible by design;
* every other number (entry counts, gate constants, schema versions,
  seeds) must match exactly.

New artifacts present only in the current run are reported but do not
fail — that's a benchmark being added, not one regressing.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Keys whose numeric values are machine-dependent measurements. Gate
#: *constants* also match (gate_max_read_p99_s etc.) — harmless, since
#: a gate disappearing or changing type still fails the schema check.
#: ``ratio`` covers timing quotients (fusion/overhead ratios) and the
#: exact-leaf names ``min``/``max``/``sum``/``counts`` cover histogram
#: statistics, whose values follow the timing samples; a histogram's
#: total ``count`` stays exact (it counts events, not seconds).
#: ``lag``, ``merge_count``, and ``batch_merged`` are the MMD
#: sequencer's scheduling-dependent shapes: how many merges a storm
#: needs (and how big each batch gets) follows the interleaving of
#: submitters against the merge worker, not the workload definition.
TOLERANT_KEY = re.compile(
    r"seconds|_ms\b|latency|p50|p95|p99|overhead|speedup|per_sec|rate"
    r"|bytes|duration|wall|elapsed|hits|misses|timestamp|ratio"
    r"|lag|merge_count|batch_merged"
    r"|^(?:min|max|sum|counts)$",
    re.IGNORECASE,
)

#: Sidecar list keys compared by type but never by value or length:
#: renderings embed the timings as text, and ``pairs`` holds one entry
#: per paired repeat a gate ran, which stops at the first pair under
#: its ceiling, so how many there are is itself a measurement.
TEXT_KEYS = ("text", "pairs")


def _type_name(value: object) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def compare(
    baseline: object,
    current: object,
    path: str,
    key: str,
    tolerant: bool = False,
) -> Iterator[str]:
    """Yield human-readable problems between two sidecar nodes.

    ``tolerant`` is inherited down the key path: once any ancestor key
    names a measurement (``separate_seconds``, a ``*_seconds``
    histogram...), every numeric leaf below it is machine-dependent —
    the leaf names alone (``growth``, per-bucket indices) can't tell.
    Schema checks (key sets, types, lengths) still apply throughout.
    """
    tolerant = tolerant or bool(TOLERANT_KEY.search(key))
    if _type_name(baseline) != _type_name(current):
        yield (
            f"{path}: type changed "
            f"{_type_name(baseline)} -> {_type_name(current)}"
        )
        return
    if isinstance(baseline, dict):
        missing = sorted(set(baseline) - set(current))
        added = sorted(set(current) - set(baseline))
        if missing:
            yield f"{path}: keys removed: {', '.join(missing)}"
        if added:
            yield f"{path}: keys added: {', '.join(added)}"
        for name in sorted(set(baseline) & set(current)):
            yield from compare(
                baseline[name], current[name], f"{path}.{name}", name, tolerant
            )
    elif isinstance(baseline, list):
        if key in TEXT_KEYS:
            return  # rendered lines or repeat lists; type only
        if len(baseline) != len(current):
            yield (
                f"{path}: length changed {len(baseline)} -> {len(current)}"
            )
            return
        for index, (b_item, c_item) in enumerate(zip(baseline, current)):
            yield from compare(
                b_item, c_item, f"{path}[{index}]", key, tolerant
            )
    elif isinstance(baseline, bool) or not isinstance(baseline, (int, float)):
        return  # strings and nulls: type match is enough
    elif tolerant:
        return  # measured value; any number is fine
    elif baseline != current:
        yield f"{path}: value changed {baseline!r} -> {current!r}"


def check_dirs(
    baseline_dir: Path, current_dir: Path
) -> Tuple[List[str], List[str]]:
    """Returns (problems, notes)."""
    problems: List[str] = []
    notes: List[str] = []
    baseline_files = sorted(baseline_dir.glob("*.json"))
    if not baseline_files:
        problems.append(f"no baseline sidecars found in {baseline_dir}")
        return problems, notes
    for baseline_path in baseline_files:
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            problems.append(
                f"{baseline_path.name}: benchmark artifact missing from "
                "this run (gates silently dropped?)"
            )
            continue
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        current = json.loads(current_path.read_text(encoding="utf-8"))
        problems.extend(
            compare(baseline, current, baseline_path.stem, "")
        )
    baseline_names = {path.name for path in baseline_files}
    for current_path in sorted(current_dir.glob("*.json")):
        if current_path.name not in baseline_names:
            notes.append(
                f"{current_path.name}: new artifact (no baseline yet — "
                "commit it to start tracking)"
            )
    return problems, notes


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    baseline_dir, current_dir = Path(argv[1]), Path(argv[2])
    problems, notes = check_dirs(baseline_dir, current_dir)
    for note in notes:
        print(f"note: {note}")
    if problems:
        print(
            f"bench-regression: {len(problems)} problem(s) against "
            f"baselines in {baseline_dir}:"
        )
        for problem in problems:
            print(f"  FAIL {problem}")
        return 1
    checked = len(sorted(baseline_dir.glob("*.json")))
    print(f"bench-regression: {checked} sidecar(s) match the baseline schema")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
