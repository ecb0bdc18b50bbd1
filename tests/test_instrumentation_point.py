"""Each event-derived metric is moved at one point: ``repro.obs.events``.

:data:`repro.obs.EVENT_METRICS` derives counters, gauges and
histograms from an operation's event, and :func:`repro.obs.record`
applies it as the event is emitted.  A direct ``inc`` / ``set_gauge``
/ ``observe`` of one of those families beside the event would move
the metric twice and drift from ``replay_metrics``.  This guard
parses ``src/repro`` with :mod:`ast` and fails on any such call, with
a literal metric name, outside ``repro.obs.events``.
"""

import ast
from pathlib import Path

from repro.obs import EVENT_METRICS

SRC = Path(__file__).resolve().parents[1] / "src"
OWNER = SRC / "repro" / "obs" / "events.py"
RECORDING = frozenset(("inc", "set_gauge", "observe"))
FAMILIES = frozenset(
    rule.metric for rules in EVENT_METRICS.values() for rule in rules
)


def _direct_calls(source: str):
    """``(line, method, metric)`` per recording call whose first
    argument is a literal family :data:`EVENT_METRICS` derives."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RECORDING
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in FAMILIES
        ):
            yield node.lineno, node.func.attr, node.args[0].value


def test_derived_metrics_are_moved_only_by_the_event_table():
    found = [
        f"{path.relative_to(SRC)}:{line}: {method}({metric!r})"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != OWNER
        for line, method, metric in _direct_calls(path.read_text(encoding="utf-8"))
    ]
    assert not found, f"event-derived metrics moved beside their event: {found}"


def test_an_observe_planted_beside_the_event_is_caught():
    server = (SRC / "repro" / "ct" / "server.py").read_text(encoding="utf-8")
    anchor = (
        "        record(\n"
        '            self._metrics, self._events, "log_server_request",'
    )
    assert server.count(anchor) == 1
    planted = server.replace(
        anchor,
        '        self._metrics.observe(\n'
        '            "log_server.request_seconds", 0.0, endpoint=endpoint\n'
        "        )\n" + anchor,
    )
    assert not list(_direct_calls(server))
    assert [call[1:] for call in _direct_calls(planted)] == [
        ("observe", "log_server.request_seconds")
    ]
