"""The part of a metrics snapshot that events derive, for replay checks.

:func:`derived` cuts a :class:`~repro.obs.MetricsSnapshot` down to the
families :data:`~repro.obs.EVENT_METRICS` names: counters, gauges, and
each histogram's ``count``, ``sum`` and bucket ``counts``.  A run's
final snapshot and ``replay_metrics`` of its event log must agree on
all of it.  Gauges are last-write-wins, so that holds only where one
thread records each label set; it does for every gauge the table
derives (``monitor.verified_tree_size`` per monitor and log,
``auditor.tree_size`` per auditor's log, and the engine coordinator's
``pipeline.checkpoint_hit_rate``).
"""

from repro.obs import EVENT_METRICS

FAMILIES = frozenset(
    rule.metric for rules in EVENT_METRICS.values() for rule in rules
)


def derived(snapshot):
    def ours(items):
        return {key: value for key, value in items if key.split("{")[0] in FAMILIES}

    return {
        "counters": ours(snapshot.counters.items()),
        "gauges": ours(snapshot.gauges.items()),
        "histograms": {
            key: {field: hist[field] for field in ("count", "sum", "counts")}
            for key, hist in ours(snapshot.histograms.items()).items()
        },
    }


def families(view):
    """The metric names a :func:`derived` view holds."""
    return {
        key.split("{")[0] for part in view.values() for key in part
    }
