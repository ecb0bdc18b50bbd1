"""Incremental fold == batch recompute, bit-identical, serial and pooled.

The live-analytics contract: folding N ``CertFeed.poll`` batches
one-by-one into :class:`~repro.dataset.LiveAnalytics` produces exactly
the aggregates a batch recompute over the same entry stream produces —
not approximately, but bit-identically, including the map orderings
the rendered artifacts depend on.  Checked here over seeded randomized
issuance schedules (failures replay exactly), against both the serial
batch path and a real process-pool :func:`analyze` run, and
through the version-1 JSON serialization.

Two reference corpora appear on purpose: the *streamed* corpus
(``append_batch`` per poll — the same record order the live fold saw)
must match including insertion order, while the log-major
``from_logs`` corpus visits records in a different order, so it must
match in value and in the (sorted) ``/analytics`` JSON body.
"""

import json
import random
from datetime import timedelta

from repro.ct.feed import CertFeed
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.dataset import CertCorpus, LiveAnalytics, analyze
from repro.dataset.sections import section2_graph
from repro.pipeline.engine import PipelineEngine
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest

ROUNDS = 4
MONTH = "2018-04"
EPOCH = utc_datetime(2018, 4, 1, 8, 0)


def _grow_world(rng, live):
    """Random issuance schedule polled through a feed into ``live``.

    Returns ``(logs, streamed, polls)``: the grown logs, the corpus
    appended poll-batch by poll-batch (byte-for-byte the stream the
    live fold consumed), and how many polls carried entries.
    """
    logs = [
        CTLog(
            name=f"Prop Log {i}",
            operator="P",
            key=log_key(f"prop:{rng.randint(0, 10**9)}:{i}", 256),
        )
        for i in range(rng.randint(2, 3))
    ]
    cas = [
        CertificateAuthority(f"Prop CA {i}", key_bits=256)
        for i in range(rng.randint(2, 4))
    ]
    streamed = CertCorpus.empty()
    batch = []
    feed = CertFeed(logs, analytics=live)
    feed.subscribe("collector", batch.append)
    polls = 0
    for round_no in range(rng.randint(3, 6)):
        when = EPOCH + timedelta(days=rng.randint(0, 27), hours=round_no)
        for serial in range(rng.randint(0, 5)):
            ca = rng.choice(cas)
            ca.issue(
                IssuanceRequest(
                    (f"p{round_no}-{serial}-{rng.randint(0, 99)}.example",)
                ),
                [rng.choice(logs)],
                when,
            )
        if feed.poll(when):
            polls += 1
        feed.dispatch()
        delta = streamed.append_batch(batch, with_names=False)
        assert len(delta) == len(batch)
        batch.clear()
    return logs, streamed, polls


def _assert_identical(live_results, batch_results):
    assert live_results["growth"] == batch_results["growth"]
    assert list(live_results["growth"]) == list(batch_results["growth"])
    assert live_results["rates"] == batch_results["rates"]
    assert live_results["matrix"].cells() == batch_results["matrix"].cells()
    assert live_results["matrix"].rows() == batch_results["matrix"].rows()
    assert live_results["matrix"].cols() == batch_results["matrix"].cols()


def test_folded_polls_equal_batch_recompute_serial():
    for round_no in range(ROUNDS):
        rng = random.Random(7100 + round_no)
        live = LiveAnalytics(section2_graph(MONTH))
        logs, streamed, polls = _grow_world(rng, live)
        assert live.records_folded == len(streamed)
        assert live.batches_folded == polls

        # Same stream order: identical down to map insertion order.
        batch = section2_graph(MONTH).run(streamed.iter_records())
        _assert_identical(live.results(), batch)
        serial = analyze(
            streamed, section2_graph(MONTH), PipelineEngine(workers=1)
        )
        _assert_identical(live.results(), serial)

        # Log-major order (from_logs) visits the same records in a
        # different order: equal values, bit-identical JSON body.
        log_major = CertCorpus.from_logs(logs, with_names=False)
        assert len(log_major) == len(streamed)
        recomputed = LiveAnalytics(section2_graph(MONTH))
        recomputed.fold_records(log_major.iter_records())
        assert json.dumps(
            live.to_dict()["sections"], sort_keys=True
        ) == json.dumps(recomputed.to_dict()["sections"], sort_keys=True)
        by_order = section2_graph(MONTH).run(log_major.iter_records())
        assert live.results()["growth"] == by_order["growth"]
        assert live.results()["rates"] == by_order["rates"]
        assert (
            live.results()["matrix"].cells() == by_order["matrix"].cells()
        )


def test_folded_polls_equal_batch_recompute_process_pool():
    rng = random.Random(7300)
    live = LiveAnalytics(section2_graph(MONTH))
    logs, streamed, _ = _grow_world(rng, live)
    assert len(streamed) > 0
    pooled = analyze(
        streamed,
        section2_graph(MONTH),
        PipelineEngine(workers=3, shard_size=4, executor="process"),
    )
    _assert_identical(live.results(), pooled)
