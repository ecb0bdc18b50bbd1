"""Parallel == serial, bit for bit, for the three ported passes.

The acceptance bar for the sharded engine: Fig. 1a/1b/1c, Fig. 2 /
Table 1, and Table 2 must come out *identical* — same numbers, same
orderings, same rendered bytes — whether computed serially or sharded
across a process pool.  The fault-injection classes extend that bar:
a seeded :class:`FlakyLog` failing 20% of shard fetches plus a retry
budget must *still* reproduce the fault-free serial output, and a
degraded run must enumerate exactly the shards it lost.
"""

import os
from datetime import date

import pytest

from repro.bro.analyzer import BroSctAnalyzer
from repro.core import adoption, evolution, leakage
from repro.core import report as rpt
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.dataset import (
    CertCorpus,
    adoption_graph,
    analyze,
    fqdn_graph,
    section2_graph,
    sections_graph,
)
from repro.pipeline import PipelineEngine
from repro.resilience import (
    DegradedResult,
    FlakyLog,
    RetryPolicy,
    ShardFailedError,
)
from repro.util.rng import SeededRng
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest
from repro.workloads.ca_profiles import CaLoggingWorkload
from repro.workloads.domains import DomainWorkload
from repro.workloads.traffic import UplinkTrafficWorkload

# CI's fault-injection job pins one executor per matrix leg via
# REPRO_EXECUTOR; locally both run.
FAULT_EXECUTORS = (
    [os.environ["REPRO_EXECUTOR"]]
    if os.environ.get("REPRO_EXECUTOR")
    else ["process", "thread"]
)


@pytest.fixture(scope="module")
def engine():
    """A genuinely parallel engine with small shards (many merges)."""
    return PipelineEngine(workers=3, shard_size=512)


@pytest.fixture(scope="module")
def evolution_logs():
    run = CaLoggingWorkload(scale=2e-6, end=date(2018, 4, 30), seed=7).run()
    return run.logs


class TestEvolutionParity:
    def test_fig1a_growth(self, evolution_logs, engine):
        serial = evolution.cumulative_precert_growth(evolution_logs)
        parallel = analyze(CertCorpus.from_logs(evolution_logs), section2_graph(), engine)["growth"]
        assert parallel == serial
        # Same CA iteration order, not just the same mapping.
        assert list(parallel) == list(serial)

    def test_fig1a_growth_with_date_window(self, evolution_logs, engine):
        window = dict(start=date(2017, 1, 1), end=date(2018, 3, 31))
        serial = evolution.cumulative_precert_growth(evolution_logs, **window)
        assert (
            analyze(
                CertCorpus.from_logs(evolution_logs), section2_graph(**window), engine
            )["growth"]
            == serial
        )

    def test_fig1b_rates(self, evolution_logs, engine):
        serial = evolution.relative_daily_rates(evolution_logs)
        parallel = analyze(CertCorpus.from_logs(evolution_logs), section2_graph(), engine)["rates"]
        assert parallel == serial

    def test_fig1c_matrix(self, evolution_logs, engine):
        serial = evolution.ca_log_matrix(evolution_logs, "2018-04")
        parallel = analyze(
            CertCorpus.from_logs(evolution_logs), section2_graph("2018-04"), engine
        )["matrix"]
        assert parallel.cells() == serial.cells()
        # Ranked orders (count ties break by insertion) must match too:
        # they drive the rendered figure's row/column layout.
        assert parallel.rows() == serial.rows()
        assert parallel.cols() == serial.cols()
        assert rpt.render_figure1c(parallel) == rpt.render_figure1c(serial)


class TestTrafficParity:
    @pytest.fixture(scope="class")
    def streams(self):
        def build():
            workload = UplinkTrafficWorkload(connections_per_day=60, seed=42)
            return workload, BroSctAnalyzer(workload.logs)

        return build

    def test_fig2_table1_stats(self, streams, engine):
        workload, analyzer = streams()
        serial = adoption.aggregate(analyzer.analyze_stream(workload.stream()))
        workload2, analyzer2 = streams()
        parallel = analyze(
            workload2.stream(), adoption_graph(analyzer2.config()), engine
        )["adoption"]
        assert parallel == serial
        assert adoption.table1(parallel) == adoption.table1(serial)
        assert rpt.render_figure2(parallel) == rpt.render_figure2(serial)
        assert rpt.render_table1(adoption.table1(parallel)) == rpt.render_table1(
            adoption.table1(serial)
        )


@pytest.mark.slow
class TestLeakageParityAtDefaultScale:
    """Table 2 at the CLI's default 1:1000 scale (the hottest pass)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return DomainWorkload(scale=1 / 1_000, seed=44).build()

    def test_table2_identical(self, corpus):
        engine = PipelineEngine(workers=3, shard_size=16_384)
        serial = leakage.analyze_names(corpus.ct_fqdns, corpus.psl)
        parallel = analyze(corpus.ct_fqdns, fqdn_graph(corpus.psl), engine)["leakage"]
        assert parallel == serial
        assert parallel.top_labels(20) == serial.top_labels(20)
        assert parallel.top_label_per_suffix() == serial.top_label_per_suffix()
        weight = 1.0 / corpus.scale
        assert rpt.render_table2(parallel, weight=weight) == rpt.render_table2(
            serial, weight=weight
        )


@pytest.fixture(scope="module")
def fault_log():
    """48 entries, 2 DNS names each: 6 shards at shard_size=8."""
    log = CTLog(
        name="Fault Target", operator="T", key=log_key("Fault Target", 256)
    )
    ca = CertificateAuthority("Fault CA", key_bits=256)
    now = utc_datetime(2018, 5, 1, 12, 0)
    for i in range(48):
        ca.issue(
            IssuanceRequest(
                (f"host{i}.fault.example", f"alt{i}.fault.example")
            ),
            [log],
            now,
        )
    return log


def _flaky(log, seed=11):
    """ISSUE acceptance profile: 20% of shard fetches fail transiently."""
    return FlakyLog(
        log,
        SeededRng(seed, "parity-faults"),
        failure_rate=0.2,
        max_consecutive=2,
        methods=("get_entries",),
    )


def _retries(n):
    """The engine the CLI builds for ``--retries n``."""
    return RetryPolicy(max_attempts=n + 1, base_delay_s=0.0)


def _fail_tail(method, args):
    """Permanent failure for every entry fetch at index >= 32.

    Module-level so process pools can pickle the predicate.  With 48
    entries and shard_size=8 this kills exactly shards 4 and 5.
    """
    return method == "get_entries" and args[0] >= 32


class TestFaultInjectionParity:
    """Transient faults + retries must not change a single byte."""

    @pytest.fixture(scope="class")
    def fault_free(self, fault_log):
        return analyze(
            fault_log, sections_graph(), PipelineEngine(workers=1, shard_size=8)
        )["leakage"]

    @pytest.mark.parametrize("executor", FAULT_EXECUTORS)
    def test_flaky_run_matches_fault_free_serial(
        self, fault_log, fault_free, executor
    ):
        engine = PipelineEngine(
            workers=3, shard_size=8, executor=executor, retry=_retries(3)
        )
        result = analyze(_flaky(fault_log), sections_graph(), engine)["leakage"]
        assert result == fault_free
        assert result.top_labels(10) == fault_free.top_labels(10)
        assert (
            result.top_label_per_suffix() == fault_free.top_label_per_suffix()
        )

    def test_faults_were_injected_and_are_seed_deterministic(
        self, fault_log, fault_free
    ):
        # Serial engine so the wrapper is never pickled away and its
        # counters stay observable.
        first = _flaky(fault_log)
        engine = PipelineEngine(workers=1, shard_size=8, retry=_retries(3))
        assert analyze(first, sections_graph(), engine)["leakage"] == fault_free
        assert first.faults_injected > 0

        second = _flaky(fault_log)
        assert analyze(second, sections_graph(), engine)["leakage"] == fault_free
        assert second.faults_injected == first.faults_injected

    def test_without_retries_faults_surface_as_shard_failures(self, fault_log):
        flaky = FlakyLog(
            fault_log,
            SeededRng(13, "no-retry"),
            failure_rate=1.0,
            max_consecutive=None,
            methods=("get_entries",),
        )
        engine = PipelineEngine(workers=1, shard_size=8)
        with pytest.raises(ShardFailedError) as excinfo:
            analyze(flaky, sections_graph(), engine)
        assert excinfo.value.index == 0
        assert excinfo.value.attempts == 1


class TestDegradedHarvest:
    """Exhausted retries with on_error="degrade" lose exactly the
    failed shards and say so."""

    @pytest.mark.parametrize("executor", FAULT_EXECUTORS)
    def test_report_enumerates_exactly_failed_shards(
        self, fault_log, executor
    ):
        flaky = FlakyLog(
            fault_log,
            SeededRng(1, "degrade"),
            failure_rate=0.0,
            fail_when=_fail_tail,
        )
        engine = PipelineEngine(
            workers=3,
            shard_size=8,
            executor=executor,
            retry=_retries(1),
            on_error="degrade",
        )
        outcome = analyze(flaky, sections_graph(), engine)
        assert isinstance(outcome, DegradedResult)
        assert outcome.report.failed_indices == [4, 5]
        assert outcome.report.total_shards == 6
        assert outcome.report.completed_shards == 4
        # The partial result is the exact analysis of the surviving
        # entry range [0, 32).
        surviving = leakage.analyze_names(
            name
            for entry in fault_log.get_entries(0, 31)
            for name in entry.certificate.dns_names()
        )
        assert outcome.value["leakage"] == surviving

    def test_raise_mode_names_the_first_failed_shard(self, fault_log):
        flaky = FlakyLog(
            fault_log,
            SeededRng(1, "degrade"),
            failure_rate=0.0,
            fail_when=_fail_tail,
        )
        engine = PipelineEngine(workers=1, shard_size=8, retry=_retries(1))
        with pytest.raises(ShardFailedError) as excinfo:
            analyze(flaky, sections_graph(), engine)
        assert excinfo.value.index == 4
        assert excinfo.value.attempts == 2


class TestSerialFallback:
    def test_workers_one_uses_serial_path(self, evolution_logs):
        serial_engine = PipelineEngine(workers=1)
        assert analyze(
            CertCorpus.from_logs(evolution_logs), section2_graph(), serial_engine
        )["growth"] == evolution.cumulative_precert_growth(evolution_logs)

    def test_default_engine_is_serial(self, evolution_logs):
        assert analyze(CertCorpus.from_logs(evolution_logs), section2_graph())[
            "rates"
        ] == evolution.relative_daily_rates(evolution_logs)
