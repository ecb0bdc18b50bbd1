"""One-call reproduction of the paper's full evaluation.

:func:`reproduce_paper` runs every experiment — Sections 2 through 6 —
at configurable scales and returns a :class:`PaperResults` whose
``render()`` emits all tables and figures in paper order.  This is the
programmatic equivalent of running the whole benchmark harness, meant
for scripted use::

    from repro.paper import reproduce_paper

    results = reproduce_paper(seed=7)
    print(results.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Dict, List, Optional

from repro.core import (
    adoption,
    enumeration,
    evolution,
    misissuance,
    serversupport,
)
from repro.core import report as rpt
from repro.core.honeypot import CtHoneypotExperiment, HoneypotResult, render_table4
from repro.core.phishdetect import PhishingDetector, PhishingReport
from repro.core.threatintel import build_threat_report, render_threat_report
from repro.dataset import (
    CertCorpus,
    adoption_graph,
    analyze,
    fqdn_graph,
    section2_graph,
)


@dataclass
class PaperScales:
    """Simulated:real ratios per experiment (benchmark defaults)."""

    evolution: float = 1.0 / 200_000.0
    traffic_connections_per_day: int = 400
    hosting: float = 1.0 / 20_000.0
    domains: float = 1.0 / 2_000.0
    enumeration_domains: float = 1.0 / 10_000.0
    phishing: float = 1.0 / 100.0


@dataclass
class PaperResults:
    """Everything the reproduction produced, in paper order."""

    scales: PaperScales
    evolution_growth: Dict = field(default_factory=dict)
    evolution_weight: float = 1.0
    evolution_shares: Dict = field(default_factory=dict)
    evolution_matrix: object = None
    evolution_load: object = None
    traffic_stats: object = None
    scan_stats: object = None
    misissuance_report: object = None
    leakage_stats: object = None
    enumeration_report: object = None
    phishing_report: PhishingReport = None  # type: ignore[assignment]
    honeypot: HoneypotResult = None  # type: ignore[assignment]

    def sections(self) -> List[str]:
        """All artifact renderings, ordered as in the paper."""
        out = [
            rpt.render_figure1a(self.evolution_growth, self.evolution_weight),
            rpt.render_figure1b(self.evolution_shares),
            rpt.render_figure1c(self.evolution_matrix),
            rpt.render_log_load(self.evolution_load),
            rpt.render_figure2(self.traffic_stats),
            rpt.render_table1(adoption.table1(self.traffic_stats)),
            rpt.render_section32(self.traffic_stats),
            rpt.render_section33(self.scan_stats, weight=1.0 / self.scales.hosting),
            rpt.render_section34(self.misissuance_report),
            rpt.render_table2(self.leakage_stats, weight=1.0 / self.scales.domains),
            rpt.render_section43(
                self.enumeration_report, self.scales.enumeration_domains
            ),
            rpt.render_table3(self.phishing_report, weight=1.0 / self.scales.phishing),
            render_table4(self.honeypot.table4()),
            render_threat_report(build_threat_report(self.honeypot)),
        ]
        return out

    def render(self) -> str:
        divider = "\n\n" + "=" * 78 + "\n\n"
        return divider.join(self.sections())


def reproduce_paper(
    *,
    seed: int = 7,
    scales: Optional[PaperScales] = None,
    progress: bool = False,
) -> PaperResults:
    """Run every experiment of the paper and collect the results."""
    scales = scales or PaperScales()
    results = PaperResults(scales=scales)

    def note(message: str) -> None:
        if progress:
            print(f"[reproduce] {message}")

    # Section 2 — CT log evolution.
    note("Section 2: CA logging 2015-2018 ...")
    from repro.workloads.ca_profiles import CaLoggingWorkload

    run = CaLoggingWorkload(
        scale=scales.evolution, end=date(2018, 4, 30), seed=seed
    ).run()
    corpus = CertCorpus.from_logs(run.logs, with_names=False)
    sections = analyze(corpus, section2_graph("2018-04"))
    results.evolution_growth = sections["growth"]
    results.evolution_weight = run.weight
    results.evolution_shares = sections["rates"]
    results.evolution_matrix = sections["matrix"]
    results.evolution_load = evolution.log_load_report(
        run.logs, "2018-04", matrix=sections["matrix"]
    )

    # Section 3.1-3.2 — passive traffic.
    note("Section 3.2: uplink capture ...")
    from repro.bro.analyzer import BroSctAnalyzer
    from repro.workloads.traffic import UplinkTrafficWorkload

    traffic = UplinkTrafficWorkload(
        connections_per_day=scales.traffic_connections_per_day, seed=seed
    )
    graph = adoption_graph(BroSctAnalyzer(traffic.logs).config())
    results.traffic_stats = analyze(traffic.stream(), graph)["adoption"]

    # Section 3.3 — active scan.
    note("Section 3.3: active scan ...")
    from repro.tls.scanner import TlsScanner
    from repro.util.timeutil import utc_datetime
    from repro.workloads.hosting import HostingWorkload

    population = HostingWorkload(scale=scales.hosting, seed=seed).build()
    scanner = TlsScanner(population.resolver(), population.endpoints)
    records = scanner.scan(population.domains, utc_datetime(2018, 5, 18))
    names = {log.log_id: log.name for log in population.logs.values()}
    results.scan_stats = serversupport.analyze_scan(records, names)

    # Section 3.4 — misissuance audit.
    note("Section 3.4: invalid embedded SCTs ...")
    from repro.workloads.incidents import MisissuanceWorkload

    incidents = MisissuanceWorkload(healthy_certificates=200, seed=seed).build()
    results.misissuance_report = misissuance.audit_certificates(
        (pair.final_certificate for pair in incidents.pairs),
        incidents.issuer_key_hashes(),
        incidents.logs,
    )

    # Section 4 — leakage + enumeration.
    note("Section 4: DNS leakage and enumeration ...")
    from repro.workloads.domains import DomainWorkload

    domains = DomainWorkload(scale=scales.domains, seed=seed).build()
    results.leakage_stats = analyze(
        domains.ct_fqdns, fqdn_graph(domains.psl)
    )["leakage"]
    enum_corpus = DomainWorkload(
        scale=scales.enumeration_domains, seed=seed + 1
    ).build()
    enum_stats = analyze(
        enum_corpus.ct_fqdns, fqdn_graph(enum_corpus.psl)
    )["leakage"]
    _, _, results.enumeration_report = enumeration.run_enumeration_experiment(
        enum_stats, enum_corpus, seed=seed
    )

    # Section 5 — phishing.
    note("Section 5: phishing detection ...")
    from repro.workloads.phishing import PhishingWorkload

    phishing = PhishingWorkload(scale=scales.phishing, seed=seed).build()
    results.phishing_report = PhishingDetector().scan(phishing.names)

    # Section 6 — the honeypot.
    note("Section 6: CT honeypot ...")
    results.honeypot = CtHoneypotExperiment(seed=seed).run()
    note("done.")
    return results
