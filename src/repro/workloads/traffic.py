"""The UCB-uplink connection mix (Sections 3.1-3.2).

The paper observed 26.5G outgoing TLS connections between 2017-04-26
and 2018-05-23; 32.61 % carried an SCT (21.40 % embedded in the
certificate, 11.21 % in the TLS extension, ~0.01 % in stapled OCSP),
with channel overlaps being rare, 66.76 % of clients signalling SCT
support, and per-log observation shares as in Table 1.

This workload reproduces that stream at a configurable scale: a
population of *site groups*, each with a fixed SCT-delivery
configuration whose certificates/SCTs are created through the real
CA -> log pipeline, and per-day connection volumes assigned by the
groups' calibrated shares.  Every simulated connection carries a
weight (real connections represented), so all downstream statistics
match the paper's units.

The Figure 2 peaks — "caused by large amounts of requests to
graph.facebook.com" — are reproduced by multiplying the facebook
group's share on a handful of days.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ct.log import CTLog
from repro.ct.loglist import build_default_logs
from repro.ct.sct import SignedCertificateTimestamp
from repro.tls.connection import TlsConnection
from repro.workloads.clients import ClientPopulation
from repro.util.rng import SeededRng
from repro.util.timeutil import PASSIVE_END, PASSIVE_START, date_range, start_of_day
from repro.x509.ca import CertificateAuthority, IssuanceRequest
from repro.x509.certificate import Certificate

#: Total real connections over the capture (paper: 26.5G, 25.6G on 443).
TOTAL_REAL_CONNECTIONS = 26_500_000_000
#: Fraction of clients signalling SCT support (paper Section 3.2);
#: emerges from the browser mix in :mod:`repro.workloads.clients`.
CLIENT_SUPPORT_SHARE = 0.6676

#: Days on which graph.facebook.com produced the Figure 2 peaks.
FACEBOOK_PEAK_DAYS: Tuple[date, ...] = (
    date(2017, 7, 18),
    date(2017, 9, 6),
    date(2017, 11, 22),
    date(2018, 1, 15),
    date(2018, 3, 7),
    date(2018, 5, 2),
)
FACEBOOK_PEAK_MULTIPLIER = 10.0


@dataclass(frozen=True)
class SiteGroup:
    """A population of sites sharing one SCT-delivery configuration.

    ``share`` is the fraction of all connections the group receives.
    ``cert_logs`` makes the group's certificate carry embedded SCTs
    from those logs; ``tls_logs`` / ``ocsp_logs`` configure the other
    channels.
    """

    name: str
    hostname: str
    share: float
    cert_logs: Tuple[str, ...] = ()
    tls_logs: Tuple[str, ...] = ()
    ocsp_logs: Tuple[str, ...] = ()
    peak_days: Tuple[date, ...] = ()
    peak_multiplier: float = 1.0


def _normalized_groups() -> Tuple[SiteGroup, ...]:
    """The calibrated site-group catalog.

    Raw weights below are billions of connections derived from
    Table 1's per-log observation counts; the constructor rescales the
    embedded-SCT groups so the *connection-share* targets of Section
    3.2 (21.40 % cert, 11.21 % TLS, ~0.0075 % OCSP) hold exactly while
    Table 1's per-log shares are preserved.
    """
    cert_raw = [
        # (name, conns in G, embedded-SCT logs)
        ("google-web", 1.05, ("Google Pilot log", "Google Rocketeer log", "Google Aviator log")),
        ("google-apis", 1.06, ("Google Pilot log", "Google Rocketeer log", "Google Skydiver log")),
        ("symantec-vega-sites", 0.66, ("Symantec log", "Symantec Vega log", "Google Pilot log")),
        ("symantec-venafi-sites", 0.99, ("Symantec log", "Venafi log", "Google Pilot log")),
        ("symantec-sites", 1.63, ("Symantec log", "Google Pilot log")),
        ("digicert-sites", 1.10, ("DigiCert Log Server", "Google Rocketeer log")),
        ("digicert2-sites", 0.67, ("DigiCert Log Server", "DigiCert Log Server 2")),
        ("comodo-sites", 0.078, ("Comodo Mammoth CT log", "Google Pilot log")),
        ("letsencrypt-sites", 0.009, ("Cloudflare Nimbus2018 Log", "Google Icarus log")),
        ("letsencrypt-2020", 0.004, ("Cloudflare Nimbus2020 Log", "Google Icarus log")),
        ("comodo-sabre-sites", 0.003, ("Comodo Sabre CT log", "Comodo Mammoth CT log")),
        ("certly-sites", 0.0015, ("Certly.IO log", "Google Pilot log")),
    ]
    tls_raw = [
        # (name, conns in G, TLS-extension logs)
        ("facebook-graph", 1.42, ("Symantec log", "Google Rocketeer log")),
        ("facebook-web", 1.02, ("Symantec log", "Google Pilot log")),
        ("ext-mammoth", 0.225, ("Google Pilot log", "Comodo Mammoth CT log")),
        ("ext-sabre", 0.12, ("Google Pilot log", "Comodo Sabre CT log")),
        ("ext-venafi", 0.149, ("Google Pilot log", "Venafi log")),
        ("ext-skydiver", 0.054, ("Google Pilot log", "Google Skydiver log")),
        ("ext-digicert2", 0.013, ("DigiCert Log Server 2", "Symantec Vega log")),
    ]
    total = 26.5
    cert_target, tls_target = 0.2140, 0.1121
    cert_sum = sum(w for _, w, _ in cert_raw)
    tls_sum = sum(w for _, w, _ in tls_raw)
    cert_factor = cert_target * total / cert_sum
    tls_factor = tls_target * total / tls_sum

    groups: List[SiteGroup] = []
    for name, weight, logs in cert_raw:
        groups.append(
            SiteGroup(
                name=name,
                hostname=f"www.{name}.com",
                share=weight * cert_factor / total,
                cert_logs=logs,
            )
        )
    for name, weight, logs in tls_raw:
        peaks = FACEBOOK_PEAK_DAYS if name == "facebook-graph" else ()
        groups.append(
            SiteGroup(
                name=name,
                hostname="graph.facebook.com" if name == "facebook-graph" else f"www.{name}.com",
                share=weight * tls_factor / total,
                tls_logs=logs,
                peak_days=peaks,
                peak_multiplier=FACEBOOK_PEAK_MULTIPLIER if peaks else 1.0,
            )
        )
    # Channel overlaps (Section 3.2): rare by construction.
    groups.append(
        SiteGroup(
            name="overlap-cert-tls",  # 30.8K connections
            hostname="www.overlap-cert-tls.com",
            share=30_800 / TOTAL_REAL_CONNECTIONS,
            cert_logs=("Google Pilot log", "Google Rocketeer log"),
            tls_logs=("Google Pilot log", "Google Rocketeer log"),
        )
    )
    groups.append(
        SiteGroup(
            name="overlap-cert-ocsp",  # 29 connections
            hostname="www.overlap-cert-ocsp.com",
            share=29 / TOTAL_REAL_CONNECTIONS,
            cert_logs=("DigiCert Log Server",),
            ocsp_logs=("DigiCert Log Server",),
        )
    )
    groups.append(
        SiteGroup(
            name="overlap-ocsp-tls",  # 1.5M connections
            hostname="www.overlap-ocsp-tls.com",
            share=1_500_000 / TOTAL_REAL_CONNECTIONS,
            tls_logs=("DigiCert Log Server", "Google Pilot log"),
            ocsp_logs=("DigiCert Log Server",),
        )
    )
    groups.append(
        SiteGroup(
            name="ocsp-only",  # remainder of the ~2M OCSP connections
            hostname="www.ocsp-only.com",
            share=500_000 / TOTAL_REAL_CONNECTIONS,
            ocsp_logs=("DigiCert Log Server",),
        )
    )
    # Everything else: connections without any SCT.
    no_sct_share = 1.0 - sum(group.share for group in groups)
    groups.append(
        SiteGroup(
            name="plain-web",
            hostname="www.plain-web.com",
            share=no_sct_share,
        )
    )
    return tuple(groups)


DEFAULT_SITE_GROUPS: Tuple[SiteGroup, ...] = _normalized_groups()


@dataclass
class _GroupRuntime:
    """A group's instantiated certificate and channel SCTs."""

    group: SiteGroup
    certificate: Certificate
    tls_scts: Tuple[SignedCertificateTimestamp, ...]
    ocsp_scts: Tuple[SignedCertificateTimestamp, ...]


class UplinkTrafficWorkload:
    """Generates the scaled UCB-uplink connection stream."""

    def __init__(
        self,
        *,
        connections_per_day: int = 1_200,
        seed: int = 42,
        start: Optional[date] = None,
        end: Optional[date] = None,
        groups: Sequence[SiteGroup] = DEFAULT_SITE_GROUPS,
        logs: Optional[Dict[str, CTLog]] = None,
        key_bits: int = 256,
        clients: Optional[ClientPopulation] = None,
    ) -> None:
        self.start = start or PASSIVE_START
        self.end = end or PASSIVE_END
        self.connections_per_day = connections_per_day
        self.groups = list(groups)
        self._rng = SeededRng(seed, "uplink")
        # The client mix produces the paper's 66.76 % SCT-support share.
        self.clients = clients or ClientPopulation(seed=seed)
        self.logs = logs if logs is not None else build_default_logs(
            with_capacities=False, key_bits=key_bits
        )
        self._ca = CertificateAuthority("Traffic CA", key_bits=key_bits)
        window_days = (self.end - self.start).days + 1
        full_days = (PASSIVE_END - PASSIVE_START).days + 1
        # One simulated connection stands for this many real ones.  The
        # factor is defined over the paper's full 393-day capture, so a
        # shorter window represents the matching *slice* of the capture
        # (window total ~= 26.5G x window/393), not the whole thing.
        self.weight_per_connection = max(
            1,
            round(TOTAL_REAL_CONNECTIONS / (full_days * connections_per_day)),
        )
        # Groups whose expected simulated count over the full capture is
        # tiny (the rare channel overlaps: 29 .. 1.5M real connections)
        # cannot be represented by weight-W sampling.  They are emitted
        # as a fixed number of low-weight records spread over the window.
        self._runtimes = []
        self._rare_runtimes: List[Tuple[_GroupRuntime, int, List[date]]] = []
        rare_records = min(12, window_days)
        for group in self.groups:
            runtime = self._instantiate(group)
            expected_sim_full = group.share * connections_per_day * full_days
            if expected_sim_full < 30:
                real_in_window = (
                    group.share * TOTAL_REAL_CONNECTIONS * window_days / full_days
                )
                per_record_weight = max(1, round(real_in_window / rare_records))
                step = max(1, window_days // rare_records)
                days = [
                    self.start + timedelta(days=offset)
                    for offset in range(0, window_days, step)
                ][:rare_records]
                self._rare_runtimes.append((runtime, per_record_weight, days))
            else:
                self._runtimes.append(runtime)

    def _instantiate(self, group: SiteGroup) -> _GroupRuntime:
        """Create the group's certificate/SCTs via the real pipeline."""
        issued_at = start_of_day(self.start) - timedelta(days=30)
        cert_logs = [self.logs[name] for name in group.cert_logs]
        pair = self._ca.issue(
            IssuanceRequest(
                (group.hostname, group.hostname.replace("www.", "", 1)),
                lifetime_days=730,
                embed_scts=bool(cert_logs),
            ),
            cert_logs,
            issued_at,
        )
        tls_scts = tuple(
            self.logs[name].add_chain(pair.final_certificate, issued_at)
            for name in group.tls_logs
        )
        ocsp_scts = tuple(
            self.logs[name].add_chain(pair.final_certificate, issued_at)
            for name in group.ocsp_logs
        )
        return _GroupRuntime(group, pair.final_certificate, tls_scts, ocsp_scts)

    # -- stream generation --------------------------------------------------

    def _day_shares(self, day: date) -> List[float]:
        shares = []
        for runtime in self._runtimes:
            group = runtime.group
            share = group.share
            if day in group.peak_days:
                share *= group.peak_multiplier
            shares.append(share)
        total = sum(shares)
        return [share / total for share in shares]

    def connections_for_day(self, day: date) -> Iterator[TlsConnection]:
        """Yield the day's simulated connections."""
        rng = self._rng.fork(day.isoformat())
        shares = self._day_shares(day)
        counts = _apportion(shares, self.connections_per_day, rng)
        midnight = start_of_day(day)
        for runtime, count in zip(self._runtimes, counts):
            for _ in range(count):
                moment = midnight + timedelta(seconds=rng.uniform(0, 86_399))
                yield TlsConnection(
                    time=moment,
                    server_name=runtime.group.hostname,
                    server_ip="198.51.100.10",
                    certificate=runtime.certificate,
                    tls_extension_scts=runtime.tls_scts,
                    ocsp_scts=runtime.ocsp_scts,
                    client_signals_sct_support=self.clients.draw().signals_sct_support,
                    weight=self.weight_per_connection,
                )
        for runtime, weight, days in self._rare_runtimes:
            if day in days:
                yield TlsConnection(
                    time=midnight + timedelta(seconds=rng.uniform(0, 86_399)),
                    server_name=runtime.group.hostname,
                    server_ip="198.51.100.10",
                    certificate=runtime.certificate,
                    tls_extension_scts=runtime.tls_scts,
                    ocsp_scts=runtime.ocsp_scts,
                    client_signals_sct_support=self.clients.draw().signals_sct_support,
                    weight=weight,
                )

    def stream(self) -> Iterator[TlsConnection]:
        """The whole capture period, day by day."""
        for day in date_range(self.start, self.end):
            yield from self.connections_for_day(day)


def _apportion(shares: Sequence[float], total: int, rng: SeededRng) -> List[int]:
    """Integer apportionment of ``total`` by ``shares``.

    Largest-remainder rounding, with a stochastic twist: groups whose
    expected count is below one (the rare overlap groups) appear with
    the corresponding probability, so over many days their aggregate
    share converges to the target.
    """
    exact = [share * total for share in shares]
    counts = [int(value) for value in exact]
    remainders = [value - count for value, count in zip(exact, counts)]
    missing = total - sum(counts)
    order = sorted(range(len(shares)), key=lambda i: -remainders[i])
    for rank in range(len(order)):
        if missing <= 0:
            break
        index = order[rank]
        # Probabilistic inclusion keeps sub-one-count groups fair.
        if remainders[index] >= 1.0 or rng.chance(remainders[index]):
            counts[index] += 1
            missing -= 1
    # Any residue lands on the largest group (the no-SCT tail).
    if missing > 0:
        counts[max(range(len(shares)), key=lambda i: shares[i])] += missing
    return counts
