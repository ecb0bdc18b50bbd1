"""HTTPS server endpoints.

One IP can host many TLS sites selected by SNI — the paper's active
scan found ≈12 certificates per SCT-serving IP ("With the use of
TLS-SNI, this ≈12-fold multiplexing of certificates per IP is
expected").  :class:`HttpsEndpoint` models exactly that: a port-443
listener with per-SNI sites, each with its own certificate and SCT
delivery configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ct.sct import SignedCertificateTimestamp
from repro.x509.certificate import Certificate


@dataclass
class ServerSite:
    """One SNI-selected virtual host."""

    hostname: str
    certificate: Certificate
    #: SCTs the server sends in the TLS extension (operators fetch
    #: these themselves by submitting their cert to logs).
    tls_extension_scts: Tuple[SignedCertificateTimestamp, ...] = ()
    #: SCTs delivered inside a stapled OCSP response.
    ocsp_scts: Tuple[SignedCertificateTimestamp, ...] = ()


@dataclass
class HttpsEndpoint:
    """A TCP/443 listener with SNI multiplexing."""

    ip: str
    sites: Dict[str, ServerSite] = field(default_factory=dict)
    port_open: bool = True

    def add_site(self, site: ServerSite) -> ServerSite:
        self.sites[site.hostname.lower()] = site
        return site

    def handshake(self, sni: Optional[str]) -> Optional[ServerSite]:
        """Serve the site matching the SNI (or the default site)."""
        if not self.port_open or not self.sites:
            return None
        if sni:
            site = self.sites.get(sni.lower())
            if site is not None:
                return site
            site = self._wildcard_match(sni.lower())
            if site is not None:
                return site
        # No/unknown SNI: default virtual host.
        return next(iter(self.sites.values()))

    def _wildcard_match(self, sni: str) -> Optional[ServerSite]:
        head, sep, tail = sni.partition(".")
        if not sep:
            return None
        return self.sites.get(f"*.{tail}")

    def certificate_count(self) -> int:
        """Distinct certificates served by this IP."""
        return len({site.certificate.fingerprint() for site in self.sites.values()})

    def serves_any_sct(self) -> bool:
        """True when at least one hosted site delivers an SCT somehow."""
        return any(
            site.certificate.has_embedded_scts
            or site.tls_extension_scts
            or site.ocsp_scts
            for site in self.sites.values()
        )
