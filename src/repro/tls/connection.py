"""TLS connection records.

A :class:`TlsConnection` is what the passive monitor sees for one
outgoing connection: server identity (SNI), the served certificate,
and any SCTs delivered via the TLS extension or a stapled OCSP
response.  Because the paper's uplink carried 26.5G connections and we
simulate a scaled-down stream, each record carries a ``weight`` — the
number of real-world connections it stands for; all Section 3
statistics are weight-aware.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Tuple

from repro.ct.sct import SignedCertificateTimestamp
from repro.x509.certificate import Certificate


@dataclass(frozen=True)
class SctPresence:
    """Which channels carried at least one SCT on a connection."""

    certificate: bool = False
    tls_extension: bool = False
    ocsp_staple: bool = False

    @property
    def any(self) -> bool:
        return self.certificate or self.tls_extension or self.ocsp_staple


@dataclass(frozen=True)
class TlsConnection:
    """One observed TLS connection (possibly standing for many)."""

    time: datetime
    server_name: str
    server_ip: str
    certificate: Optional[Certificate]
    tls_extension_scts: Tuple[SignedCertificateTimestamp, ...] = ()
    ocsp_scts: Tuple[SignedCertificateTimestamp, ...] = ()
    client_signals_sct_support: bool = True
    weight: int = 1
