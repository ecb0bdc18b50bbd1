"""Recursive DNS resolution over the simulated universe.

:class:`DnsUniverse` is the closed world of authoritative servers;
:class:`RecursiveResolver` models an open resolver (Google Public DNS,
OpenDNS, …) with an AS identity, optional EDNS Client Subnet
forwarding, and CNAME chasing capped at 10 indirections — the limit
the paper applies in its Section 4.3 verification scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.dnscore.authoritative import AuthoritativeServer
from repro.dnscore.edns import ClientSubnet
from repro.dnscore.name import normalize_name
from repro.dnscore.records import RecordType, ResourceRecord
from repro.dnscore.zone import Zone

#: Maximum CNAME indirections followed (Section 4.3).
MAX_CNAME_CHAIN = 10


class Rcode(str, Enum):
    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    SERVFAIL = "SERVFAIL"


@dataclass(frozen=True)
class ResolutionResult:
    """Outcome of a recursive lookup."""

    qname: str
    qtype: RecordType
    rcode: Rcode
    answers: Tuple[ResourceRecord, ...] = ()
    cname_chain: Tuple[str, ...] = ()

    @property
    def addresses(self) -> List[str]:
        """Terminal A/AAAA values."""
        return [
            r.value
            for r in self.answers
            if r.rtype in (RecordType.A, RecordType.AAAA)
        ]


class DnsUniverse:
    """All authoritative servers of the simulated Internet.

    Maintains a zone-origin index so that finding the authoritative
    server for a name is O(labels), not O(zones) — the Section 4.3
    verification issues hundreds of thousands of queries.
    """

    def __init__(self) -> None:
        self._servers: List[AuthoritativeServer] = []
        self._default_server = AuthoritativeServer(name="default-auth")
        self._servers.append(self._default_server)
        self._origin_index: Dict[str, AuthoritativeServer] = {}

    def add_server(self, server: AuthoritativeServer) -> AuthoritativeServer:
        self._servers.append(server)
        for origin in server.zones:
            self._origin_index[origin] = server
        return server

    def add_zone(self, zone: Zone, server: Optional[AuthoritativeServer] = None) -> Zone:
        """Host ``zone`` on ``server`` (or the shared default server)."""
        target = server if server is not None else self._default_server
        if server is not None and server not in self._servers:
            self._servers.append(server)
        target.add_zone(zone)
        self._origin_index[zone.origin] = target
        return zone

    def server_for(self, qname: str) -> Optional[AuthoritativeServer]:
        """The server hosting the longest-matching zone for ``qname``."""
        candidate = normalize_name(qname)
        while candidate:
            server = self._origin_index.get(candidate)
            if server is not None:
                return server
            if "." not in candidate:
                return None
            candidate = candidate.split(".", 1)[1]
        return None

    @property
    def servers(self) -> List[AuthoritativeServer]:
        return list(self._servers)


@dataclass
class RecursiveResolver:
    """An open recursive resolver with a network identity.

    Parameters
    ----------
    forwards_ecs:
        Google Public DNS behaviour: forward a /24 of the stub client
        to the authoritative server via the EDNS Client Subnet option.
    """

    name: str
    universe: DnsUniverse
    ip: str = "192.0.2.53"
    asn: Optional[int] = None
    forwards_ecs: bool = False
    queries_sent: int = field(default=0)

    def resolve(
        self,
        qname: str,
        qtype: RecordType,
        *,
        now: datetime,
        client_ip: Optional[str] = None,
    ) -> ResolutionResult:
        """Resolve ``qname``, chasing CNAMEs up to the RFC-practical cap."""
        qname = normalize_name(qname)
        ecs: Optional[ClientSubnet] = None
        if self.forwards_ecs and client_ip is not None:
            ecs = ClientSubnet.from_ipv4(client_ip)
        current = qname
        chain: List[str] = []
        for _ in range(MAX_CNAME_CHAIN + 1):
            server = self.universe.server_for(current)
            if server is None:
                return ResolutionResult(qname, qtype, Rcode.NXDOMAIN, cname_chain=tuple(chain))
            self.queries_sent += 1
            records = server.query(
                current,
                qtype,
                now=now,
                source_ip=self.ip,
                source_asn=self.asn,
                client_subnet=ecs,
                resolver_name=self.name,
            )
            if not records:
                return ResolutionResult(qname, qtype, Rcode.NXDOMAIN, cname_chain=tuple(chain))
            cnames = [r for r in records if r.rtype is RecordType.CNAME]
            if cnames and qtype is not RecordType.CNAME:
                chain.append(cnames[0].value)
                current = normalize_name(cnames[0].value)
                continue
            return ResolutionResult(
                qname, qtype, Rcode.NOERROR, tuple(records), tuple(chain)
            )
        # CNAME loop / chain too deep.
        return ResolutionResult(qname, qtype, Rcode.SERVFAIL, cname_chain=tuple(chain))
