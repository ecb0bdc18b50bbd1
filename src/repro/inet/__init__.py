"""Simulated Internet: autonomous systems, routing, time.

The honeypot analysis (Section 6) attributes DNS queries and scans to
autonomous systems; :mod:`repro.inet.asn` carries the exact ASes of
Table 4 with the paper's footnote symbols.  The border-router routing
table of Section 4.3 ("we disregard IP addresses not part of our
border router's routing table") lives in :mod:`repro.inet.routing`.
"""

from repro.inet.asn import AS_REGISTRY, AutonomousSystem, as_by_number
from repro.inet.clock import EventScheduler, SimEvent
from repro.inet.routing import RoutingTable

__all__ = [
    "AS_REGISTRY",
    "AutonomousSystem",
    "EventScheduler",
    "RoutingTable",
    "SimEvent",
    "as_by_number",
]
