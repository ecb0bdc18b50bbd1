"""Autonomous systems of the study.

Table 4's footnote defines the cast: ★ Google (AS 15169), ▲ 1&1
(AS 8560), ■ Deteque (AS 54054), ● Petersburg Internet (AS 44050),
✤ Amazon (AS 16509 / 14618), ◗ DigitalOcean (AS 14061), plus Hetzner
(24940), Online S.A.S. (12876), ACN (19397), OpenDNS (36692), and the
bulletproof Quasi Networks (AS 29073), "reincorporated in the
Seychelles in 2015 and … known to ignore all abuse messages".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class AutonomousSystem:
    """One AS with the attributes the analyses report."""

    asn: int
    name: str
    symbol: str = ""
    #: Behavioural category used by workload generators:
    #: resolver | cloud | hosting | threat-intel | bulletproof | other
    category: str = "other"
    #: First /16s of the AS's IPv4 space, as (firstOctet, secondOctet).
    ipv4_blocks: Tuple[Tuple[int, int], ...] = ()
    #: Whether the AS's scanners follow best practices (informative
    #: rDNS, abuse contacts) — the paper found none of the honeypot
    #: scanners did.
    follows_scanning_best_practices: bool = False


def _blocks(*pairs: Tuple[int, int]) -> Tuple[Tuple[int, int], ...]:
    return tuple(pairs)


#: The cast of the paper, keyed by ASN.
AS_REGISTRY: Dict[int, AutonomousSystem] = {
    asys.asn: asys
    for asys in [
        AutonomousSystem(15169, "Google", "★", "resolver", _blocks((74, 125), (172, 217))),
        AutonomousSystem(8560, "1&1 Internet", "▲", "resolver", _blocks((82, 165))),
        AutonomousSystem(54054, "Deteque (Spamhaus)", "■", "threat-intel", _blocks((185, 49))),
        AutonomousSystem(44050, "Petersburg Internet", "●", "hosting", _blocks((5, 8))),
        AutonomousSystem(16509, "Amazon", "✤", "cloud", _blocks((52, 95), (54, 240))),
        AutonomousSystem(14618, "Amazon AES", "✤", "cloud", _blocks((18, 204))),
        AutonomousSystem(14061, "DigitalOcean", "◗", "cloud", _blocks((104, 131), (159, 89))),
        AutonomousSystem(36692, "OpenDNS", "", "resolver", _blocks((208, 67))),
        AutonomousSystem(29073, "Quasi Networks", "", "bulletproof", _blocks((191, 96))),
        AutonomousSystem(24940, "Hetzner", "", "hosting", _blocks((88, 198))),
        AutonomousSystem(12876, "Online S.A.S.", "", "hosting", _blocks((51, 15))),
        AutonomousSystem(19397, "ACN", "", "other", _blocks((66, 228))),
        # Infrastructure of the simulation itself:
        AutonomousSystem(64500, "Honeypot Operator", "", "research", _blocks((198, 18))),
        AutonomousSystem(64501, "Let's Encrypt Validation", "", "ca", _blocks((64, 78))),
        AutonomousSystem(64496, "University Uplink", "", "research", _blocks((169, 229))),
    ]
}


def as_by_number(asn: int) -> Optional[AutonomousSystem]:
    return AS_REGISTRY.get(asn)


def generic_ases(count: int, start_asn: int = 50000) -> List[AutonomousSystem]:
    """Synthesize the long tail of 'other' ASes (the 76 one-off
    batch queriers of Section 6.2)."""
    out = []
    for index in range(count):
        asn = start_asn + index
        first = 100 + (asn % 90)
        second = (asn * 7) % 250
        out.append(
            AutonomousSystem(
                asn,
                f"AS{asn} Transit",
                "",
                "other",
                _blocks((first, second)),
            )
        )
    return out


def table4_symbol(asn: int) -> str:
    """Render an ASN as the paper does: symbol if defined, else number."""
    asys = AS_REGISTRY.get(asn)
    if asys is not None and asys.symbol:
        return f"{asys.symbol}{asn}"
    return str(asn)
