"""The border router's view of routable address space.

Section 4.3: "We disregard IP addresses not part of our border
router's routing table as invalid. This rules out misconfigured DNS
servers. It also makes our numbers lower bounds."

The table holds /16 prefixes; membership is a dictionary probe on the
first two octets, so filtering hundreds of thousands of answers stays
cheap.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.inet.asn import AS_REGISTRY, AutonomousSystem


class RoutingTable:
    """A set of routed /16s with an IPv4 membership test."""

    def __init__(self, prefixes: Iterable[Tuple[int, int]] = ()) -> None:
        self._prefixes: Set[Tuple[int, int]] = set(prefixes)

    @classmethod
    def from_ases(cls, ases: Iterable[AutonomousSystem]) -> "RoutingTable":
        table = cls()
        for asys in ases:
            for block in asys.ipv4_blocks:
                table.add_prefix(block)
        return table

    @classmethod
    def global_table(cls) -> "RoutingTable":
        """Routes for every registered AS."""
        return cls.from_ases(AS_REGISTRY.values())

    def add_prefix(self, prefix: Tuple[int, int]) -> None:
        self._prefixes.add(prefix)

    def contains(self, address: str) -> bool:
        """True when the address falls in a routed /16."""
        parts = address.split(".")
        if len(parts) != 4:
            return False
        try:
            first, second = int(parts[0]), int(parts[1])
        except ValueError:
            return False
        return (first, second) in self._prefixes

    def __contains__(self, address: str) -> bool:
        return self.contains(address)

    def __len__(self) -> int:
        return len(self._prefixes)
