"""DNS zone storage.

Zones support three behaviours the Section 4.3 enumeration methodology
must contend with:

* plain record sets;
* wildcard records (``*.zone``) matching any name under the zone;
* the *default-A* misconfiguration: zones that answer **every** query
  with a fixed A record.  The paper's pseudorandom control queries
  exist precisely to rule these out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dnscore.name import is_subdomain_of, normalize_name
from repro.dnscore.records import RecordType, ResourceRecord


@dataclass
class Zone:
    """A zone rooted at ``origin``.

    Parameters
    ----------
    origin:
        Zone apex, e.g. ``example.co.uk``.
    default_a:
        When set, any name under the zone resolves to this address —
        the misconfiguration class the control methodology detects.
    """

    origin: str
    default_a: Optional[str] = None
    _records: Dict[Tuple[str, RecordType], List[ResourceRecord]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        self.origin = normalize_name(self.origin)

    def add(self, record: ResourceRecord) -> None:
        """Add a record; the owner must be at or under the origin."""
        name = normalize_name(record.name)
        bare = name[2:] if name.startswith("*.") else name
        if not is_subdomain_of(bare, self.origin):
            raise ValueError(f"{record.name} is not within zone {self.origin}")
        key = (name, record.rtype)
        self._records.setdefault(key, []).append(record)

    def add_simple(self, name: str, rtype: RecordType, value: str, ttl: int = 300) -> None:
        self.add(ResourceRecord(normalize_name(name), rtype, value, ttl))

    def contains(self, name: str) -> bool:
        """True when this zone is authoritative for ``name``."""
        return is_subdomain_of(name, self.origin)

    def lookup(self, name: str, rtype: RecordType) -> List[ResourceRecord]:
        """Resolve one name/type within the zone.

        Resolution order: exact records, exact CNAME (returned so the
        resolver can chase it), wildcard match, default-A fallback.
        An empty list means NODATA/NXDOMAIN at this zone.
        """
        name = normalize_name(name)
        exact = self._records.get((name, rtype))
        if exact:
            return list(exact)
        cname = self._records.get((name, RecordType.CNAME))
        if cname:
            return list(cname)
        if name != self.origin:
            wildcard = self._find_wildcard(name, rtype)
            if wildcard:
                return wildcard
        if self.default_a is not None and rtype is RecordType.A:
            return [ResourceRecord(name, RecordType.A, self.default_a)]
        return []

    def _find_wildcard(self, name: str, rtype: RecordType) -> List[ResourceRecord]:
        """Match ``*.<ancestor>`` wildcards, closest ancestor first."""
        labels = name.split(".")
        for depth in range(1, len(labels)):
            ancestor = ".".join(labels[depth:])
            if not is_subdomain_of(ancestor, self.origin):
                break
            for wtype in (rtype, RecordType.CNAME):
                records = self._records.get((f"*.{ancestor}", wtype))
                if records:
                    return [
                        ResourceRecord(name, r.rtype, r.value, r.ttl)
                        for r in records
                    ]
        return []

    def names(self) -> List[str]:
        """All owner names with explicit records."""
        return sorted({name for name, _ in self._records})

    def record_count(self) -> int:
        return sum(len(v) for v in self._records.values())
