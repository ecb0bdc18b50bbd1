"""FQDN syntax validation and label handling.

Section 4.1: "Some DNS names in these fields are not valid FQDNs as
defined by RFC 1035 (and later updates). We eliminate these using the
Python validators library."  This module is that filter: hostname
syntax per RFC 1035 as relaxed by RFC 1123 (labels may start with a
digit) with the common operational extensions (leading underscore
labels for service records are rejected for host names, wildcard
labels are accepted only as a leading ``*``).
"""

from __future__ import annotations

import re
from typing import List

MAX_NAME_LENGTH = 253
MAX_LABEL_LENGTH = 63

_LABEL_RE = re.compile(r"^(?!-)[a-z0-9-]{1,63}(?<!-)$")
_TLD_RE = re.compile(r"^[a-z][a-z0-9-]*(?<!-)$")
_TRAILING_RE = re.compile(r"[\s.]+$")


def normalize_name(name: str) -> str:
    """Lowercase and strip surrounding whitespace and the trailing root dot.

    Whitespace and dots are stripped from the right together, so that
    ``"a.com ."`` normalizes to ``"a.com"`` and normalizing twice changes
    nothing.
    """
    normalized = name.strip().lower().rstrip(".")
    if normalized[-1:].isspace():
        normalized = _TRAILING_RE.sub("", normalized)
    return normalized


def split_labels(name: str) -> List[str]:
    """Split an FQDN into labels, most-specific first is NOT applied —
    labels are returned left to right as written."""
    normalized = normalize_name(name)
    if not normalized:
        return []
    return normalized.split(".")


def is_valid_label(label: str) -> bool:
    """Check one hostname label (LDH rule, length 1..63)."""
    return bool(_LABEL_RE.match(label))


def is_valid_fqdn(name: str, *, allow_wildcard: bool = False) -> bool:
    """Validate a fully qualified domain name.

    Rules applied (RFC 1035 / RFC 1123 / operational practice):

    * total length <= 253 bytes, at least two labels;
    * each label 1..63 characters of ``[a-z0-9-]``, not starting or
      ending with a hyphen;
    * the rightmost label (TLD) must not be all-numeric and must start
      with a letter;
    * a single leading ``*`` label is accepted when ``allow_wildcard``.
    """
    normalized = normalize_name(name)
    if not normalized or len(normalized) > MAX_NAME_LENGTH:
        return False
    labels = normalized.split(".")
    if len(labels) < 2:
        return False
    if labels[0] == "*":
        if not allow_wildcard:
            return False
        labels = labels[1:]
        if len(labels) < 2:
            return False
    for label in labels:
        if not is_valid_label(label):
            return False
    return bool(_TLD_RE.match(labels[-1]))


def is_subdomain_of(name: str, ancestor: str) -> bool:
    """True when ``name`` is equal to or under ``ancestor``."""
    child = normalize_name(name)
    parent = normalize_name(ancestor)
    return child == parent or child.endswith("." + parent)


def random_control_label(rng, length: int = 16) -> str:
    """A pseudorandom label for the Section 4.3 control queries."""
    return rng.token(length)
