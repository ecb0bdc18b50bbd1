"""Public Suffix List engine.

The paper defines a *base domain* (registrable domain) as "the domain
under a public suffix per Public Suffix List" and extracts *subdomain
labels* as all labels under the base domain.  This module implements
the PSL matching algorithm including wildcard rules (``*.ck``) and
exception rules (``!www.ck``), and bundles a suffix set covering every
suffix the paper's analyses mention (com/net/org, the phishing-heavy
ga/tk/ml/cf/gq, bid/review/live/money, country suffixes, and the
per-suffix examples of Section 4.2: tech, email, cloud, design, gov,
gov.uk, …).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Set, Tuple

from repro.dnscore.name import normalize_name, split_labels

#: Suffix rules bundled with the reproduction (a representative subset
#: of the real PSL; extend via PublicSuffixList(extra_rules=...)).
DEFAULT_RULES: Tuple[str, ...] = (
    # generic
    "com", "net", "org", "info", "biz", "name", "mobi", "edu", "gov", "mil", "int",
    # new gTLDs used in the paper's analyses
    "tech", "email", "cloud", "design", "bid", "review", "live", "money",
    "online", "site", "xyz", "top", "shop", "app", "dev", "icu",
    # Freenom suffixes dominating the phishing table
    "ga", "tk", "ml", "cf", "gq",
    # country codes
    "de", "fr", "nl", "it", "es", "se", "no", "fi", "pl", "ru", "cn", "jp",
    "br", "in", "ir", "gr", "ch", "at", "be", "cz", "sk", "hu", "ro", "pt",
    "dk", "eu", "us", "ca", "mx", "ar", "cl", "co", "am", "my", "sg", "hk",
    "tw", "kr", "za", "ng", "ke", "eg", "il", "tr", "ua", "by", "kz", "vn",
    "th", "id", "ph", "nz", "ie", "is", "lt", "lv", "ee", "si", "hr", "rs",
    "bg", "md", "ge", "az", "io", "me", "tv", "cc", "ws", "fm", "ai", "sh",
    # multi-label country suffixes
    "co.uk", "org.uk", "me.uk", "ac.uk", "gov.uk", "nhs.uk", "ltd.uk",
    "com.au", "net.au", "org.au", "gov.au", "edu.au", "id.au",
    "co.nz", "net.nz", "org.nz", "govt.nz",
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "com.br", "net.br", "org.br", "gov.br",
    "co.in", "net.in", "org.in", "gov.in", "ac.in",
    "com.cn", "net.cn", "org.cn", "gov.cn",
    "co.za", "org.za", "gov.za",
    "com.mx", "com.ar", "com.tr", "com.ua", "com.sg", "com.my",
    "co.kr", "co.il", "co.th", "co.id", "co.am",
    # wildcard + exception examples from the real PSL
    "*.ck", "!www.ck",
    "*.bd", "*.er", "*.fk",
)


class PublicSuffixList:
    """PSL matcher implementing the publicsuffix.org algorithm."""

    def __init__(self, rules: Optional[Iterable[str]] = None,
                 extra_rules: Iterable[str] = ()) -> None:
        self._exact: Set[str] = set()
        self._wildcards: Set[str] = set()   # "ck" for "*.ck"
        self._exceptions: Set[str] = set()  # "www.ck" for "!www.ck"
        for rule in list(rules if rules is not None else DEFAULT_RULES) + list(extra_rules):
            self.add_rule(rule)

    def add_rule(self, rule: str) -> None:
        rule = rule.strip().lower()
        if not rule or rule.startswith("//"):
            return
        if rule.startswith("!"):
            self._exceptions.add(rule[1:])
        elif rule.startswith("*."):
            self._wildcards.add(rule[2:])
        else:
            self._exact.add(rule)

    def rules_digest(self) -> str:
        """A short digest of the rule set, for binding stored results."""
        rules = sorted(self._exact) + sorted(f"*.{r}" for r in self._wildcards)
        rules += sorted(f"!{r}" for r in self._exceptions)
        return hashlib.sha256("\n".join(rules).encode()).hexdigest()[:16]

    # -- core algorithm ------------------------------------------------------

    def public_suffix(self, name: str) -> Optional[str]:
        """The longest matching public suffix of ``name``.

        Follows the PSL algorithm: exception rules beat wildcard rules;
        if no rule matches, the TLD (rightmost label) is the suffix.
        """
        labels = split_labels(name)
        if not labels:
            return None
        best: Optional[List[str]] = None
        for start in range(len(labels)):
            candidate = labels[start:]
            joined = ".".join(candidate)
            if joined in self._exceptions:
                # The exception's suffix is the rule with one label removed.
                return ".".join(candidate[1:]) if len(candidate) > 1 else joined
            if joined in self._exact:
                if best is None or len(candidate) > len(best):
                    best = candidate
            if len(candidate) >= 2 and ".".join(candidate[1:]) in self._wildcards:
                if best is None or len(candidate) > len(best):
                    best = candidate
        if best is not None:
            return ".".join(best)
        return labels[-1]

    def registrable_domain(self, name: str) -> Optional[str]:
        """Public suffix plus one label (the paper's *base domain*)."""
        normalized = normalize_name(name)
        suffix = self.public_suffix(normalized)
        if suffix is None or normalized == suffix:
            return None
        remainder = normalized[: -(len(suffix) + 1)]
        if not remainder:
            return None
        owner = remainder.split(".")[-1]
        return f"{owner}.{suffix}"

    def subdomain_labels(self, name: str) -> List[str]:
        """All labels under the registrable domain, left to right.

        ``www.mail.example.co.uk`` -> ``["www", "mail"]``; an empty list
        when the name *is* a registrable domain or public suffix.
        """
        normalized = normalize_name(name)
        registrable = self.registrable_domain(normalized)
        if registrable is None or normalized == registrable:
            return []
        prefix = normalized[: -(len(registrable) + 1)]
        return prefix.split(".") if prefix else []

    def split(self, name: str) -> Tuple[List[str], Optional[str], Optional[str]]:
        """Return ``(subdomain_labels, registrable_domain, public_suffix)``."""
        return (
            self.subdomain_labels(name),
            self.registrable_domain(name),
            self.public_suffix(name),
        )

    def is_public_suffix(self, name: str) -> bool:
        normalized = normalize_name(name)
        return self.public_suffix(normalized) == normalized

    def suffixes(self) -> Set[str]:
        """All exact suffix rules (used by workload generators)."""
        return set(self._exact)


_DEFAULT: Optional[PublicSuffixList] = None


def default_psl() -> PublicSuffixList:
    """A process-wide shared PSL with the bundled rules."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList()
    return _DEFAULT
