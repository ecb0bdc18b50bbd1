"""Certification authorities and the precertificate issuance flow.

The issuance pipeline mirrors what real CAs do under RFC 6962:

1. build the TBS certificate,
2. add the poison extension to form a *precertificate*,
3. submit the precertificate to one or more CT logs and collect SCTs,
4. strip the poison, embed the SCT list extension, sign the *final*
   certificate.

Step 4 is where real CAs introduced the bugs of Section 3.4: any
difference between the TBS bytes of the precertificate and the final
certificate (beyond the poison/SCT-list swap) invalidates the embedded
SCTs.  :class:`IssuanceBug` reproduces each documented failure:

* ``SCT_REUSE`` — TeliaSonera embedded an SCT from an earlier
  re-issued certificate (1 certificate in the paper);
* ``SAN_REORDER`` — GlobalSign reordered SAN entries between precert
  and final when SANs mixed DNS names and IP addresses (12 certs);
* ``EXTENSION_REORDER`` — D-Trust emitted X.509 extensions in a
  different order in some final certificates (2 certs);
* ``SAN_SWAP`` — NetLock's final certificate carried entirely
  different SAN names and even a different issuer (1 cert).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ct.log import CTLog
from repro.ct.sct import SignedCertificateTimestamp, encode_sct_list
from repro.x509 import crypto
from repro.x509.certificate import (
    Certificate,
    Extension,
    GeneralName,
    POISON_EXTENSION_OID,
    SCT_LIST_EXTENSION_OID,
    SanType,
)

#: Generic non-CT extensions every certificate carries, in canonical order.
BASE_EXTENSION_OIDS = (
    "2.5.29.19",  # basicConstraints
    "2.5.29.15",  # keyUsage
    "2.5.29.35",  # authorityKeyIdentifier
    "2.5.29.14",  # subjectKeyIdentifier
)

#: The RFC 6962 poison every precertificate carries.
_POISON = Extension(POISON_EXTENSION_OID, critical=True)


class IssuanceBug(Enum):
    """Pipeline defects reproducing the Section 3.4 incidents."""

    NONE = "none"
    SCT_REUSE = "teliasonera-sct-reuse"
    SAN_REORDER = "globalsign-san-reorder"
    EXTENSION_REORDER = "dtrust-extension-reorder"
    SAN_SWAP = "netlock-san-swap"


@dataclass(frozen=True)
class IssuanceRequest:
    """What a subscriber asks the CA for."""

    dns_names: Tuple[str, ...]
    ip_addresses: Tuple[str, ...] = ()
    lifetime_days: int = 90
    embed_scts: bool = True


@dataclass(frozen=True)
class IssuedPair:
    """Result of one issuance: the precertificate, its SCTs, the final cert."""

    precertificate: Optional[Certificate]
    final_certificate: Certificate
    scts: Tuple[SignedCertificateTimestamp, ...]
    log_names: Tuple[str, ...]


ValidationHook = Callable[[Sequence[str], datetime], None]


@dataclass
class CertificateAuthority:
    """A CA with a signing key and an (optionally buggy) CT pipeline.

    Parameters
    ----------
    name:
        The brand the paper aggregates by ("Let's Encrypt", "DigiCert"...).
    issuer_cns:
        The paper notes each brand subsumes various Issuer-CNs; one is
        picked round-robin per issuance.
    validation_hook:
        Called with the requested names *before* CT logging — this is
        the domain-validation DNS traffic the honeypot analysis must
        filter out (Section 6.1).
    log_final_certificates:
        Let's Encrypt behaviour after the Section 3.4 disclosure: also
        submit the final certificate to logs.
    """

    name: str
    issuer_cns: Tuple[str, ...] = ()
    key: crypto.KeyPair = None  # type: ignore[assignment]
    validation_hook: Optional[ValidationHook] = None
    log_final_certificates: bool = False
    key_bits: int = 512

    _serial: int = 0
    _issued: int = 0
    _recent_scts: Dict[str, Tuple[SignedCertificateTimestamp, ...]] = field(
        default_factory=dict
    )
    #: The base extensions, constant per CA: built once, shared by
    #: every certificate it issues.
    _base_extensions: Tuple[Extension, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.key is None:
            self.key = crypto.KeyPair.generate(f"ca:{self.name}", self.key_bits)
        if not self.issuer_cns:
            self.issuer_cns = (f"{self.name} CA",)
        self._base_extensions = tuple(
            Extension(oid, value=crypto.sha256(f"{oid}:{self.name}".encode())[:8])
            for oid in BASE_EXTENSION_OIDS
        )

    @property
    def issuer_key_hash(self) -> bytes:
        """SHA-256 of the CA public key (the PreCert struct field)."""
        return crypto.sha256(self.key.public_bytes())

    def next_serial(self) -> int:
        self._serial += 1
        return self._serial

    # -- issuance -----------------------------------------------------------

    def issue(
        self,
        request: IssuanceRequest,
        logs: Sequence[CTLog],
        now: datetime,
        *,
        bug: IssuanceBug = IssuanceBug.NONE,
    ) -> IssuedPair:
        """Run the full issuance pipeline for one certificate."""
        if not request.dns_names:
            raise ValueError("a certificate needs at least one DNS name")
        if self.validation_hook is not None:
            self.validation_hook(request.dns_names, now)

        issuer_cn = self.issuer_cns[self._issued % len(self.issuer_cns)]
        self._issued += 1
        base = self._build_tbs(request, issuer_cn, now)

        if not request.embed_scts or not logs:
            final = self._sign(base)
            return IssuedPair(None, final, (), ())

        precert = base.with_extensions(base.extensions + (_POISON,))
        precert = self._sign(precert)
        scts = tuple(
            log.add_pre_chain(precert, self.issuer_key_hash, now) for log in logs
        )
        log_names = tuple(log.name for log in logs)

        embed_scts = scts
        if bug is IssuanceBug.SCT_REUSE:
            # Re-issuance that copies the *previous* certificate's SCTs.
            previous = self._recent_scts.get(request.dns_names[0])
            if previous:
                embed_scts = previous
        self._recent_scts[request.dns_names[0]] = scts

        final_tbs = self._apply_final_assembly_bug(base, bug)
        final = final_tbs.with_extensions(
            list(final_tbs.extensions)
            + [Extension(SCT_LIST_EXTENSION_OID, encode_sct_list(list(embed_scts)))]
        )
        final = self._sign(final)

        if self.log_final_certificates:
            for log in logs:
                log.add_chain(final, now)
        return IssuedPair(precert, final, scts, log_names)

    def _build_tbs(
        self, request: IssuanceRequest, issuer_cn: str, now: datetime
    ) -> Certificate:
        san: List[GeneralName] = [
            GeneralName(SanType.DNS, name) for name in request.dns_names
        ] + [GeneralName(SanType.IP, ip) for ip in request.ip_addresses]
        return Certificate(
            serial=self.next_serial(),
            issuer_cn=issuer_cn,
            issuer_org=self.name,
            subject_cn=request.dns_names[0],
            san=tuple(san),
            not_before=now,
            not_after=now + timedelta(days=request.lifetime_days),
            public_key_id=crypto.sha256(
                f"subscriber:{self.name}:{self._serial}".encode()
            )[:8],
            extensions=self._base_extensions,
        )

    def _apply_final_assembly_bug(
        self, base: Certificate, bug: IssuanceBug
    ) -> Certificate:
        """Re-create the documented precert/final divergences."""
        if bug is IssuanceBug.SAN_REORDER:
            # GlobalSign: DNS and IP entries swapped groups in the final cert.
            ips = [e for e in base.san if e.san_type is SanType.IP]
            dns = [e for e in base.san if e.san_type is SanType.DNS]
            return base.with_san(ips + dns)
        if bug is IssuanceBug.EXTENSION_REORDER:
            # D-Trust: X.509 extension ordering differed in the final cert.
            return base.with_extensions(tuple(reversed(base.extensions)))
        if bug is IssuanceBug.SAN_SWAP:
            # NetLock: final cert had entirely different SANs and issuer.
            from dataclasses import replace

            swapped = base.with_san(
                [GeneralName(SanType.DNS, "unrelated." + base.subject_cn)]
            )
            return replace(swapped, issuer_cn=swapped.issuer_cn + " G2")
        return base

    def _sign(self, cert: Certificate) -> Certificate:
        from dataclasses import replace

        signature = crypto.sign(self.key, cert.tbs_bytes())
        return replace(cert, signature=signature)
