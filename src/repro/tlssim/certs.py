"""Structural certificates and certificate authorities.

A :class:`Certificate` carries the fields the paper's §6 analysis reads:
subject/issuer common names, issuer organization and country (the paper notes
AV products share "other attributes in the Issuer field such as name,
organization, and country" across their spoofed certificates), a validity
window, the subject's public-key identifier, and a structural signature — the
identifier of the key that signed it.  Chain validation (see
:mod:`repro.tlssim.validation`) checks that each certificate's signature key
matches its issuer's public key, which is the honest structural analogue of
verifying an RSA/ECDSA signature.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from repro.records import slot_init

# Serial source for *standalone* self-signed certificates only: process-wide,
# so separately minted certs never collide.  CAs must NOT use it — they keep
# per-instance counters, making every certificate a CA issues a deterministic
# function of the CA's own issuance history.  That property lets the engine
# rebuild a world in any process and obtain byte-identical certificates
# (serials and derived key ids included).
_serial_counter = itertools.count(1)


@slot_init
@dataclass(frozen=True, slots=True)
class KeyPair:
    """An opaque key identity.  Equality of ``key_id`` models "same public key"."""

    key_id: str

    @classmethod
    def generate(cls, seed: str) -> "KeyPair":
        """Derive a key deterministically from a seed string."""
        return cls(key_id=hashlib.sha256(f"key:{seed}".encode("ascii")).hexdigest()[:24])


@slot_init
@dataclass(frozen=True, slots=True)
class Certificate:
    """One certificate in a chain.

    ``signer_key_id`` records which key produced the signature; a self-signed
    certificate signs with its own key.  ``is_ca`` mirrors the basicConstraints
    CA flag — only CA certificates may appear as issuers in a valid chain.
    """

    subject_cn: str
    issuer_cn: str
    public_key_id: str
    signer_key_id: str
    not_before: float
    not_after: float
    serial: int
    is_ca: bool = False
    issuer_org: str = ""
    issuer_country: str = ""

    @property
    def is_self_signed(self) -> bool:
        """Whether the certificate is signed by its own key."""
        return self.signer_key_id == self.public_key_id

    def matches_hostname(self, hostname: str) -> bool:
        """Common-Name hostname check, with single-label wildcard support."""
        pattern = self.subject_cn.lower()
        name = hostname.rstrip(".").lower()
        if pattern == name:
            return True
        if pattern.startswith("*."):
            suffix = pattern[1:]  # ".example.com"
            if name.endswith(suffix):
                prefix = name[: -len(suffix)]
                return bool(prefix) and "." not in prefix
        return False

    def valid_at(self, now: float) -> bool:
        """Whether ``now`` falls inside the validity window."""
        return self.not_before <= now <= self.not_after

    def fingerprint(self) -> str:
        """A stable fingerprint over all identity fields (exact-match checks)."""
        material = "|".join(
            (
                self.subject_cn,
                self.issuer_cn,
                self.public_key_id,
                self.signer_key_id,
                f"{self.not_before}",
                f"{self.not_after}",
                f"{self.serial}",
                f"{self.is_ca}",
            )
        )
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:32]


@slot_init
@dataclass(frozen=True, slots=True)
class CertificateChain:
    """A leaf-first certificate chain as presented in a TLS handshake."""

    certificates: tuple[Certificate, ...]

    def __post_init__(self) -> None:
        if not self.certificates:
            raise ValueError("a chain must contain at least a leaf certificate")

    def __iter__(self) -> Iterator[Certificate]:
        return iter(self.certificates)

    def __len__(self) -> int:
        return len(self.certificates)

    @property
    def leaf(self) -> Certificate:
        """The end-entity certificate."""
        return self.certificates[0]

    @property
    def root(self) -> Certificate:
        """The last certificate in the presented chain."""
        return self.certificates[-1]

    def fingerprint(self) -> str:
        """Fingerprint over the whole chain (order-sensitive)."""
        material = ":".join(cert.fingerprint() for cert in self.certificates)
        return hashlib.sha256(material.encode("ascii")).hexdigest()[:32]

    def replace_leaf(self, leaf: Certificate) -> "CertificateChain":
        """A copy of the chain with a different leaf (MITM construction helper)."""
        return CertificateChain((leaf,) + self.certificates[1:])


class CertificateAuthority:
    """A CA that can issue leaf and intermediate certificates.

    The ``issuer_org``/``issuer_country`` fields propagate into issued
    certificates' Issuer attributes, which the §6 analysis inspects.
    """

    #: Ten years, in simulated seconds.
    DEFAULT_LIFETIME = 10 * 365 * 86_400.0

    def __init__(
        self,
        common_name: str,
        org: str = "",
        country: str = "",
        key: Optional[KeyPair] = None,
        parent: Optional["CertificateAuthority"] = None,
    ) -> None:
        self.common_name = common_name
        self.org = org or common_name
        self.country = country
        self.key = key if key is not None else KeyPair.generate(common_name)
        self.parent = parent
        # Per-CA issuance counter: serials depend only on this CA's own
        # history, never on how many other certificates the process minted.
        self._serials = itertools.count(1)
        signer = parent.key if parent is not None else self.key
        issuer_cn = parent.common_name if parent is not None else common_name
        self.certificate = Certificate(
            subject_cn=common_name,
            issuer_cn=issuer_cn,
            public_key_id=self.key.key_id,
            signer_key_id=signer.key_id,
            not_before=0.0,
            not_after=self.DEFAULT_LIFETIME,
            serial=next(self._serials),
            is_ca=True,
            issuer_org=(parent.org if parent is not None else self.org),
            issuer_country=(parent.country if parent is not None else country),
        )

    def issue(
        self,
        subject_cn: str,
        not_before: float = 0.0,
        not_after: Optional[float] = None,
        subject_key: Optional[KeyPair] = None,
        is_ca: bool = False,
    ) -> Certificate:
        """Issue a certificate signed by this CA's key."""
        serial = next(self._serials)
        key = subject_key if subject_key is not None else KeyPair.generate(
            f"{self.common_name}/{subject_cn}/{serial}"
        )
        return Certificate(
            subject_cn=subject_cn,
            issuer_cn=self.common_name,
            public_key_id=key.key_id,
            signer_key_id=self.key.key_id,
            not_before=not_before,
            not_after=not_after if not_after is not None else self.DEFAULT_LIFETIME,
            serial=serial,
            is_ca=is_ca,
            issuer_org=self.org,
            issuer_country=self.country,
        )

    def chain_for(self, leaf: Certificate) -> CertificateChain:
        """The full presented chain for a leaf this CA issued: leaf → ... → root."""
        certs: list[Certificate] = [leaf]
        authority: Optional[CertificateAuthority] = self
        while authority is not None:
            certs.append(authority.certificate)
            authority = authority.parent
        return CertificateChain(tuple(certs))


def self_signed_certificate(
    subject_cn: str,
    not_before: float = 0.0,
    not_after: float = CertificateAuthority.DEFAULT_LIFETIME,
    seed: Optional[str] = None,
    serial: Optional[int] = None,
) -> Certificate:
    """A standalone self-signed certificate (the paper's invalid test site #1).

    Without ``serial`` the certificate takes the next process-wide serial;
    a caller that must mint the same bytes in every process (the world
    builder) passes one from its own counter.
    """
    key = KeyPair.generate(seed if seed is not None else f"self:{subject_cn}")
    return Certificate(
        subject_cn=subject_cn,
        issuer_cn=subject_cn,
        public_key_id=key.key_id,
        signer_key_id=key.key_id,
        not_before=not_before,
        not_after=not_after,
        serial=serial if serial is not None else next(_serial_counter),
        is_ca=False,
        issuer_org=subject_cn,
    )


def with_validity(cert: Certificate, not_before: float, not_after: float) -> Certificate:
    """A copy of a certificate with a different validity window (expired test site)."""
    return replace(cert, not_before=not_before, not_after=not_after)
