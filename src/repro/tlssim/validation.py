"""Chain validation — the structural analogue of ``openssl verify``.

§6.1: "we check for certificate replacement by validating the certificate
chain" (popular/international sites) and by exact match (the authors' own
invalid sites).  Validation here checks everything the real tool would that
our structural certificates can express:

* signature linkage: each certificate is signed by the next one's key;
* issuer-name chaining: each certificate's issuer CN equals its issuer's
  subject CN;
* CA constraints: every issuing certificate carries the CA flag;
* validity windows at the evaluation time;
* hostname match on the leaf (with wildcard support);
* trust: the chain must terminate in (a certificate signed by) a root-store
  member.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.records import slot_init
from repro.tlssim.certs import CertificateChain
from repro.tlssim.rootstore import RootStore


class ValidationError(enum.Enum):
    """Reasons a chain can fail validation."""

    EXPIRED = "certificate outside validity window"
    HOSTNAME_MISMATCH = "leaf does not match hostname"
    BAD_SIGNATURE = "signature does not chain to issuer key"
    BAD_ISSUER_NAME = "issuer name does not match issuing certificate"
    NOT_A_CA = "issuing certificate lacks CA flag"
    UNTRUSTED_ROOT = "chain does not terminate in a trusted root"
    SELF_SIGNED = "leaf is self-signed and untrusted"


@slot_init
@dataclass(frozen=True, slots=True)
class ValidationResult:
    """Outcome of validating one chain: overall verdict plus every failure found."""

    valid: bool
    errors: tuple[ValidationError, ...] = ()

    def has(self, error: ValidationError) -> bool:
        """Whether a specific failure reason was recorded."""
        return error in self.errors


def validate_chain(
    chain: CertificateChain,
    hostname: str,
    root_store: RootStore,
    now: float,
) -> ValidationResult:
    """Validate a presented chain for ``hostname`` at time ``now``.

    All applicable checks run (rather than stopping at the first failure) so
    the analysis can distinguish, e.g., an expired-but-otherwise-valid chain
    from an untrusted spoof.
    """
    errors: list[ValidationError] = []
    leaf = chain.leaf

    if not leaf.matches_hostname(hostname):
        errors.append(ValidationError.HOSTNAME_MISMATCH)

    for cert in chain:
        if not cert.valid_at(now):
            errors.append(ValidationError.EXPIRED)
            break

    # Pairwise linkage along the presented chain.
    for child, issuer in zip(chain.certificates, chain.certificates[1:]):
        if child.signer_key_id != issuer.public_key_id:
            errors.append(ValidationError.BAD_SIGNATURE)
        if child.issuer_cn != issuer.subject_cn:
            errors.append(ValidationError.BAD_ISSUER_NAME)
        if not issuer.is_ca:
            errors.append(ValidationError.NOT_A_CA)

    # Trust anchoring: the last presented certificate must either be a trusted
    # root itself, or be signed directly by a trusted root's key.
    last = chain.root
    anchored = root_store.trusts(last) or root_store.trusts_key(last.signer_key_id)
    if not anchored:
        if len(chain) == 1 and leaf.is_self_signed:
            errors.append(ValidationError.SELF_SIGNED)
        else:
            errors.append(ValidationError.UNTRUSTED_ROOT)

    # Deduplicate while preserving first-seen order.
    unique: list[ValidationError] = []
    for error in errors:
        if error not in unique:
            unique.append(error)
    return ValidationResult(valid=not unique, errors=tuple(unique))
