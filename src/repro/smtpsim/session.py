"""SMTP server model: banner, EHLO capabilities, STARTTLS upgrade.

Only the slice of RFC 5321/3207 the measurement needs is modelled: the
greeting banner, the EHLO capability list, and the STARTTLS upgrade (which,
when accepted, yields the server's TLS certificate chain — giving the
methodology the same replacement detector as §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.records import slot_init
from repro.tlssim.certs import CertificateChain

#: The capability token whose in-flight removal is the attack under study.
STARTTLS_CAPABILITY = "STARTTLS"

DEFAULT_CAPABILITIES = ("PIPELINING", "SIZE 35882577", "8BITMIME", STARTTLS_CAPABILITY)


@slot_init
@dataclass(frozen=True, slots=True)
class SmtpDialogue:
    """What one client observed when speaking to (what it thinks is) a server."""

    banner: str
    capabilities: tuple[str, ...]
    starttls_attempted: bool
    starttls_accepted: bool
    tls_chain: Optional[CertificateChain] = None

    @property
    def starttls_offered(self) -> bool:
        """Whether STARTTLS appeared in the EHLO capability list."""
        return STARTTLS_CAPABILITY in self.capabilities


@dataclass
class SmtpServer:
    """A mail server reachable on port 25 in the simulated Internet.

    ``tls_chain`` is presented after an accepted STARTTLS; servers without
    one genuinely do not offer the capability (a baseline the analysis must
    distinguish from stripping — hence the experiment uses *our own* server,
    whose capabilities are ground truth).
    """

    ip: int
    hostname: str
    tls_chain: Optional[CertificateChain] = None
    extra_capabilities: tuple[str, ...] = ()
    #: Greeting counter, handy for tests.
    sessions_served: int = field(default=0)

    @property
    def banner(self) -> str:
        """The 220 greeting line."""
        return f"220 {self.hostname} ESMTP ready"

    def capabilities(self) -> tuple[str, ...]:
        """The EHLO response capability tokens."""
        tokens = [cap for cap in DEFAULT_CAPABILITIES if cap != STARTTLS_CAPABILITY]
        tokens.extend(self.extra_capabilities)
        if self.tls_chain is not None:
            tokens.append(STARTTLS_CAPABILITY)
        return tuple(tokens)

    def handle_dialogue(self, try_starttls: bool) -> SmtpDialogue:
        """Serve one probe session (EHLO, then optionally STARTTLS)."""
        self.sessions_served += 1
        capabilities = self.capabilities()
        attempted = try_starttls and STARTTLS_CAPABILITY in capabilities
        accepted = attempted and self.tls_chain is not None
        return SmtpDialogue(
            banner=self.banner,
            capabilities=capabilities,
            starttls_attempted=attempted,
            starttls_accepted=accepted,
            tls_chain=self.tls_chain if accepted else None,
        )
