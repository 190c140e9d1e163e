"""NXDOMAIN hijack policies and the landing pages they serve.

A hijack policy rewrites an NXDOMAIN answer into an A record pointing at a
web server that serves a "search assistance" / advertising page.  The page
HTML embeds links to the operator's domain — e.g. TMnet's pages link to
``http://midascdn.nervesis.com`` and Deutsche Telekom's to
``http://navigationshilfe.t-online.de`` — and those embedded URLs are what
the paper's attribution step extracts to identify the party responsible
(§4.3.3, Table 5).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.dnssim.message import DnsResponse
from repro.records import slot_init

_URL_PATTERN = re.compile(r"https?://([A-Za-z0-9.-]+)")


@slot_init
@dataclass(frozen=True, slots=True)
class HijackPolicy:
    """Describes one NXDOMAIN hijacker.

    ``operator`` is a human-readable name, ``landing_domain`` the domain that
    appears in the served page's links (the Table 5 fingerprint),
    ``redirect_ip`` the web server victims are sent to, and ``js_family`` an
    optional marker for the shared JavaScript package several ISPs deploy
    (the paper found five ISPs with nearly identical hijack-page code).
    """

    operator: str
    landing_domain: str
    redirect_ip: int
    js_family: str = ""

    def apply(self, response: DnsResponse) -> DnsResponse:
        """Rewrite an NXDOMAIN answer; other responses pass through untouched."""
        if response.is_nxdomain:
            return DnsResponse.answer(self.redirect_ip)
        return response


def render_hijack_page(policy: HijackPolicy, queried_name: str) -> bytes:
    """The landing page a hijack victim receives for a mistyped domain.

    The structure mirrors what the paper observed: a search-help skeleton
    with sponsored links pointing at the operator's assistance domain, and —
    for the ISPs sharing a common vendor package — an identifiable block of
    redirect JavaScript.
    """
    script = ""
    if policy.js_family:
        script = (
            '<script type="text/javascript">\n'
            f'/* {policy.js_family} */\n'
            f'var searchTarget = "http://{policy.landing_domain}/sp?q=" +\n'
            '    encodeURIComponent(window.location.hostname);\n'
            "window.location.replace(searchTarget);\n"
            "</script>\n"
        )
    html = (
        "<!DOCTYPE html>\n"
        "<html><head>\n"
        f"<title>Search assistance for {queried_name}</title>\n"
        f"{script}"
        "</head><body>\n"
        f"<h1>We could not find {queried_name}</h1>\n"
        "<p>You may be interested in these sponsored results:</p>\n"
        f'<a href="http://{policy.landing_domain}/search?q={queried_name}">'
        f"Search {policy.landing_domain}</a>\n"
        f'<a href="http://{policy.landing_domain}/ads?src=nxd">More results</a>\n'
        "</body></html>\n"
    )
    return html.encode("ascii")


def extract_link_domains(page: bytes) -> list[str]:
    """Domains of every ``http(s)://`` URL embedded in a page, deduplicated.

    This is the attribution primitive of §4.3.3: given a hijack landing page,
    pull out the linked domains so they can be clustered by the ASes of the
    nodes that received them.
    """
    text = page.decode("ascii", errors="replace")
    seen: dict[str, None] = {}
    for match in _URL_PATTERN.finditer(text):
        seen.setdefault(match.group(1).lower())
    return list(seen)
