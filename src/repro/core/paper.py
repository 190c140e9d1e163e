"""The paper's published numbers, as data.

Benchmarks print paper-vs-measured comparisons; this module is the single
source for the "paper" side.  Counts are from the IMC 2016 camera-ready.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.records import slot_init

# -- headline numbers ---------------------------------------------------------

TOTAL_NODES = 1_276_873
TOTAL_ASES = 14_772
TOTAL_COUNTRIES = 172

DNS_NODES = 753_111
DNS_ASES = 10_197
DNS_COUNTRIES = 167
DNS_UNIQUE_SERVERS = 33_446
DNS_HIJACKED_FRACTION = 0.048
DNS_ATTRIBUTION = {"isp": 0.896, "public": 0.077, "other": 0.027}
DNS_GOOGLE_HIJACKED_NODES = 927

HTTP_NODES = 49_545
HTTP_ASES = 12_658
HTTP_COUNTRIES = 171
HTTP_HTML_MODIFIED_FRACTION = 0.0095
HTTP_IMAGE_MODIFIED_FRACTION = 0.014
HTTP_JS_MODIFIED_FRACTION = 0.0009
HTTP_HTML_BLOCK_PAGES = 32

HTTPS_NODES = 807_910
HTTPS_ASES = 10_007
HTTPS_COUNTRIES = 115
HTTPS_REPLACED_NODES = 4_540
HTTPS_UNIQUE_ISSUERS = 320
HTTPS_TOP13_COVERAGE = 0.936

MONITORING_NODES = 747_449
MONITORING_ASES = 11_638
MONITORING_COUNTRIES = 167
MONITORED_FRACTION = 0.015
MONITORING_SOURCE_IPS = 424
MONITORING_AS_GROUPS = 54

# -- Table 1: platform comparison -----------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class PlatformRow:
    """One Table 1 row."""

    project: str
    nodes: int
    ases: int
    countries: int
    period: str
    icmp: bool
    dns: bool
    http: bool
    https: bool


TABLE1_OTHER_PLATFORMS: tuple[PlatformRow, ...] = (
    PlatformRow("Netalyzr", 1_217_181, 14_375, 196, "6 years", True, True, True, True),
    PlatformRow("BISmark", 406, 118, 34, "2 years", True, True, True, True),
    PlatformRow("Dasu", 100_104, 1_802, 147, "6 years", True, True, True, True),
    PlatformRow("RIPE Atlas", 9_300, 3_333, 181, "6 years", True, True, True, True),
)

TABLE1_OUR_ROW = PlatformRow(
    "Our approach", TOTAL_NODES, TOTAL_ASES, TOTAL_COUNTRIES, "5 days",
    False, True, True, True,
)

# -- Table 3: top-10 countries by hijack ratio -------------------------------------

#: (country code, hijacked, total)
TABLE3: tuple[tuple[str, int, int], ...] = (
    ("MY", 3_652, 6_983),
    ("ID", 3_178, 8_568),
    ("CN", 237, 671),
    ("GB", 9_553, 37_156),
    ("DE", 4_703, 19_076),
    ("US", 6_108, 33_398),
    ("IN", 1_127, 6_868),
    ("BR", 3_190, 24_298),
    ("BJ", 90, 716),
    ("JO", 76, 1_117),
)

# -- Table 4: hijacking ISP resolvers ------------------------------------------------

#: (country code, ISP, DNS servers, exit nodes)
TABLE4: tuple[tuple[str, str, int, int], ...] = (
    ("AR", "Telefonica de Argentina", 14, 276),
    ("AU", "Dodo Australia", 21, 1_404),
    ("BR", "Oi Fixo", 21, 2_558),
    ("BR", "CTBC", 4, 290),
    ("DE", "Deutsche Telekom AG", 8, 1_385),
    ("IN", "Airtel Broadband", 9, 735),
    ("IN", "BSNL", 2, 71),
    ("IN", "National Internet Backbone", 8, 245),
    ("MY", "TMnet", 8, 1_676),
    ("ES", "ONO", 2, 71),
    ("GB", "BT Internet", 6, 479),
    ("GB", "TalkTalk", 46, 3_738),
    ("US", "AT&T", 37, 561),
    ("US", "Cable One", 4, 108),
    ("US", "Cox Communications", 63, 1_789),
    ("US", "Mediacom Cable", 6, 219),
    ("US", "Suddenlink", 9, 98),
    ("US", "Verizon", 98, 2_102),
    ("US", "WideOpenWest", 1, 39),
)

# -- Table 5: landing domains for Google-DNS victims -----------------------------------

#: (domain, nodes, ases, category)
TABLE5: tuple[tuple[str, int, int, str], ...] = (
    ("navigationshilfe.t-online.de", 80, 1, "isp"),
    ("www.webaddresshelp.bt.com", 73, 1, "isp"),
    ("v3.mercusuar.uzone.id", 53, 1, "isp"),
    ("error.talktalk.co.uk", 46, 3, "isp"),
    ("dnserros.oi.com.br", 40, 2, "isp"),
    ("dnserrorassist.att.net", 32, 1, "isp"),
    ("searchassist.verizon.com", 30, 1, "isp"),
    ("finder.cox.net", 17, 1, "isp"),
    ("ayudaenlabusqueda.telefonica.com.ar", 16, 1, "isp"),
    ("google.dodo.com.au", 13, 1, "isp"),
    ("airtelforum.com", 14, 1, "isp"),
    ("nodomain.ctbc.com.br", 7, 1, "isp"),
    ("search.mediacomcable.com", 7, 1, "isp"),
    ("midascdn.nervesis.com", 68, 1, "isp"),
    ("nortonsafe.search.ask.com", 25, 18, "software"),
    ("securedns.comodo.com", 9, 9, "software"),
)

# -- Table 6: injected-JavaScript markers -----------------------------------------------

#: (marker, nodes, countries, ases)
TABLE6: tuple[tuple[str, int, int, int], ...] = (
    ("NetsparkQuiltingResult", 21, 1, 1),
    ("d36mw5gp02ykm5.cloudfront.net", 201, 44, 99),
    ("msmdzbsyrw.org", 97, 4, 76),
    ("pgjs.me", 16, 1, 12),
    ("jswrite.com/script1.js", 15, 9, 10),
    ("var oiasudoj;", 11, 1, 11),
    ("AdTaily_Widget_Container", 11, 8, 9),
)

# -- Table 7: image compression by mobile AS ----------------------------------------------

#: (asn, ISP, country, modified, total, ratio%, compression ratios)
TABLE7: tuple[tuple[int, str, str, int, int, float, tuple[float, ...]], ...] = (
    (15617, "Wind Hellas", "GR", 10, 10, 1.00, (0.53,)),
    (29180, "Telefonica UK", "GB", 17, 17, 1.00, (0.47,)),
    (29975, "Vodacom", "ZA", 83, 88, 0.94, (0.47, 0.62)),
    (25135, "Vodafone UK", "GB", 15, 18, 0.83, (0.54,)),
    (36935, "Vodafone Egypt", "EG", 62, 81, 0.77, (0.41, 0.55)),
    (36925, "Meditelecom", "MA", 87, 128, 0.68, (0.34,)),
    (16135, "Turkcell", "TR", 44, 65, 0.68, (0.54,)),
    (15897, "Vodafone Turkey", "TR", 14, 25, 0.56, (0.53,)),
    (12361, "Vodafone Greece", "GR", 11, 23, 0.48, (0.52,)),
    (37492, "Orange Tunisie", "TN", 97, 331, 0.29, (0.34,)),
    (132199, "Globe Telecom", "PH", 197, 1_374, 0.14, (0.51,)),
    (12844, "Bouygues Telecom", "FR", 34, 615, 0.06, (0.53,)),
)

# -- Table 8: certificate-replacement issuers ----------------------------------------------

#: (issuer group, exit nodes, type)
TABLE8: tuple[tuple[str, int, str], ...] = (
    ("Avast", 3_283, "Anti-Virus/Security"),
    ("AVG Technology", 247, "Anti-Virus/Security"),
    ("BitDefender", 241, "Anti-Virus/Security"),
    ("Eset SSL Filter", 217, "Anti-Virus/Security"),
    ("Kaspersky", 68, "Anti-Virus/Security"),
    ("OpenDNS", 64, "Content filter"),
    ("Cyberoam SSL", 35, "Anti-Virus/Security"),
    ("Sample CA 2", 29, "N/A"),
    ("Fortigate", 17, "Anti-Virus/Security"),
    ("Empty", 14, "N/A"),
    ("Cloudguard.me", 14, "Malware"),
    ("Dr. Web", 13, "Anti-Virus/Security"),
    ("McAfee", 6, "Anti-Virus/Security"),
)

# -- Table 9: content-monitoring entities -----------------------------------------------------

#: (entity, source IPs, exit nodes, ases, countries)
TABLE9: tuple[tuple[str, int, int, int, int], ...] = (
    ("Trend Micro", 55, 6_571, 734, 13),
    ("TalkTalk", 6, 2_233, 5, 1),
    ("Commtouch", 20, 1_154, 371, 79),
    ("AnchorFree", 223, 461, 225, 98),
    ("Bluecoat", 12, 453, 162, 64),
    ("Tiscali U.K.", 2, 363, 6, 1),
)

#: Mapping from the simulated world's organization names to Table 9 names.
MONITOR_ORG_TO_ENTITY = {
    "Trend Micro Inc.": "Trend Micro",
    "TalkTalk": "TalkTalk",
    "CYREN Ltd. (Commtouch)": "Commtouch",
    "AnchorFree Inc.": "AnchorFree",
    "Blue Coat Systems": "Bluecoat",
    "Tiscali U.K.": "Tiscali U.K.",
}

# -- Figure 5: qualitative delay-CDF properties -------------------------------------------------

#: entity -> (median delay seconds lower/upper bound, notes)
FIGURE5_PROPERTIES = {
    "Trend Micro": "two requests; first 12-120 s, second 200-12,500 s (CDF step at 0.5)",
    "TalkTalk": "first request at ~30 s, second within the hour",
    "Commtouch": "single request, 1-10 minutes",
    "AnchorFree": "two requests, 99% within 1 s",
    "Bluecoat": "83% of first requests arrive BEFORE the node's (CDF starts ~0.41)",
    "Tiscali U.K.": "single request at almost exactly 30 s",
}
