"""ISO country registry.

The paper reports results at the country level ("172 countries"), where the
country of a node is the registration country of its AS's organization (per
CAIDA's AS-to-organization dataset).  This module provides the country
universe those statistics draw from: ISO 3166-1 alpha-2 codes, display names,
and a coarse region tag used by the world generator when spreading the
long tail of exit nodes across the globe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.records import slot_init

# (code, name, region) — a superset of the countries named in the paper plus a
# realistic long tail, enough to populate the paper's "172 countries" universe.
_COUNTRY_TABLE: tuple[tuple[str, str, str], ...] = (
    ("US", "United States", "americas"),
    ("GB", "United Kingdom", "europe"),
    ("DE", "Germany", "europe"),
    ("BR", "Brazil", "americas"),
    ("MY", "Malaysia", "asia"),
    ("ID", "Indonesia", "asia"),
    ("CN", "China", "asia"),
    ("IN", "India", "asia"),
    ("BJ", "Benin", "africa"),
    ("JO", "Jordan", "middle-east"),
    ("AR", "Argentina", "americas"),
    ("AU", "Australia", "oceania"),
    ("ES", "Spain", "europe"),
    ("GR", "Greece", "europe"),
    ("ZA", "South Africa", "africa"),
    ("EG", "Egypt", "africa"),
    ("MA", "Morocco", "africa"),
    ("TR", "Turkey", "middle-east"),
    ("TN", "Tunisia", "africa"),
    ("PH", "Philippines", "asia"),
    ("FR", "France", "europe"),
    ("RU", "Russia", "europe"),
    ("IT", "Italy", "europe"),
    ("NL", "Netherlands", "europe"),
    ("PL", "Poland", "europe"),
    ("CA", "Canada", "americas"),
    ("MX", "Mexico", "americas"),
    ("JP", "Japan", "asia"),
    ("KR", "South Korea", "asia"),
    ("TW", "Taiwan", "asia"),
    ("TH", "Thailand", "asia"),
    ("VN", "Vietnam", "asia"),
    ("SG", "Singapore", "asia"),
    ("HK", "Hong Kong", "asia"),
    ("PK", "Pakistan", "asia"),
    ("BD", "Bangladesh", "asia"),
    ("LK", "Sri Lanka", "asia"),
    ("NP", "Nepal", "asia"),
    ("MM", "Myanmar", "asia"),
    ("KH", "Cambodia", "asia"),
    ("LA", "Laos", "asia"),
    ("MN", "Mongolia", "asia"),
    ("KZ", "Kazakhstan", "asia"),
    ("UZ", "Uzbekistan", "asia"),
    ("UA", "Ukraine", "europe"),
    ("BY", "Belarus", "europe"),
    ("MD", "Moldova", "europe"),
    ("RO", "Romania", "europe"),
    ("BG", "Bulgaria", "europe"),
    ("HU", "Hungary", "europe"),
    ("CZ", "Czechia", "europe"),
    ("SK", "Slovakia", "europe"),
    ("AT", "Austria", "europe"),
    ("CH", "Switzerland", "europe"),
    ("BE", "Belgium", "europe"),
    ("LU", "Luxembourg", "europe"),
    ("IE", "Ireland", "europe"),
    ("PT", "Portugal", "europe"),
    ("DK", "Denmark", "europe"),
    ("NO", "Norway", "europe"),
    ("SE", "Sweden", "europe"),
    ("FI", "Finland", "europe"),
    ("IS", "Iceland", "europe"),
    ("EE", "Estonia", "europe"),
    ("LV", "Latvia", "europe"),
    ("LT", "Lithuania", "europe"),
    ("HR", "Croatia", "europe"),
    ("SI", "Slovenia", "europe"),
    ("RS", "Serbia", "europe"),
    ("BA", "Bosnia and Herzegovina", "europe"),
    ("MK", "North Macedonia", "europe"),
    ("AL", "Albania", "europe"),
    ("ME", "Montenegro", "europe"),
    ("XK", "Kosovo", "europe"),
    ("CY", "Cyprus", "europe"),
    ("MT", "Malta", "europe"),
    ("GE", "Georgia", "asia"),
    ("AM", "Armenia", "asia"),
    ("AZ", "Azerbaijan", "asia"),
    ("IL", "Israel", "middle-east"),
    ("PS", "Palestine", "middle-east"),
    ("LB", "Lebanon", "middle-east"),
    ("SY", "Syria", "middle-east"),
    ("IQ", "Iraq", "middle-east"),
    ("IR", "Iran", "middle-east"),
    ("SA", "Saudi Arabia", "middle-east"),
    ("AE", "United Arab Emirates", "middle-east"),
    ("QA", "Qatar", "middle-east"),
    ("KW", "Kuwait", "middle-east"),
    ("BH", "Bahrain", "middle-east"),
    ("OM", "Oman", "middle-east"),
    ("YE", "Yemen", "middle-east"),
    ("AF", "Afghanistan", "asia"),
    ("TJ", "Tajikistan", "asia"),
    ("KG", "Kyrgyzstan", "asia"),
    ("TM", "Turkmenistan", "asia"),
    ("DZ", "Algeria", "africa"),
    ("LY", "Libya", "africa"),
    ("SD", "Sudan", "africa"),
    ("ET", "Ethiopia", "africa"),
    ("KE", "Kenya", "africa"),
    ("UG", "Uganda", "africa"),
    ("TZ", "Tanzania", "africa"),
    ("RW", "Rwanda", "africa"),
    ("NG", "Nigeria", "africa"),
    ("GH", "Ghana", "africa"),
    ("CI", "Ivory Coast", "africa"),
    ("SN", "Senegal", "africa"),
    ("ML", "Mali", "africa"),
    ("BF", "Burkina Faso", "africa"),
    ("NE", "Niger", "africa"),
    ("TD", "Chad", "africa"),
    ("CM", "Cameroon", "africa"),
    ("GA", "Gabon", "africa"),
    ("CG", "Congo", "africa"),
    ("CD", "DR Congo", "africa"),
    ("AO", "Angola", "africa"),
    ("ZM", "Zambia", "africa"),
    ("ZW", "Zimbabwe", "africa"),
    ("MZ", "Mozambique", "africa"),
    ("MW", "Malawi", "africa"),
    ("BW", "Botswana", "africa"),
    ("NA", "Namibia", "africa"),
    ("LS", "Lesotho", "africa"),
    ("SZ", "Eswatini", "africa"),
    ("MG", "Madagascar", "africa"),
    ("MU", "Mauritius", "africa"),
    ("SC", "Seychelles", "africa"),
    ("SO", "Somalia", "africa"),
    ("DJ", "Djibouti", "africa"),
    ("ER", "Eritrea", "africa"),
    ("GM", "Gambia", "africa"),
    ("GN", "Guinea", "africa"),
    ("SL", "Sierra Leone", "africa"),
    ("LR", "Liberia", "africa"),
    ("TG", "Togo", "africa"),
    ("MR", "Mauritania", "africa"),
    ("CL", "Chile", "americas"),
    ("PE", "Peru", "americas"),
    ("CO", "Colombia", "americas"),
    ("VE", "Venezuela", "americas"),
    ("EC", "Ecuador", "americas"),
    ("BO", "Bolivia", "americas"),
    ("PY", "Paraguay", "americas"),
    ("UY", "Uruguay", "americas"),
    ("GY", "Guyana", "americas"),
    ("SR", "Suriname", "americas"),
    ("PA", "Panama", "americas"),
    ("CR", "Costa Rica", "americas"),
    ("NI", "Nicaragua", "americas"),
    ("HN", "Honduras", "americas"),
    ("SV", "El Salvador", "americas"),
    ("GT", "Guatemala", "americas"),
    ("BZ", "Belize", "americas"),
    ("CU", "Cuba", "americas"),
    ("DO", "Dominican Republic", "americas"),
    ("HT", "Haiti", "americas"),
    ("JM", "Jamaica", "americas"),
    ("TT", "Trinidad and Tobago", "americas"),
    ("BB", "Barbados", "americas"),
    ("BS", "Bahamas", "americas"),
    ("NZ", "New Zealand", "oceania"),
    ("FJ", "Fiji", "oceania"),
    ("PG", "Papua New Guinea", "oceania"),
    ("SB", "Solomon Islands", "oceania"),
    ("VU", "Vanuatu", "oceania"),
    ("WS", "Samoa", "oceania"),
    ("TO", "Tonga", "oceania"),
    ("BN", "Brunei", "asia"),
    ("TL", "Timor-Leste", "asia"),
    ("MV", "Maldives", "asia"),
    ("BT", "Bhutan", "asia"),
)


@slot_init
@dataclass(frozen=True, slots=True)
class Country:
    """A country in the simulated world, keyed by its ISO 3166-1 alpha-2 code."""

    code: str
    name: str
    region: str


class CountryRegistry:
    """Lookup table over the country universe.

    >>> registry = CountryRegistry()
    >>> registry.get("MY").name
    'Malaysia'
    >>> len(registry) >= 172
    True
    """

    def __init__(self, countries: Optional[tuple[tuple[str, str, str], ...]] = None) -> None:
        table = countries if countries is not None else _COUNTRY_TABLE
        self._by_code = {code: Country(code, name, region) for code, name, region in table}
        if len(self._by_code) != len(table):
            raise ValueError("duplicate country codes in registry table")

    def __len__(self) -> int:
        return len(self._by_code)

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def __iter__(self) -> Iterator[Country]:
        return iter(self._by_code.values())

    def get(self, code: str) -> Country:
        """Return the country for an ISO code; raises :class:`KeyError` if unknown."""
        return self._by_code[code]

    def codes(self) -> list[str]:
        """All ISO codes, in registry order."""
        return list(self._by_code)

    def in_region(self, region: str) -> list[Country]:
        """All countries with the given region tag."""
        return [country for country in self._by_code.values() if country.region == region]
