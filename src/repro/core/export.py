"""Dataset serialization.

The paper released its analysis code and data; this module provides the
equivalent for the reproduction: every experiment dataset can be written to
(and re-read from) JSON Lines, so analyses can run on a saved crawl without
rebuilding the world.  Binary payloads (hijack pages, modified bodies) are
base64-encoded; record order is preserved.

The per-record row codecs (``*_record_to_row`` / ``*_record_from_row``) are
the single source of truth for the wire shape, and :data:`KINDS` holds
every other per-kind fact.  A dataset has one wire form, the line form
(:func:`dataset_to_lines` / :func:`dataset_from_lines`): its header fields,
plus each record once as its canonical JSON line with its zID beside it.  A
canonical line is exactly the bytes ``json.dumps(row, sort_keys=True,
separators=(",", ":"))`` gives for the record's row.  The execution
engine's shard cache stores this form and its workers ship it back, so a
run summary can splice stored lines instead of re-encoding records.  A
dataset file (:func:`save_dataset` / :func:`load_dataset`) is the header
as one canonical line followed by the record lines.  Files written with
``json.dumps``' default separators hold the same keys and load the same.
"""

from __future__ import annotations

import base64
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Union

from repro.core.experiments.dataset import Dataset
from repro.core.experiments.dns_hijack import DnsDataset, DnsProbeRecord
from repro.core.experiments.http_mod import HttpDataset, HttpProbeRecord
from repro.core.experiments.https_mitm import HttpsDataset, HttpsProbeRecord, SiteResult
from repro.core.experiments.monitoring import (
    MonitoringDataset,
    MonitorProbeRecord,
    UnexpectedRequest,
)
from repro.records import slot_init
from repro.web.content import ObjectKind

PathLike = Union[str, pathlib.Path]


def _encode(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _decode(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


# -- DNS ---------------------------------------------------------------------


def dns_record_to_row(r: DnsProbeRecord) -> dict:
    """One §4 record as a JSON-able dict."""
    return {
        "zid": r.zid,
        "exit_ip": r.exit_ip,
        "asn": r.asn,
        "country": r.country,
        "dns_server_ip": r.dns_server_ip,
        "dns_server_asn": r.dns_server_asn,
        "hijacked": r.hijacked,
        "page": _encode(r.page),
    }


def dns_record_from_row(row: dict) -> DnsProbeRecord:
    """Inverse of :func:`dns_record_to_row`."""
    return DnsProbeRecord(
        zid=row["zid"],
        exit_ip=row["exit_ip"],
        asn=row["asn"],
        country=row["country"],
        dns_server_ip=row["dns_server_ip"],
        dns_server_asn=row["dns_server_asn"],
        hijacked=row["hijacked"],
        page=_decode(row["page"]),
    )


def _dns_header(dataset: DnsDataset) -> dict:
    return {
        "kind": "dns",
        "filtered_google_overlap": dataset.filtered_google_overlap,
        "probes": dataset.probes,
        "unique_dns_servers": dataset.unique_dns_servers,
    }


def _dns_from_header(header: dict) -> DnsDataset:
    return DnsDataset(
        filtered_google_overlap=header["filtered_google_overlap"],
        probes=header["probes"],
        unique_dns_servers=header["unique_dns_servers"],
    )


# -- HTTP --------------------------------------------------------------------


def http_record_to_row(r: HttpProbeRecord) -> dict:
    """One §5 record as a JSON-able dict."""
    return {
        "zid": r.zid,
        "exit_ip": r.exit_ip,
        "asn": r.asn,
        "country": r.country,
        "modified": {kind.value: _encode(body) for kind, body in r.modified_bodies.items()},
        "fetched_all": r.fetched_all,
        "via_token": r.via_token,
        "cached_dynamic": r.cached_dynamic,
    }


def http_record_from_row(row: dict) -> HttpProbeRecord:
    """Inverse of :func:`http_record_to_row`."""
    return HttpProbeRecord(
        zid=row["zid"],
        exit_ip=row["exit_ip"],
        asn=row["asn"],
        country=row["country"],
        modified_bodies={
            ObjectKind(kind): _decode(body) for kind, body in row["modified"].items()
        },
        fetched_all=row["fetched_all"],
        via_token=row.get("via_token", ""),
        cached_dynamic=row.get("cached_dynamic", False),
    )


def _http_header(dataset: HttpDataset) -> dict:
    return {
        "kind": "http",
        "probes": dataset.probes,
        "flagged_ases": sorted(dataset.flagged_ases),
    }


def _http_from_header(header: dict) -> HttpDataset:
    return HttpDataset(probes=header["probes"], flagged_ases=set(header["flagged_ases"]))


# -- HTTPS -------------------------------------------------------------------


def https_record_to_row(r: HttpsProbeRecord) -> dict:
    """One §6 record as a JSON-able dict."""
    return {
        "zid": r.zid,
        "exit_ip": r.exit_ip,
        "asn": r.asn,
        "country": r.country,
        "full_scan": r.full_scan,
        "sites": [
            {
                "domain": s.domain,
                "site_class": s.site_class,
                "replaced": s.replaced,
                "issuer_cn": s.issuer_cn,
                "leaf_key_id": s.leaf_key_id,
                "chain_valid": s.chain_valid,
                "origin_invalid_kind": s.origin_invalid_kind,
            }
            for s in r.sites
        ],
    }


def https_record_from_row(row: dict) -> HttpsProbeRecord:
    """Inverse of :func:`https_record_to_row`."""
    # Positional construction: this runs once per record per merge, and at
    # paper scale keyword/dict unpacking is a measurable slice of the merge.
    return HttpsProbeRecord(
        zid=row["zid"],
        exit_ip=row["exit_ip"],
        asn=row["asn"],
        country=row["country"],
        full_scan=row["full_scan"],
        sites=tuple(
            SiteResult(
                site["domain"],
                site["site_class"],
                site["replaced"],
                site["issuer_cn"],
                site["leaf_key_id"],
                site["chain_valid"],
                site["origin_invalid_kind"],
            )
            for site in row["sites"]
        ),
    )


def _https_header(dataset: HttpsDataset) -> dict:
    return {"kind": "https", "probes": dataset.probes}


def _https_from_header(header: dict) -> HttpsDataset:
    return HttpsDataset(probes=header["probes"])


# -- Monitoring --------------------------------------------------------------


def monitoring_record_to_row(r: MonitorProbeRecord) -> dict:
    """One §7 record as a JSON-able dict."""
    return {
        "zid": r.zid,
        "reported_ip": r.reported_ip,
        "asn": r.asn,
        "country": r.country,
        "domain": r.domain,
        "node_request_time": r.node_request_time,
        "node_request_ip": r.node_request_ip,
        "unexpected": [
            {
                "source_ip": u.source_ip,
                "time": u.time,
                "delay": u.delay,
                "user_agent": u.user_agent,
                "asn": u.asn,
            }
            for u in r.unexpected
        ],
    }


def monitoring_record_from_row(row: dict) -> MonitorProbeRecord:
    """Inverse of :func:`monitoring_record_to_row`."""
    return MonitorProbeRecord(
        zid=row["zid"],
        reported_ip=row["reported_ip"],
        asn=row["asn"],
        country=row["country"],
        domain=row["domain"],
        node_request_time=row["node_request_time"],
        node_request_ip=row["node_request_ip"],
        unexpected=tuple(UnexpectedRequest(**u) for u in row["unexpected"]),
    )


def _monitoring_header(dataset: MonitoringDataset) -> dict:
    return {"kind": "monitoring", "probes": dataset.probes}


def _monitoring_from_header(header: dict) -> MonitoringDataset:
    return MonitoringDataset(probes=header["probes"])


# -- the kind table -------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class DatasetKind:
    """Everything the wire form knows about one experiment's dataset."""

    dataset_type: type[Dataset]
    #: The dataset's header fields, ``kind`` included, JSON-able.
    header: Callable[[Any], dict]
    #: A record-less dataset from a header (inverse of ``header``).
    from_header: Callable[[dict], Dataset]
    to_row: Callable[[Any], dict]
    from_row: Callable[[dict], Any]


#: kind name -> its facts, in the paper's section order.
KINDS: dict[str, DatasetKind] = {
    "dns": DatasetKind(
        DnsDataset, _dns_header, _dns_from_header, dns_record_to_row, dns_record_from_row
    ),
    "http": DatasetKind(
        HttpDataset, _http_header, _http_from_header, http_record_to_row, http_record_from_row
    ),
    "https": DatasetKind(
        HttpsDataset, _https_header, _https_from_header,
        https_record_to_row, https_record_from_row,
    ),
    "monitoring": DatasetKind(
        MonitoringDataset, _monitoring_header, _monitoring_from_header,
        monitoring_record_to_row, monitoring_record_from_row,
    ),
}


def _kind(name: str) -> DatasetKind:
    try:
        return KINDS[name]
    except KeyError:
        raise ValueError(f"unknown dataset kind: {name!r}") from None


def _kind_of(dataset: Dataset) -> DatasetKind:
    for kind in KINDS.values():
        if isinstance(dataset, kind.dataset_type):
            return kind
    raise TypeError(f"not an experiment dataset: {type(dataset)!r}")


def empty_dataset(name: str) -> Dataset:
    """A zero-record dataset of the named kind."""
    return _kind(name).dataset_type()


def dataset_from_header(header: dict) -> Dataset:
    """A record-less dataset carrying ``header``'s fields."""
    return _kind(header.get("kind")).from_header(header)


# -- line form -------------------------------------------------------------------

#: The one encoder behind every canonical line: sorted keys, compact
#: separators, and the default ``ensure_ascii``/``allow_nan``, so a line is
#: the bytes ``json.dumps(row, sort_keys=True, separators=(",", ":"))``
#: gives, without building an encoder per record.
LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dataset_to_lines(dataset: Dataset) -> dict:
    """A dataset in line form, JSON-able.

    ``{"header": …, "zids": […], "lines": […]}``: ``header`` is the
    dataset's header fields, and each record appears once, as its canonical
    line (see :data:`LINE_ENCODER`) in record order, with its zID at the
    same position in ``zids``.  A §4 dataset also carries ``resolvers``,
    its sorted distinct resolver IPs, so merged shards can count unique
    resolvers without parsing a line.
    """
    kind = _kind_of(dataset)
    encode = LINE_ENCODER.encode
    to_row = kind.to_row
    records = dataset.records
    payload: dict = {
        "header": kind.header(dataset),
        "zids": [record.zid for record in records],
        "lines": [encode(to_row(record)) for record in records],
    }
    if isinstance(dataset, DnsDataset):
        payload["resolvers"] = sorted({record.dns_server_ip for record in dataset.records})
    return payload


def dataset_from_lines(payload: dict) -> Dataset:
    """Inverse of :func:`dataset_to_lines`: decode every line, in order.

    Only ``header`` and ``lines`` are read.
    """
    header = payload["header"]
    kind = _kind(header.get("kind"))
    dataset = kind.from_header(header)
    rows = json.loads("[" + ",".join(payload["lines"]) + "]")
    dataset.records.extend(map(kind.from_row, rows))
    return dataset


# -- files -----------------------------------------------------------------------


def save_dataset(dataset: Dataset, path: PathLike) -> int:
    """Write a dataset file; returns the number of records written."""
    payload = dataset_to_lines(dataset)
    with pathlib.Path(path).open("w", encoding="ascii") as handle:
        handle.write(LINE_ENCODER.encode(payload["header"]) + "\n")
        for line in payload["lines"]:
            handle.write(line + "\n")
    return len(payload["lines"])


def load_dataset(path: PathLike, kind: str) -> Dataset:
    """Read a dataset file of the named kind written by :func:`save_dataset`."""
    lines = pathlib.Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = json.loads(lines[0])
    if header.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind!r} dataset, got {header.get('kind')!r}")
    return dataset_from_lines({"header": header, "lines": lines[1:]})
