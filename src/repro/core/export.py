"""Dataset serialization.

The paper released its analysis code and data; this module provides the
equivalent for the reproduction: every experiment dataset can be written to
(and re-read from) JSON Lines, so analyses can run on a saved crawl without
rebuilding the world.  Binary payloads (hijack pages, modified bodies) are
base64-encoded; record order is preserved.

The per-record row codecs (``*_record_to_row`` / ``*_record_from_row``) are
the single source of truth for the wire shape.  Two forms are built on
them.  The dict form (``dataset_to_dict`` / ``dataset_from_dict``) is what
the JSONL files here hold.  The line form (:func:`dataset_to_lines` /
:func:`dataset_from_lines`) is what the execution engine's shard cache
stores and its workers ship back: the dataset's header fields, plus each
record once as its canonical JSON line with its zID beside it.  A canonical
line is exactly the bytes ``json.dumps(row, sort_keys=True,
separators=(",", ":"))`` gives for the record's row, so a run summary can
splice stored lines instead of re-encoding records, and a dataset
round-trips identically through either form.
"""

from __future__ import annotations

import base64
import json
import pathlib
from typing import Any, Callable, Iterable, Union

from repro.core.experiments.dns_hijack import DnsDataset, DnsProbeRecord
from repro.core.experiments.http_mod import HttpDataset, HttpProbeRecord
from repro.core.experiments.https_mitm import HttpsDataset, HttpsProbeRecord, SiteResult
from repro.core.experiments.monitoring import (
    MonitoringDataset,
    MonitorProbeRecord,
    UnexpectedRequest,
)
from repro.web.content import ObjectKind

PathLike = Union[str, pathlib.Path]

#: Any of the four experiment datasets.
Dataset = Union[DnsDataset, HttpDataset, HttpsDataset, MonitoringDataset]


def _encode(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _decode(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def _write_lines(path: PathLike, header: dict, rows: Iterable[dict]) -> int:
    target = pathlib.Path(path)
    count = 0
    with target.open("w", encoding="ascii") as handle:
        handle.write(json.dumps(header) + "\n")
        for row in rows:
            handle.write(json.dumps(row) + "\n")
            count += 1
    return count


def _read_lines(path: PathLike, expected_kind: str) -> tuple[dict, list[dict]]:
    lines = pathlib.Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = json.loads(lines[0])
    if header.get("kind") != expected_kind:
        raise ValueError(
            f"{path}: expected a {expected_kind!r} dataset, got {header.get('kind')!r}"
        )
    return header, [json.loads(line) for line in lines[1:]]


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


def dns_dataset_to_dict(dataset: DnsDataset) -> dict:
    """A §4 dataset as one JSON-able dict (header + records)."""
    return {
        **_dns_header(dataset),
        "records": [dns_record_to_row(r) for r in dataset.records],
    }


def dns_dataset_from_dict(payload: dict) -> DnsDataset:
    """Inverse of :func:`dns_dataset_to_dict`."""
    dataset = DnsDataset(
        filtered_google_overlap=payload["filtered_google_overlap"],
        probes=payload["probes"],
        unique_dns_servers=payload["unique_dns_servers"],
    )
    dataset.records.extend(dns_record_from_row(row) for row in payload["records"])
    return dataset


def save_dns_dataset(dataset: DnsDataset, path: PathLike) -> int:
    """Write a §4 dataset; returns the number of records written."""
    payload = dns_dataset_to_dict(dataset)
    rows = payload.pop("records")
    return _write_lines(path, payload, rows)


def load_dns_dataset(path: PathLike) -> DnsDataset:
    """Read a §4 dataset written by :func:`save_dns_dataset`."""
    header, rows = _read_lines(path, "dns")
    return dns_dataset_from_dict({**header, "records": rows})


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


def http_dataset_to_dict(dataset: HttpDataset) -> dict:
    """A §5 dataset as one JSON-able dict (header + records)."""
    return {
        **_http_header(dataset),
        "records": [http_record_to_row(r) for r in dataset.records],
    }


def http_dataset_from_dict(payload: dict) -> HttpDataset:
    """Inverse of :func:`http_dataset_to_dict`."""
    dataset = HttpDataset(
        probes=payload["probes"], flagged_ases=set(payload["flagged_ases"])
    )
    dataset.records.extend(http_record_from_row(row) for row in payload["records"])
    return dataset


def save_http_dataset(dataset: HttpDataset, path: PathLike) -> int:
    """Write a §5 dataset; returns the number of records written."""
    payload = http_dataset_to_dict(dataset)
    rows = payload.pop("records")
    return _write_lines(path, payload, rows)


def load_http_dataset(path: PathLike) -> HttpDataset:
    """Read a §5 dataset written by :func:`save_http_dataset`."""
    header, rows = _read_lines(path, "http")
    return http_dataset_from_dict({**header, "records": rows})


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


def https_dataset_to_dict(dataset: HttpsDataset) -> dict:
    """A §6 dataset as one JSON-able dict (header + records)."""
    return {
        **_https_header(dataset),
        "records": [https_record_to_row(r) for r in dataset.records],
    }


def https_dataset_from_dict(payload: dict) -> HttpsDataset:
    """Inverse of :func:`https_dataset_to_dict`."""
    dataset = HttpsDataset(probes=payload["probes"])
    dataset.records.extend(https_record_from_row(row) for row in payload["records"])
    return dataset


def save_https_dataset(dataset: HttpsDataset, path: PathLike) -> int:
    """Write a §6 dataset; returns the number of records written."""
    payload = https_dataset_to_dict(dataset)
    rows = payload.pop("records")
    return _write_lines(path, payload, rows)


def load_https_dataset(path: PathLike) -> HttpsDataset:
    """Read a §6 dataset written by :func:`save_https_dataset`."""
    header, rows = _read_lines(path, "https")
    return https_dataset_from_dict({**header, "records": rows})


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


def monitoring_dataset_to_dict(dataset: MonitoringDataset) -> dict:
    """A §7 dataset as one JSON-able dict (header + records)."""
    return {
        **_monitoring_header(dataset),
        "records": [monitoring_record_to_row(r) for r in dataset.records],
    }


def monitoring_dataset_from_dict(payload: dict) -> MonitoringDataset:
    """Inverse of :func:`monitoring_dataset_to_dict`."""
    dataset = MonitoringDataset(probes=payload["probes"])
    dataset.records.extend(monitoring_record_from_row(row) for row in payload["records"])
    return dataset


def save_monitoring_dataset(dataset: MonitoringDataset, path: PathLike) -> int:
    """Write a §7 dataset; returns the number of records written."""
    payload = monitoring_dataset_to_dict(dataset)
    rows = payload.pop("records")
    return _write_lines(path, payload, rows)


def load_monitoring_dataset(path: PathLike) -> MonitoringDataset:
    """Read a §7 dataset written by :func:`save_monitoring_dataset`."""
    header, rows = _read_lines(path, "monitoring")
    return monitoring_dataset_from_dict({**header, "records": rows})


# -- kind dispatch ------------------------------------------------------------

#: kind -> (dataset_to_dict, dataset_from_dict), for generic dispatch.
DATASET_CODECS = {
    "dns": (dns_dataset_to_dict, dns_dataset_from_dict),
    "http": (http_dataset_to_dict, http_dataset_from_dict),
    "https": (https_dataset_to_dict, https_dataset_from_dict),
    "monitoring": (monitoring_dataset_to_dict, monitoring_dataset_from_dict),
}

#: kind -> (dataset type, header fields, record_to_row).
_KINDS: dict[str, tuple[type, Callable[[Any], dict], Callable[[Any], dict]]] = {
    "dns": (DnsDataset, _dns_header, dns_record_to_row),
    "http": (HttpDataset, _http_header, http_record_to_row),
    "https": (HttpsDataset, _https_header, https_record_to_row),
    "monitoring": (MonitoringDataset, _monitoring_header, monitoring_record_to_row),
}


def _kind_of(dataset: Dataset) -> str:
    for kind, (dataset_type, _header, _to_row) in _KINDS.items():
        if isinstance(dataset, dataset_type):
            return kind
    raise TypeError(f"not an experiment dataset: {type(dataset)!r}")


def dataset_to_dict(dataset: Dataset) -> dict:
    """Serialize any experiment dataset to its JSON-able dict form."""
    return DATASET_CODECS[_kind_of(dataset)][0](dataset)  # type: ignore[arg-type]


def dataset_from_dict(payload: dict) -> Dataset:
    """Deserialize a dict produced by :func:`dataset_to_dict`."""
    kind = payload.get("kind")
    if kind not in DATASET_CODECS:
        raise ValueError(f"unknown dataset kind: {kind!r}")
    return DATASET_CODECS[kind][1](payload)


# -- line form (engine shard cache) --------------------------------------------

#: The one encoder behind every canonical line: sorted keys, compact
#: separators, and the default ``ensure_ascii``/``allow_nan``, so a line is
#: the bytes ``json.dumps(row, sort_keys=True, separators=(",", ":"))``
#: gives, without building an encoder per record.
LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dataset_to_lines(dataset: Dataset) -> dict:
    """A dataset in line form, JSON-able.

    ``{"header": …, "zids": […], "lines": […]}``: ``header`` is the dict
    form without its records, and each record appears once, as its
    canonical line (see :data:`LINE_ENCODER`) in record order, with its zID
    at the same position in ``zids``.  A §4 dataset also carries
    ``resolvers``, its sorted distinct resolver IPs, so merged shards can
    count unique resolvers without parsing a line.
    """
    _type, header, to_row = _KINDS[_kind_of(dataset)]
    encode = LINE_ENCODER.encode
    records = dataset.records
    payload: dict = {
        "header": header(dataset),
        "zids": [record.zid for record in records],
        "lines": [encode(to_row(record)) for record in records],
    }
    if isinstance(dataset, DnsDataset):
        payload["resolvers"] = sorted({record.dns_server_ip for record in dataset.records})
    return payload


def dataset_from_lines(payload: dict) -> Dataset:
    """Inverse of :func:`dataset_to_lines`: decode every line, in order."""
    rows = json.loads("[" + ",".join(payload["lines"]) + "]")
    return dataset_from_dict({**payload["header"], "records": rows})
