"""Torn tails in the service state dir's JSONL ledgers.

The journal and the dead-letter queue share one append rule and one read
rule (:mod:`repro.resilience.ledger`).  A crash mid-append leaves a
fragment without its newline; the next append must cut it rather than
write its own line onto it, and ``repro serve fsck`` must judge a ledger
the way the service that loads it does.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.resilience import DeadLetterEntry, DeadLetterQueue, DLQError
from repro.resilience.ledger import append_line, read_ledger
from repro.serve import ServiceJournal, ServiceJournalError, fsck_state_dir


def park(dlq: DeadLetterQueue, occurrence: int) -> None:
    dlq.add(
        DeadLetterEntry(
            tenant="acme", name="crawl", occurrence=occurrence,
            category="callable", error="RuntimeError: boom",
            attempts=3, dead_at=120.0,
        )
    )


def tear(path, fragment: str = '{"kind": "dead", "tr') -> None:
    """What a process killed mid-append leaves behind."""
    with path.open("a", encoding="utf-8") as handle:
        handle.write(fragment)


class TestTornTailSurvivesRestart:
    def test_dlq_keeps_every_park(self, tmp_path):
        path = tmp_path / "dlq.jsonl"
        park(DeadLetterQueue(path), 0)
        tear(path)
        reopened = DeadLetterQueue(path)
        park(reopened, 1)
        park(reopened, 2)
        assert DeadLetterQueue(path).parked_keys() == frozenset(
            {("acme", "crawl", 0), ("acme", "crawl", 1), ("acme", "crawl", 2)}
        )
        report = fsck_state_dir(tmp_path)
        assert report.clean
        assert report.dlq_records == 3

    def test_journal_keeps_every_record(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal(path)
        journal.begin_run({"seed": 5})
        journal.append_study({"sid": 0})
        tear(path, '{"kind": "study", "sid"')
        restarted = ServiceJournal(path)
        restarted.begin_run({"seed": 5})
        restarted.append_study({"sid": 1})
        restarted.append_study({"sid": 2})
        records = ServiceJournal(path).load()
        assert [record["kind"] for record in records] == [
            "serve-manifest", "study", "serve-manifest", "study", "study",
        ]
        report = fsck_state_dir(tmp_path)
        assert report.clean
        assert report.journal_records == 5

    def test_fsck_and_dlq_agree_on_a_blank_middle_line(self, tmp_path):
        path = tmp_path / "dlq.jsonl"
        park(DeadLetterQueue(path), 0)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n")
        park(DeadLetterQueue(path), 1)
        assert len(DeadLetterQueue(path)) == 2
        report = fsck_state_dir(tmp_path)
        assert report.clean
        assert report.dlq_records == 2


class TestAppendRule:
    def test_a_parsing_unterminated_tail_is_ended_not_cut(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}')
        append_line(path, '{"c":3}')
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n{"c":3}\n'

    def test_a_torn_tail_is_cut_with_or_without_its_newline(self, tmp_path):
        for torn in (b'{"b":', b'{"b":\n'):
            path = tmp_path / "ledger.jsonl"
            path.write_bytes(b'{"a":1}\n' + torn)
            append_line(path, '{"c":3}')
            assert path.read_bytes() == b'{"a":1}\n{"c":3}\n'

    def test_a_torn_tail_longer_than_one_read_is_cut(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"a":1}\n{"pad":"' + b"x" * 10_000)
        append_line(path, '{"c":3}')
        assert path.read_bytes() == b'{"a":1}\n{"c":3}\n'

    def test_a_torn_first_line_is_cut(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"a":')
        append_line(path, '{"c":3}')
        assert path.read_bytes() == b'{"c":3}\n'

    def test_a_clean_ledger_gains_exactly_the_line(self, tmp_path):
        path = tmp_path / "nested" / "ledger.jsonl"
        append_line(path, '{"a":1}')
        append_line(path, '{"b":2}')
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n'


class TestReadRule:
    def test_damage_is_located(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"a":1}\n\ngarbage{\n[2]\n{"b":')
        scan = read_ledger(path)
        assert scan.records == [(1, {"a": 1}), (4, [2])]
        assert scan.corrupt == [3]
        assert scan.torn == (len(b'{"a":1}\n\ngarbage{\n[2]\n'), len(b'{"b":'))

    def test_missing_file_reads_empty(self, tmp_path):
        scan = read_ledger(tmp_path / "absent.jsonl")
        assert (scan.records, scan.corrupt, scan.torn) == ([], [], None)

    def test_reader_drops_exactly_what_the_append_cuts(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":\n')
        scan = read_ledger(path)
        assert scan.records == [(1, {"a": 1})]
        kept = path.read_bytes()[: scan.torn[0]]
        append_line(path, '{"c":3}')
        assert path.read_bytes() == kept + b'{"c":3}\n'


class TestNonObjectLines:
    """Both ledgers hold one JSON object a line; any other value is damage."""

    def test_dlq_names_the_line(self, tmp_path):
        path = tmp_path / "dlq.jsonl"
        park(DeadLetterQueue(path), 0)
        append_line(path, "5")
        with pytest.raises(DLQError, match="line 2"):
            DeadLetterQueue(path)

    def test_journal_names_the_line(self, tmp_path):
        path = tmp_path / "service.jsonl"
        journal = ServiceJournal(path)
        journal.begin_run({"seed": 5})
        append_line(path, "5")
        with pytest.raises(ServiceJournalError, match="service.jsonl:2: record is not an object"):
            journal.studies()
        with pytest.raises(ServiceJournalError, match="service.jsonl:2"):
            journal.failures()

    def test_a_malformed_retry_record_is_a_dlq_error(self, tmp_path):
        path = tmp_path / "dlq.jsonl"
        append_line(path, '{"kind":"retry","tenant":"acme"}')
        with pytest.raises(DLQError, match="malformed retry record"):
            DeadLetterQueue(path)

    def test_fsck_reports_what_the_loaders_reject(self, tmp_path):
        append_line(tmp_path / "dlq.jsonl", "5")
        append_line(tmp_path / "service.jsonl", "[1]")
        report = fsck_state_dir(tmp_path)
        assert sorted(finding.detail for finding in report.errors) == [
            "line 1: record is not an object (not repairable)",
        ] * 2

    @pytest.mark.parametrize("bad_line", ["5", "garbage{"])
    def test_dlq_command_reports_a_bad_ledger_in_one_line(self, tmp_path, capsys, bad_line):
        path = tmp_path / "dlq.jsonl"
        park(DeadLetterQueue(path), 0)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(bad_line + '\n{"kind":"purge"}\n')
        assert main(["serve", "dlq", "list", "--state-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("serve dlq: ") and "line 2" in err
        assert len(err.splitlines()) == 1
