import io
from datetime import datetime, timezone

import numpy as np
import pytest

from xnap.errors import BadRow, BadTimestamp, EmptyLog, MissingColumn, UnknownCase
from xnap.eventlog import (
    Event,
    EventLog,
    LogFormat,
    Trace,
    compute_stats,
    filter_log,
    parse_log,
    serialize_log,
)

from conftest import make_log


def _parse(text: str, **fmt_kwargs):
    return parse_log(io.StringIO(text), LogFormat(**fmt_kwargs))


CSV_BASIC = """case,activity,timestamp
c1,A,2024-01-01 10:00:00
c1,B,2024-01-01 10:05:00
c2,A,2024-01-01 10:00:00
"""


class TestParseLog:
    def test_groups_by_case(self):
        log = _parse(CSV_BASIC)
        assert log.case_ids == ("c1", "c2")
        assert log.trace_by_case("c1").activities == ("A", "B")
        assert log.trace_by_case("c2").activities == ("A",)

    def test_sorts_out_of_order_rows(self):
        text = ("case,activity,timestamp\n"
                "c1,B,2024-01-01 10:05:00\n"
                "c1,A,2024-01-01 10:00:00\n")
        log = _parse(text)
        assert log.trace_by_case("c1").activities == ("A", "B")

    def test_equal_timestamps_keep_file_order(self):
        text = ("case,activity,timestamp\n"
                "c1,X,2024-01-01 10:00:00\n"
                "c1,Y,2024-01-01 10:00:00\n"
                "c1,Z,2024-01-01 10:00:00\n")
        assert _parse(text).trace_by_case("c1").activities == ("X", "Y", "Z")

    def test_missing_column(self):
        with pytest.raises(MissingColumn) as exc:
            _parse("case,act,timestamp\nc1,A,2024-01-01 10:00:00\n")
        assert exc.value.column == "activity"

    def test_bad_timestamp_reports_row_and_value(self):
        text = ("case,activity,timestamp\n"
                "c1,A,2024-01-01 10:00:00\n"
                "c1,B,not-a-time\n")
        with pytest.raises(BadTimestamp) as exc:
            _parse(text)
        assert exc.value.row == 3
        assert exc.value.value == "not-a-time"

    @pytest.mark.parametrize("before, line", [
        ("\n", 4),
        ('c0,"two\nlines",2024-01-01 09:00:00\n', 5),
    ], ids=["blank_line", "multi_line_field"])
    @pytest.mark.parametrize("row, error, message", [
        ("c1,,2024-01-01 10:01:00", BadRow, "empty activity"),
        (",B,2024-01-01 10:01:00", BadRow, "empty case id"),
        ("c1,B", BadRow, "2 fields, the header has 3"),
        ("c1,B,not-a-time", BadTimestamp, "cannot parse timestamp 'not-a-time'"),
        # valid in their own offset, outside years 1-9999 once in UTC
        ("c1,B,9999-12-31T23:59:00-01:00", BadTimestamp,
         "cannot parse timestamp '9999-12-31T23:59:00-01:00'"),
        ("c1,B,0001-01-01T00:30:00+01:00", BadTimestamp,
         "cannot parse timestamp '0001-01-01T00:30:00+01:00'"),
        # Python 3.10's csv refuses a NUL anywhere, 3.11's reads it as text
        ("c1,B,2024-01-01 10:01:00,\0", BadRow, "line contains NUL"),
    ], ids=["empty_activity", "empty_case_id", "short_row", "bad_timestamp",
            "utc_after_9999", "utc_before_0001", "nul_in_extra_field"])
    def test_errors_name_the_file_line(self, before, line, row, error, message):
        text = f"case,activity,timestamp\nc1,A,2024-01-01 10:00:00\n{before}{row}\n"
        with pytest.raises(error) as exc:
            _parse(text)
        assert str(exc.value) == f"row {line}: {message}"

    def test_over_long_field_is_a_bad_row(self):
        text = f"case,activity,timestamp\nc1,A,2024-01-01 10:00:00\nc1,{'B' * 131073},x\n"
        with pytest.raises(BadRow) as exc:
            _parse(text)
        assert str(exc.value) == "row 3: field larger than field limit (131072)"

    def test_byte_order_mark_dropped_from_a_path(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(CSV_BASIC, encoding="utf-8")
        marked.write_text(CSV_BASIC, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_log(marked) == parse_log(plain)

    def test_unknown_case_is_a_key_error(self):
        with pytest.raises(KeyError) as exc:
            _parse(CSV_BASIC).trace_by_case("ghost")
        assert isinstance(exc.value, UnknownCase)
        assert str(exc.value) == "unknown case id 'ghost'"

    def test_select_unknown_case(self):
        log = _parse(CSV_BASIC)
        with pytest.raises(UnknownCase, match="unknown case id 'ghost'"):
            log.select_cases(["c1", "ghost"])
        assert log.select_cases(["c2", "c1"]).case_ids == ("c2", "c1")

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            _parse("case,activity,timestamp\n")

    def test_custom_columns_and_delimiter(self):
        text = "cid;act;when\nc1;A;2024-01-01 10:00:00\n"
        log = _parse(text, case_col="cid", activity_col="act",
                     time_col="when", delimiter=";")
        assert log.trace_by_case("c1").activities == ("A",)

    @pytest.mark.parametrize("stamp,expected_utc", [
        ("2024-01-01 10:00:00", datetime(2024, 1, 1, 10, tzinfo=timezone.utc)),
        ("2024-01-01T10:00:00.250", datetime(2024, 1, 1, 10, 0, 0, 250000, tzinfo=timezone.utc)),
        ("2024-01-01T12:00:00+02:00", datetime(2024, 1, 1, 10, tzinfo=timezone.utc)),
        ("2024-01-01T10:00:00Z", datetime(2024, 1, 1, 10, tzinfo=timezone.utc)),
    ])
    def test_accepted_timestamp_formats(self, stamp, expected_utc):
        log = _parse(f"case,activity,timestamp\nc1,A,{stamp}\n")
        assert log.trace_by_case("c1").events[0].timestamp == expected_utc

    def test_explicit_strptime_format(self):
        log = _parse("case,activity,timestamp\nc1,A,01/02/2024 10:30\n",
                     timestamp_format="%d/%m/%Y %H:%M")
        assert log.trace_by_case("c1").events[0].timestamp == \
            datetime(2024, 2, 1, 10, 30, tzinfo=timezone.utc)


class TestTypes:
    @pytest.mark.parametrize("case, activity, message", [
        ("", "A", "event case id must be non-empty"),
        ("c1", "", "event activity must be non-empty"),
    ])
    def test_event_rejects_empty_fields(self, case, activity, message):
        with pytest.raises(ValueError, match=message):
            Event(case, activity, datetime(2024, 1, 1))

    def test_case_ids_are_stored(self):
        log = _parse(CSV_BASIC)
        assert log.case_ids == ("c1", "c2")
        assert log.case_ids is log.case_ids  # not rebuilt on each read

    def test_duplicate_case_id_names_the_first_repeat(self):
        a, b = make_log([["A"], ["B"]]).traces
        with pytest.raises(ValueError, match="duplicate case id 'c1'"):
            EventLog((a, b, b, a))

    def test_activities_cached_and_outside_equality(self):
        trace = make_log([["A", "B"]]).traces[0]
        assert trace.activities is trace.activities
        fresh = Trace(trace.case_id, trace.events)
        assert fresh == trace and hash(fresh) == hash(trace)


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        log = _parse(CSV_BASIC)
        buf = io.StringIO()
        serialize_log(log, buf)
        again = _parse(buf.getvalue())
        assert again == log

    def test_random_shuffled_rows_yield_ordered_traces(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            rows = []
            for i in range(n):
                case = f"c{int(rng.integers(3))}"
                minute = int(rng.integers(60))
                rows.append(f"{case},A{i},2024-01-01 10:{minute:02d}:00")
            rng.shuffle(rows)
            text = "case,activity,timestamp\n" + "\n".join(rows) + "\n"
            log = _parse(text)
            assert sum(len(t) for t in log) == n
            for trace in log:
                stamps = [e.timestamp for e in trace.events]
                assert stamps == sorted(stamps)


class TestComputeStats:
    def test_hand_counted_example(self, abc_log):
        stats = compute_stats(abc_log)
        assert stats.n_instances == 3
        assert stats.n_variants == 2
        assert stats.n_events == 7
        assert stats.n_activities == 3
        assert stats.events_per_instance == (2, 3, 2.3, 2.0)

    def test_single_trace_degenerate(self):
        stats = compute_stats(make_log([["A"]]))
        assert stats.events_per_instance == (1, 1, 1.0, 1.0)
        assert stats.activities_per_instance == (1, 1, 1.0, 1.0)

    def test_n_events_matches_parsed_rows(self):
        log = _parse(CSV_BASIC)
        assert compute_stats(log).n_events == 3

    def test_empty_rejected(self):
        from xnap.eventlog import EventLog
        with pytest.raises(EmptyLog):
            compute_stats(EventLog(()))


class TestFilterLog:
    def test_drops_long_traces(self):
        log = make_log([["A", "B"], ["A", "B", "C"]])
        kept = filter_log(log, max_trace_len=2)
        assert [t.activities for t in kept] == [("A", "B")]

    def test_identity_when_unrestricted(self, abc_log):
        assert filter_log(abc_log, max_trace_len=None, sample_fraction=1.0) == abc_log

    def test_seeded_sample_is_frozen(self):
        # Expected indices computed once from PCG64(seed=7): the sorted
        # first 10 entries of rng.permutation(100).
        expected = [4, 24, 26, 32, 42, 50, 53, 54, 70, 88]
        log = make_log([["A", "B"] for _ in range(100)])
        for _ in range(2):  # identical on every run
            kept = filter_log(log, sample_fraction=0.1, seed=7)
            assert [t.case_id for t in kept] == [f"c{i}" for i in expected]

    def test_rounds_trace_count_down(self):
        log = make_log([["A"] for _ in range(7)])
        assert len(filter_log(log, sample_fraction=0.5, seed=0)) == 3

    def test_bad_fraction(self, abc_log):
        with pytest.raises(ValueError):
            filter_log(abc_log, sample_fraction=0.0)
