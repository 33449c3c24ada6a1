"""The parallel pipeline's byte-identity contract, enforced.

``run_analysis(dataset, jobs=N)`` must be indistinguishable from
``jobs=1``: same lists in the same order, same dict key order, same
drop ledger, same floats, and — in strict mode on damaged input — the
same exception.  These tests enforce the contract end-to-end on two
seeds and unit-test each sharding/merging mechanism on crafted inputs.
"""

import dataclasses

import pytest

from repro import ScenarioConfig, run_analysis, run_scenario
from repro.core.extract_isis import replay_lsp_records
from repro.faults.ledger import CHANNEL_SYSLOG, IngestReport
from repro.parallel.merge import (
    merge_parsed_segments,
    replay_lsp_shards,
    segment_needs_reparse,
)
from repro.parallel.sharding import (
    LogSegment,
    index_ranges,
    segment_log_text,
)
from repro.parallel.workers import decode_lsp_shard, parse_syslog_shard
from repro.syslog.collector import SyslogCollector
from repro.syslog.message import SyslogParseError
from repro.util.timefmt import SECONDS_PER_DAY


def assert_results_identical(seq, par):
    """Deep equality over every product of an analysis run."""
    # Syslog channel: messages, transitions, timelines (incl. key order
    # and anomaly tuples), failures, counters.
    assert par.syslog.isis_messages == seq.syslog.isis_messages
    assert par.syslog.physical_messages == seq.syslog.physical_messages
    assert par.syslog.isis_transitions == seq.syslog.isis_transitions
    assert par.syslog.physical_transitions == seq.syslog.physical_transitions
    assert par.syslog.failures == seq.syslog.failures
    assert par.syslog.unparsed_count == seq.syslog.unparsed_count
    assert par.syslog.unresolved_count == seq.syslog.unresolved_count
    assert list(par.syslog.timelines) == list(seq.syslog.timelines)
    for link, timeline in seq.syslog.timelines.items():
        assert par.syslog.timelines[link].spans == timeline.spans
        assert par.syslog.timelines[link].anomalies == timeline.anomalies

    # IS-IS channel.
    assert par.isis.is_messages == seq.isis.is_messages
    assert par.isis.ip_messages == seq.isis.ip_messages
    assert par.isis.is_transitions == seq.isis.is_transitions
    assert par.isis.ip_transitions == seq.isis.ip_transitions
    assert par.isis.failures == seq.isis.failures
    assert par.isis.multilink_skipped == seq.isis.multilink_skipped
    assert par.isis.unresolved_count == seq.isis.unresolved_count
    assert par.isis.rejected_lsps == seq.isis.rejected_lsps
    assert list(par.isis.timelines) == list(seq.isis.timelines)
    for link, timeline in seq.isis.timelines.items():
        assert par.isis.timelines[link].spans == timeline.spans
        assert par.isis.timelines[link].anomalies == timeline.anomalies

    # Sanitisation: all four disposition lists and the float sums.
    for channel in ("syslog_sanitized", "isis_sanitized"):
        seq_report = getattr(seq, channel)
        par_report = getattr(par, channel)
        assert par_report.kept == seq_report.kept
        assert (
            par_report.removed_listener_overlap
            == seq_report.removed_listener_overlap
        )
        assert (
            par_report.removed_unverified_long
            == seq_report.removed_unverified_long
        )
        assert par_report.verified_long == seq_report.verified_long
        assert (
            par_report.spurious_downtime_hours
            == seq_report.spurious_downtime_hours
        )
        assert par_report.kept_downtime_hours == seq_report.kept_downtime_hours

    # Matching, coverage, flaps.
    assert par.failure_match.pairs == seq.failure_match.pairs
    assert par.failure_match.only_a == seq.failure_match.only_a
    assert par.failure_match.only_b == seq.failure_match.only_b
    assert par.failure_match.partial_a == seq.failure_match.partial_a
    assert par.failure_match.partial_b == seq.failure_match.partial_b
    assert par.coverage.counts == seq.coverage.counts
    assert par.coverage.unmatched == seq.coverage.unmatched
    assert par.flap_episodes == seq.flap_episodes
    assert list(par.flap_intervals) == list(seq.flap_intervals)
    assert par.flap_intervals == seq.flap_intervals

    assert par.horizon_start == seq.horizon_start
    assert par.horizon_end == seq.horizon_end

    # Drop ledger: same channels, counts, reasons, boundary samples.
    if seq.ingest is None:
        assert par.ingest is None
    else:
        assert par.ingest is not None
        assert par.ingest.to_json() == seq.ingest.to_json()


class TestSegmentLogText:
    TEXT = "alpha\nbravo\ncharlie\ndelta\necho\nfoxtrot\n"

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 50])
    def test_segments_reproduce_lines_and_coordinates(self, shards):
        segments = segment_log_text(self.TEXT, shards)
        assert len(segments) <= shards
        rebuilt = []
        for segment in segments:
            # Coordinates are file-global: the segment's text starts at
            # its byte offset, after exactly line_base newlines.
            assert self.TEXT[segment.offset_base :].startswith(
                segment.text[: len(segment.text)]
            )
            assert self.TEXT.count("\n", 0, segment.offset_base) == (
                segment.line_base
            )
            rebuilt.extend(segment.text.split("\n"))
        # Dropping each non-final segment's trailing newline keeps the
        # global line sequence intact (no phantom empty lines).
        assert [l for l in rebuilt if l] == [
            l for l in self.TEXT.split("\n") if l
        ]

    def test_single_shard_is_whole_text(self):
        (segment,) = segment_log_text(self.TEXT, 1)
        assert segment.text == self.TEXT
        assert segment.line_base == 0
        assert segment.offset_base == 0

    def test_empty_text_yields_no_segments(self):
        assert segment_log_text("", 4) == []

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            segment_log_text(self.TEXT, 0)

    def test_parse_of_segments_equals_whole_parse(self, small_dataset):
        text = small_dataset.syslog_text
        whole = SyslogCollector.parse_log(text)
        for shards in (2, 3, 5):
            entries = []
            for segment in segment_log_text(text, shards):
                parsed, _ = parse_syslog_shard(
                    segment.text, segment.line_base, segment.offset_base
                )
                entries.extend(parsed.entries)
            assert entries == whole


class TestIndexRanges:
    def test_covers_exactly_and_balanced(self):
        for total in (1, 7, 100, 101):
            for shards in (1, 3, 4, 200):
                ranges = index_ranges(total, shards)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == total
                for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                    assert stop == start
                sizes = [stop - start for start, stop in ranges]
                assert all(size > 0 for size in sizes)
                assert max(sizes) - min(sizes) <= 1

    def test_empty_and_invalid(self):
        assert index_ranges(0, 4) == []
        with pytest.raises(ValueError):
            index_ranges(10, 0)


class TestContextReparse:
    """The chain condition of :func:`merge_parsed_segments`."""

    @staticmethod
    def _line(stamp, host="rtr1"):
        return f"<189>{stamp} {host} %SYS-5-CONFIG_I: Configured"

    def _shards(self, text, count):
        segments = segment_log_text(text, count)
        return [
            (
                segment,
                *parse_syslog_shard(
                    segment.text, segment.line_base, segment.offset_base
                ),
            )
            for segment in segments
        ]

    def test_well_ordered_log_accepts_all_shards(self, small_dataset):
        text = small_dataset.syslog_text
        report = IngestReport()
        merged = merge_parsed_segments(
            self._shards(text, 4), strict=False, report=report
        )
        assert merged == SyslogCollector.parse_log(text)
        assert report.dropped() == 0

    def test_year_rollover_segment_is_reparsed(self):
        # Segment 1 advances the log into 2011 ("Jan  5" resolves
        # forward of the Oct 2010 epoch); segment 2 opens with "Oct 25",
        # which a context-free parse puts in 2010 — ~70 days before the
        # log's progress, far beyond the two-day slack.  The merge must
        # detect this and re-parse with real context, landing it in 2011
        # exactly as a sequential whole-file parse does.
        lines = [
            self._line("Oct 20 00:00:01.000"),
            self._line("Jan  5 00:00:00.000"),
            self._line("Oct 25 12:00:00.000"),
            self._line("Oct 26 12:00:00.000"),
        ]
        text = "\n".join(lines) + "\n"
        boundary = text.index(self._line("Oct 25 12:00:00.000"))
        segments = [
            LogSegment(
                text=text[:boundary][:-1], line_base=0, offset_base=0
            ),
            LogSegment(
                text=text[boundary:], line_base=2, offset_base=boundary
            ),
        ]
        shards = [
            (
                segment,
                *parse_syslog_shard(
                    segment.text, segment.line_base, segment.offset_base
                ),
            )
            for segment in segments
        ]
        # The context-free parse of shard 2 really did resolve to 2010,
        # so acceptance would be wrong — the condition must fire.
        _, parsed_two, report_two = shards[1]
        latest_after_one = shards[0][1].latest
        assert parsed_two.min_parsed < latest_after_one - 2 * SECONDS_PER_DAY
        assert segment_needs_reparse(
            latest_after_one, parsed_two, report_two, strict=True
        )
        merged = merge_parsed_segments(shards, strict=True)
        assert merged == SyslogCollector.parse_log(text)
        # And the re-parsed timestamps moved forward of the rollover.
        assert merged[2].generated_time > merged[1].generated_time

    def test_strict_shard_drop_reraises_sequential_error(self):
        lines = [
            self._line("Oct 20 00:00:01.000"),
            "not a syslog line at all",
            self._line("Oct 20 00:00:03.000"),
        ]
        text = "\n".join(lines) + "\n"
        with pytest.raises(SyslogParseError) as sequential:
            SyslogCollector.parse_log(text)
        with pytest.raises(SyslogParseError) as sharded:
            merge_parsed_segments(self._shards(text, 3), strict=True)
        assert str(sharded.value) == str(sequential.value)

    def test_lenient_shard_drops_land_in_global_ledger(self):
        lines = [
            self._line("Oct 20 00:00:01.000"),
            "garbage one",
            self._line("Oct 20 00:00:03.000"),
            "garbage two",
            self._line("Oct 20 00:00:05.000"),
        ]
        text = "\n".join(lines) + "\n"
        sequential_report = IngestReport()
        sequential = SyslogCollector.parse_log(
            text, strict=False, report=sequential_report
        )
        sharded_report = IngestReport()
        merged = merge_parsed_segments(
            self._shards(text, 5), strict=False, report=sharded_report
        )
        assert merged == sequential
        assert sharded_report.to_json() == sequential_report.to_json()
        ledger = sharded_report.channels[CHANNEL_SYSLOG]
        assert ledger.first.sample == "garbage one"
        assert ledger.last.sample == "garbage two"


def decode_shards(records, shard_count):
    return [
        decode_lsp_shard(records[start:stop], start)
        for start, stop in index_ranges(len(records), shard_count)
    ]


class TestCompactReplay:
    def test_replay_matches_listener(self, small_dataset):
        records = small_dataset.lsp_records
        listener, changes = replay_lsp_records(records)
        shards = decode_shards(records, 4)
        assert not [error for _, errors in shards for error in errors]
        replayed, rejected = replay_lsp_shards(shards, records)
        assert replayed == changes
        assert rejected == listener.rejected_count

    def test_corrupt_record_lenient_ledgers_match(self, small_dataset):
        records = list(small_dataset.lsp_records)
        time, raw = records[40]
        records[40] = (time, raw[: len(raw) // 2])
        sequential_report = IngestReport()
        _, changes = replay_lsp_records(
            records, strict=False, report=sequential_report
        )
        sharded_report = IngestReport()
        replayed, _ = replay_lsp_shards(
            decode_shards(records, 3),
            records,
            strict=False,
            report=sharded_report,
        )
        assert replayed == changes
        assert sharded_report.to_json() == sequential_report.to_json()
        assert sharded_report.dropped() == 1

    def test_corrupt_record_strict_raises_sequential_error(
        self, small_dataset
    ):
        records = list(small_dataset.lsp_records)
        time, raw = records[40]
        records[40] = (time, raw[: len(raw) // 2])
        with pytest.raises(Exception) as sequential:
            replay_lsp_records(records, strict=True)
        shards = decode_shards(records, 3)
        with pytest.raises(Exception) as sharded:
            replay_lsp_shards(shards, records, strict=True)
        assert type(sharded.value) is type(sequential.value)
        assert str(sharded.value) == str(sequential.value)


class TestLedgerMerge:
    def test_sharded_fold_equals_sequential_recording(self):
        sequential = IngestReport()
        for index, reason in enumerate(
            ["malformed-line", "bad-timestamp", "malformed-line"]
        ):
            sequential.record(
                CHANNEL_SYSLOG, reason, index=index, sample=f"line {index}"
            )
        shard_one = IngestReport()
        shard_one.record(
            CHANNEL_SYSLOG, "malformed-line", index=0, sample="line 0"
        )
        shard_two = IngestReport()
        shard_two.record(
            CHANNEL_SYSLOG, "bad-timestamp", index=1, sample="line 1"
        )
        shard_two.record(
            CHANNEL_SYSLOG, "malformed-line", index=2, sample="line 2"
        )
        folded = IngestReport()
        folded.merge_from(shard_one)
        folded.merge_from(shard_two)
        assert folded.to_json() == sequential.to_json()

    def test_merge_from_empty_is_identity(self):
        report = IngestReport()
        report.record(CHANNEL_SYSLOG, "malformed-line", index=1, sample="x")
        before = report.to_json()
        report.merge_from(IngestReport())
        assert report.to_json() == before


class TestEndToEndEquivalence:
    """The headline contract, on two seeds and several pool widths."""

    @pytest.fixture(scope="class")
    def seed7(self):
        return run_scenario(ScenarioConfig(seed=7, duration_days=30.0))

    @pytest.fixture(scope="class")
    def seed2013(self):
        return run_scenario(ScenarioConfig(seed=2013, duration_days=21.0))

    def test_seed7_jobs4_identical(self, seed7):
        assert_results_identical(
            run_analysis(seed7), run_analysis(seed7, jobs=4)
        )

    def test_seed2013_jobs4_identical(self, seed2013):
        assert_results_identical(
            run_analysis(seed2013), run_analysis(seed2013, jobs=4)
        )

    def test_odd_pool_width_identical(self, seed2013):
        # 3 shards exercise unbalanced segment and range boundaries.
        assert_results_identical(
            run_analysis(seed2013), run_analysis(seed2013, jobs=3)
        )

    def test_lenient_on_damaged_artifacts_identical(self, seed2013):
        lines = seed2013.syslog_text.split("\n")
        lines.insert(50, "complete garbage not a syslog line")
        lines.insert(900, "<999>Nov  3 10:00:00.000 rtr1 oops")
        lines.insert(1700, "\x00\x01\x02 binary junk")
        records = list(seed2013.lsp_records)
        time, raw = records[30]
        records[30] = (time, raw[: len(raw) // 2])
        damaged = dataclasses.replace(
            seed2013,
            syslog_text="\n".join(lines),
            lsp_records=records,
        )
        seq_report = IngestReport()
        par_report = IngestReport()
        seq = run_analysis(damaged, strict=False, report=seq_report)
        par = run_analysis(damaged, strict=False, report=par_report, jobs=4)
        assert_results_identical(seq, par)
        assert par_report.to_json() == seq_report.to_json()
        assert seq_report.dropped() > 0

    def test_strict_on_damaged_artifacts_same_exception(self, seed2013):
        records = list(seed2013.lsp_records)
        time, raw = records[30]
        records[30] = (time, raw[: len(raw) // 2])
        damaged = dataclasses.replace(seed2013, lsp_records=records)
        with pytest.raises(Exception) as sequential:
            run_analysis(damaged, strict=True)
        with pytest.raises(Exception) as parallel:
            run_analysis(damaged, strict=True, jobs=4)
        assert type(parallel.value) is type(sequential.value)
        assert str(parallel.value) == str(sequential.value)

    def test_jobs_one_is_the_sequential_path(self, small_dataset):
        assert_results_identical(
            run_analysis(small_dataset), run_analysis(small_dataset, jobs=1)
        )
