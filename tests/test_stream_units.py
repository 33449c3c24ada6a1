"""Unit tests for the engine core's individual machines.

The machines now live in :mod:`repro.engine` and are shared by all
five execution modes; the conformance and equivalence suites prove the
assembled modes agree, while these tests pin the contracts of each part
in isolation — ordering guarantees of the sources, watermark semantics
of the run merger and timeline builder, frontier-driven decisions of
the matcher and flap detector, deferral rules of the sanitiser, and
JSON codec round-trips.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.events import (
    SOURCE_ISIS_IS,
    SOURCE_SYSLOG,
    FailureEvent,
    LinkMessage,
    Transition,
)
from repro.core.flapping import FlapEpisode
from repro.core.sanitize import SanitizationConfig, SanitizationReport
from repro.intervals import Interval, IntervalSet
from repro.intervals.timeline import AmbiguityStrategy
from repro.engine.flaps import FlapDetector
from repro.engine.matching import CoverageScorer, Matcher
from repro.engine.merge import RunMerger
from repro.engine.sanitize import Sanitizer
from repro.engine.timeline import TimelineBuilder
from repro.core.links import LinkResolver
from repro.faults.chaos import stream_signature
from repro import ScenarioConfig, run_scenario
from repro.stream import checkpoint as codec
from repro.stream.engine import StreamEngine, stream_dataset
from repro.stream.sources import (
    ISIS_CHANNEL,
    SYSLOG_CHANNEL,
    ReorderBuffer,
    StreamEvent,
    merge_events,
)
from repro.ticketing import TicketSystem, TroubleTicket


def message(
    time: float,
    link: str = "lk-a",
    direction: str = "down",
    reporter: str = "r1",
) -> LinkMessage:
    return LinkMessage(
        time=time,
        link=link,
        direction=direction,
        reporter=reporter,
        source=SOURCE_SYSLOG,
        category="isis",
        reason="",
    )


def transition(
    time: float, link: str = "lk-a", direction: str = "down"
) -> Transition:
    return Transition(
        time=time,
        link=link,
        direction=direction,
        source=SOURCE_ISIS_IS,
        reporters=frozenset({"r1"}),
        messages=(message(time, link, direction),),
    )


def failure(start: float, end: float, link: str = "lk-a") -> FailureEvent:
    return FailureEvent(link=link, start=start, end=end, source=SOURCE_ISIS_IS)


def event(time: float, link: str = "lk-a", reporter: str = "r1") -> StreamEvent:
    return StreamEvent(
        time, SYSLOG_CHANNEL, "isis", message(time, link, reporter=reporter)
    )


class TestReorderBuffer:
    def test_reorders_within_lateness(self):
        buffer = ReorderBuffer(lateness=10.0)
        released = []
        for item in (event(5.0), event(3.0), event(16.0), event(14.0)):
            released.extend(buffer.push(item))
        released.extend(buffer.flush())
        assert [e.time for e in released] == [3.0, 5.0, 14.0, 16.0]

    def test_ties_break_by_link_then_reporter(self):
        buffer = ReorderBuffer(lateness=0.0)
        buffer.push(event(1.0, link="lk-b", reporter="r2"))
        buffer.push(event(1.0, link="lk-a", reporter="r9"))
        buffer.push(event(1.0, link="lk-b", reporter="r1"))
        released = buffer.flush()
        assert [(e.message.link, e.message.reporter) for e in released] == [
            ("lk-a", "r9"),
            ("lk-b", "r1"),
            ("lk-b", "r2"),
        ]

    def test_violating_lateness_bound_raises(self):
        buffer = ReorderBuffer(lateness=1.0)
        buffer.push(event(0.0))
        buffer.push(event(100.0))  # releases everything through t=99
        with pytest.raises(ValueError):
            buffer.push(event(2.0))

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            ReorderBuffer(lateness=-1.0)


class TestMergeEvents:
    def test_globally_time_ordered(self):
        a = [event(1.0), event(4.0), event(9.0)]
        b = [event(2.0), event(3.0), event(8.0)]
        merged = list(merge_events([a, b]))
        assert [e.time for e in merged] == [1.0, 2.0, 3.0, 4.0, 8.0, 9.0]

    def test_equal_times_released_in_source_order(self):
        a = [StreamEvent(5.0, SYSLOG_CHANNEL, "tick")]
        b = [StreamEvent(5.0, ISIS_CHANNEL, "tick")]
        merged = list(merge_events([a, b]))
        assert [e.channel for e in merged] == [SYSLOG_CHANNEL, ISIS_CHANNEL]


class TestRunMerger:
    def test_same_direction_within_window_merges(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        assert merger.feed(message(0.0, reporter="r1")) is None
        assert merger.feed(message(10.0, reporter="r2")) is None
        closed = merger.advance(100.0)
        assert len(closed) == 1
        assert closed[0].time == 0.0
        assert closed[0].reporters == frozenset({"r1", "r2"})
        assert merger.transition_count == 1

    def test_direction_change_closes_run(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        merger.feed(message(0.0, direction="down"))
        closed = merger.feed(message(5.0, direction="up"))
        assert closed is not None and closed.direction == "down"

    def test_watermark_must_pass_window_to_close(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        merger.feed(message(0.0))
        assert merger.advance(30.0) == []  # a message at t=30 could join
        assert len(merger.advance(30.0001)) == 1

    def test_frontier_accounts_for_open_run(self):
        merger = RunMerger(30.0, SOURCE_SYSLOG)
        merger.feed(message(7.0))
        assert merger.frontier("lk-a", 20.0) == 7.0
        assert merger.frontier("lk-other", 20.0) == 20.0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            RunMerger(-1.0, SOURCE_SYSLOG)


class TestTimelineBuilder:
    def make(self, **kwargs) -> TimelineBuilder:
        defaults = dict(
            link="lk-a",
            horizon_start=0.0,
            horizon_end=1000.0,
            strategy=AmbiguityStrategy.PREVIOUS_STATE,
            source=SOURCE_ISIS_IS,
        )
        defaults.update(kwargs)
        return TimelineBuilder(**defaults)

    def test_down_up_span_becomes_failure_before_flush(self):
        timeline = self.make()
        timeline.feed(transition(100.0, direction="down"))
        timeline.feed(transition(200.0, direction="up"))
        timeline.advance(201.0)
        failures = timeline.collect()
        assert [(f.start, f.end) for f in failures] == [(100.0, 200.0)]
        assert failures[0].start_transition.time == 100.0
        assert failures[0].end_transition.time == 200.0

    def test_censored_spans_are_not_failures(self):
        # DOWN running into the end horizon: never emitted.
        timeline = self.make()
        timeline.feed(transition(100.0, direction="down"))
        timeline.flush()
        assert timeline.collect() == []

    def test_out_of_horizon_transitions_ignored(self):
        timeline = self.make()
        timeline.feed(transition(-5.0, direction="down"))
        timeline.feed(transition(100.0, direction="down"))
        timeline.feed(transition(200.0, direction="up"))
        timeline.flush()
        assert [(f.start, f.end) for f in timeline.collect()] == [(100.0, 200.0)]

    def test_equal_time_transitions_apply_down_before_up(self):
        # The batch build sorts (time, direction) pairs, so at t=200 the
        # repeated down applies before the up regardless of feed order;
        # the failure closes at 200 and the extra down is an anomaly.
        timeline = self.make()
        timeline.feed(transition(100.0, direction="down"))
        timeline.feed(transition(200.0, direction="up"))
        timeline.feed(transition(200.0, direction="down"))
        timeline.feed(transition(300.0, direction="up"))
        timeline.flush()
        assert [(f.start, f.end) for f in timeline.collect()] == [(100.0, 200.0)]
        assert timeline.anomaly_count == 2  # down@200 repeat, up@300 repeat

    def test_down_frontier_tracks_ongoing_failure(self):
        timeline = self.make()
        assert timeline.down_frontier() == math.inf
        timeline.feed(transition(100.0, direction="down"))
        timeline.advance(150.0)
        assert timeline.down_frontier() == 100.0
        timeline.feed(transition(200.0, direction="up"))
        timeline.advance(250.0)
        timeline.collect()
        assert timeline.down_frontier() == math.inf


class TestMatcher:
    def test_pair_decided_once_frontiers_pass(self):
        matcher = Matcher(10.0)
        matcher.feed("a", failure(100.0, 200.0))
        matcher.feed("b", failure(103.0, 205.0))
        matcher.advance(lambda _l: 120.0, lambda _l: 120.0)
        assert len(matcher.pairs) == 0  # b frontier hasn't cleared fa.end
        matcher.advance(lambda _l: 300.0, lambda _l: 300.0)
        assert len(matcher.pairs) == 1
        assert matcher.pending_count == 0

    def test_only_b_waits_for_undecided_a(self):
        matcher = Matcher(10.0)
        matcher.feed("b", failure(100.0, 200.0))
        # The a channel's frontier is behind fb.start + window: an a
        # failure could still arrive and consume fb.
        matcher.advance(lambda _l: 105.0, lambda _l: 300.0)
        assert matcher.only_b == []
        matcher.advance(lambda _l: 300.0, lambda _l: 300.0)
        assert [f.start for f in matcher.only_b] == [100.0]

    def test_flush_decides_everything(self):
        matcher = Matcher(10.0)
        matcher.feed("a", failure(100.0, 200.0))
        matcher.feed("b", failure(500.0, 600.0))
        matcher.flush()
        result = matcher.result()
        assert result.pairs == []
        assert [f.start for f in result.only_a] == [100.0]
        assert [f.start for f in result.only_b] == [500.0]

    def test_partial_overlap_accounting(self):
        matcher = Matcher(10.0)
        matcher.feed("a", failure(100.0, 200.0))
        matcher.feed("b", failure(150.0, 400.0))  # overlaps, far from matching
        matcher.flush()
        result = matcher.result()
        assert [f.start for f in result.partial_a] == [100.0]
        assert [f.start for f in result.partial_b] == [150.0]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            Matcher(-1.0)


class TestCoverageScorer:
    def test_counts_distinct_reporters_in_window(self):
        coverage = CoverageScorer(10.0, 30.0)
        coverage.feed(message(95.0, reporter="r1"))
        coverage.feed(message(105.0, reporter="r2"))
        coverage.feed(transition(100.0, direction="down"))
        coverage.advance(200.0)
        assert coverage.counts["down"][2] == 1
        assert coverage.result().unmatched == []

    def test_unmatched_transition_recorded(self):
        coverage = CoverageScorer(10.0, 30.0)
        coverage.feed(transition(100.0, direction="down"))
        coverage.flush()
        assert coverage.counts["down"][0] == 1
        assert [t.time for t in coverage.result().unmatched] == [100.0]

    def test_rings_prune_as_watermark_advances(self):
        coverage = CoverageScorer(10.0, 30.0)
        for t in range(0, 1000, 50):
            coverage.feed(message(float(t)))
            coverage.advance(float(t))
        assert coverage.message_buffer_size < 5


class TestSanitizer:
    def test_short_failure_released_immediately(self):
        sanitizer = Sanitizer(
            IntervalSet(), TicketSystem(), SanitizationConfig()
        )
        released = sanitizer.feed(failure(100.0, 200.0), watermark=150.0)
        assert [f.start for f in released] == [100.0]
        assert sanitizer.held_count == 0

    def test_listener_outage_overlap_dropped(self):
        outages = IntervalSet([Interval(150.0, 160.0)])
        sanitizer = Sanitizer(outages, None, SanitizationConfig())
        released = sanitizer.feed(failure(100.0, 200.0), watermark=300.0)
        assert released == []
        assert [f.start for f in sanitizer.report.removed_listener_overlap] == [
            100.0
        ]

    def test_long_failure_held_until_ticket_horizon(self):
        config = SanitizationConfig()
        day, slack = config.long_failure_threshold, config.ticket_slack
        tickets = TicketSystem(
            [TroubleTicket("t1", "lk-a", 0.0, day + 1000.0, "outage")]
        )
        sanitizer = Sanitizer(IntervalSet(), tickets, config)
        long_failure = failure(0.0, day + 1000.0)
        assert sanitizer.feed(long_failure, watermark=day + 1000.0) == []
        assert sanitizer.held_frontier("lk-a") == 0.0
        # Watermark at end + slack: a later-slack ticket could still exist.
        assert sanitizer.advance(long_failure.end + slack) == []
        released = sanitizer.advance(long_failure.end + slack + 1.0)
        assert [f.start for f in released] == [0.0]
        assert [f.start for f in sanitizer.report.verified_long] == [0.0]

    def test_unverified_long_failure_dropped_at_horizon(self):
        config = SanitizationConfig()
        sanitizer = Sanitizer(IntervalSet(), TicketSystem(), config)
        long_failure = failure(0.0, config.long_failure_threshold + 5.0)
        sanitizer.feed(long_failure, watermark=long_failure.end)
        assert sanitizer.flush() == []
        assert [f.start for f in sanitizer.report.removed_unverified_long] == [
            0.0
        ]

    def test_held_long_failure_queues_followers(self):
        config = SanitizationConfig()
        tickets = TicketSystem()
        sanitizer = Sanitizer(IntervalSet(), tickets, config)
        long_failure = failure(0.0, config.long_failure_threshold + 5.0)
        short_after = failure(config.long_failure_threshold + 10.0,
                              config.long_failure_threshold + 20.0)
        sanitizer.feed(long_failure, watermark=short_after.end)
        # The short failure is decidable, but releasing it before the held
        # long one would break per-link start order downstream.
        assert sanitizer.feed(short_after, watermark=short_after.end) == []
        released = sanitizer.flush()
        assert [f.start for f in released] == [short_after.start]

    def test_no_tickets_means_no_deferral(self):
        config = SanitizationConfig()
        sanitizer = Sanitizer(IntervalSet(), None, config)
        long_failure = failure(0.0, config.long_failure_threshold + 5.0)
        released = sanitizer.feed(long_failure, watermark=long_failure.end)
        assert [f.start for f in released] == [0.0]

    def test_finalized_report_sorted(self):
        sanitizer = Sanitizer(IntervalSet(), None, SanitizationConfig())
        sanitizer.feed(failure(300.0, 400.0, link="lk-b"), watermark=500.0)
        sanitizer.feed(failure(100.0, 200.0, link="lk-a"), watermark=500.0)
        report = sanitizer.finalized_report()
        assert isinstance(report, SanitizationReport)
        assert [f.start for f in report.kept] == [100.0, 300.0]


class TestFlapDetector:
    def test_rapid_failures_form_episode(self):
        detector = FlapDetector(600.0)
        detector.feed(failure(0.0, 10.0))
        detector.feed(failure(100.0, 110.0))
        detector.feed(failure(200.0, 210.0))
        detector.advance(lambda _l: 10000.0)
        episodes = detector.result()
        assert [(e.start, e.end, e.failure_count) for e in episodes] == [
            (0.0, 210.0, 3)
        ]

    def test_single_failure_is_not_an_episode(self):
        detector = FlapDetector(600.0)
        detector.feed(failure(0.0, 10.0))
        detector.flush()
        assert detector.result() == []

    def test_run_not_closed_while_frontier_is_near(self):
        detector = FlapDetector(600.0)
        detector.feed(failure(0.0, 10.0))
        detector.feed(failure(100.0, 110.0))
        detector.advance(lambda _l: 500.0)  # a failure at 500 could extend it
        assert detector.open_run_count == 1
        detector.advance(lambda _l: 710.0)
        assert detector.open_run_count == 0
        assert len(detector.result()) == 1

    def test_gap_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            FlapDetector(0.0)


class TestCodecs:
    def roundtrip(self, encoded):
        return json.loads(json.dumps(encoded))

    def test_message_roundtrip(self):
        m = message(123.456, link="lk-z", reporter="r7")
        assert codec.decode_message(self.roundtrip(codec.encode_message(m))) == m

    def test_transition_roundtrip_preserves_reporters_and_messages(self):
        t = Transition(
            time=5.0,
            link="lk-a",
            direction="up",
            source=SOURCE_ISIS_IS,
            reporters=frozenset({"r2", "r1"}),
            messages=(message(5.0), message(6.0, reporter="r2")),
        )
        back = codec.decode_transition(self.roundtrip(codec.encode_transition(t)))
        assert back == t
        assert back.reporters == frozenset({"r1", "r2"})

    def test_failure_roundtrip_with_attached_transitions(self):
        f = FailureEvent(
            link="lk-a",
            start=10.0,
            end=20.0,
            source=SOURCE_ISIS_IS,
            start_transition=transition(10.0, direction="down"),
            end_transition=transition(20.0, direction="up"),
        )
        assert codec.decode_failure(self.roundtrip(codec.encode_failure(f))) == f
        bare = failure(1.0, 2.0)
        assert (
            codec.decode_failure(self.roundtrip(codec.encode_failure(bare)))
            == bare
        )

    def test_episode_roundtrip(self):
        e = FlapEpisode(link="lk-a", start=0.0, end=100.0, failure_count=4)
        assert codec.decode_episode(self.roundtrip(codec.encode_episode(e))) == e

    def test_report_roundtrip(self):
        report = SanitizationReport()
        report.kept = [failure(1.0, 2.0)]
        report.removed_unverified_long = [failure(3.0, 100000.0)]
        back = codec.decode_report(self.roundtrip(codec.encode_report(report)))
        assert back.kept == report.kept
        assert back.removed_unverified_long == report.removed_unverified_long
        assert back.removed_listener_overlap == []
        assert back.verified_long == []

    def test_float_exactness_survives_json(self):
        # Shortest-round-trip decimal: every float comes back bit-identical.
        times = [0.1 + 0.2, 1e-17, 86400.000000001, 2**53 + 0.0]
        for t in times:
            assert json.loads(json.dumps(t)) == t


def _reachable_failures(engine):
    """Every failure object an engine's machines hold, with repeats."""
    for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
        yield from engine.raw_failures[channel]
        for timeline in engine.timelines[channel].values():
            yield from timeline.emitted
        sanitizer = engine.sanitizers[channel]
        yield from sanitizer.report.kept
        yield from sanitizer.report.removed_listener_overlap
        yield from sanitizer.report.removed_unverified_long
        yield from sanitizer.report.verified_long
        for queue in sanitizer.held.values():
            yield from queue
    matcher = engine.matcher
    for fa, fb in matcher.pairs:
        yield fa
        yield fb
    yield from matcher.only_a
    yield from matcher.only_b
    yield from matcher.partial_a
    yield from matcher.partial_b
    for state in matcher.links.values():
        yield from state.a_all
        yield from state.b_all


class TestFailureTable:
    """A seed-7 stream cut mid-run: one table entry per failure object."""

    @pytest.fixture(scope="class")
    def cut(self):
        dataset = run_scenario(ScenarioConfig(seed=7, duration_days=10.0))
        clean = stream_dataset(dataset)
        taken = []

        def take(engine):
            failures = list(_reachable_failures(engine))
            distinct = len({id(failure) for failure in failures})
            state = json.loads(json.dumps(engine.checkpoint_state()))
            taken.append((state, len(failures), distinct))

        stream_dataset(
            dataset,
            checkpoint_at=[clean.counters["events"] // 2],
            on_checkpoint=take,
        )
        (taken,) = taken
        return dataset, stream_signature(clean), taken

    def test_table_holds_each_failure_once(self, cut):
        _, _, (state, held, distinct) = cut
        assert state["version"] == codec.CHECKPOINT_VERSION
        assert held > distinct > 0  # the lists really do share objects
        assert len(state["failures"]) == distinct

    def test_restore_shares_kept_failures_across_machines(self, cut):
        dataset, _, (state, _, _) = cut
        engine = StreamEngine.restore(
            state,
            LinkResolver(dataset.inventory),
            dataset.listener_outages,
            dataset.tickets,
        )
        kept = engine.sanitizers[SYSLOG_CHANNEL].report.kept
        assert kept
        raw = {id(failure) for failure in engine.raw_failures[SYSLOG_CHANNEL]}
        for failure in kept:
            assert id(failure) in raw
            a_all = engine.matcher.links[failure.link].a_all
            assert any(other is failure for other in a_all)

    def test_resume_from_cut_is_identical(self, cut):
        dataset, clean, (state, _, _) = cut
        resumed = stream_dataset(dataset, resume_state=state)
        assert stream_signature(resumed) == clean


class TestStreamOptions:
    def test_drain_interval_validated(self):
        from repro.stream.engine import StreamOptions

        with pytest.raises(ValueError):
            StreamOptions(drain_interval=0)
