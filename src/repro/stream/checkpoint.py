"""Checkpoint/resume: the engine's entire state as a JSON document.

Everything a :class:`~repro.stream.engine.StreamEngine` holds — open
message runs, per-link timeline machines, held failures awaiting their
ticket horizon, undecided match candidates, coverage rings, flap runs,
accumulated results — round-trips through plain JSON.  Floats survive
exactly (JSON carries them as shortest-round-trip decimal), frozensets
become sorted lists, and sentinel infinities become ``null``, so a
restored engine is value-identical to the checkpointed one and the
resumed stream finishes with byte-identical results; the test suite cuts
streams at arbitrary points to enforce this.

One :class:`~repro.core.events.FailureEvent` object is usually held by
several machines at once: the raw list, the sanitiser's report, the
matcher's per-link lists and its decisions.  The document therefore
carries a single ``failures`` table, each distinct failure encoded once,
and every list of failures is a list of indices into it.  Decoding
resolves the indices against one decoded table, so the restored engine
shares failure objects across its machines exactly as the live one did.

The document also records how many events the engine had consumed.
Event delivery is deterministic (the merge's tie-breaks are fixed), so
resuming is simply: rebuild the engine, skip that many events, continue.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

from repro.core.events import FailureEvent, LinkMessage, Transition
from repro.core.flapping import FlapEpisode
from repro.core.links import LinkResolver
from repro.core.matching import MatchConfig
from repro.core.pipeline import AnalysisOptions
from repro.core.sanitize import SanitizationConfig, SanitizationReport
from repro.core.extract_isis import IsisExtractionConfig
from repro.core.extract_syslog import SyslogExtractionConfig
from repro.intervals import IntervalSet
from repro.intervals.timeline import AmbiguityStrategy, LinkState
from repro.ticketing import TicketSystem

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """A checkpoint document is unreadable or incompatible."""


# ------------------------------------------------------------- event codecs
def encode_message(message: LinkMessage) -> List[Any]:
    return [
        message.time,
        message.link,
        message.direction,
        message.reporter,
        message.source,
        message.category,
        message.reason,
    ]


def decode_message(raw: List[Any]) -> LinkMessage:
    time, link, direction, reporter, source, category, reason = raw
    return LinkMessage(
        time=time,
        link=link,
        direction=direction,
        reporter=reporter,
        source=source,
        category=category,
        reason=reason,
    )


def encode_transition(transition: Transition) -> List[Any]:
    return [
        transition.time,
        transition.link,
        transition.direction,
        transition.source,
        sorted(transition.reporters),
        [encode_message(message) for message in transition.messages],
    ]


def decode_transition(raw: List[Any]) -> Transition:
    time, link, direction, source, reporters, messages = raw
    return Transition(
        time=time,
        link=link,
        direction=direction,
        source=source,
        reporters=frozenset(reporters),
        messages=tuple(decode_message(message) for message in messages),
    )


def encode_failure(failure: FailureEvent) -> List[Any]:
    return [
        failure.link,
        failure.start,
        failure.end,
        failure.source,
        None
        if failure.start_transition is None
        else encode_transition(failure.start_transition),
        None
        if failure.end_transition is None
        else encode_transition(failure.end_transition),
    ]


def decode_failure(raw: List[Any]) -> FailureEvent:
    link, start, end, source, start_transition, end_transition = raw
    return FailureEvent(
        link=link,
        start=start,
        end=end,
        source=source,
        start_transition=None
        if start_transition is None
        else decode_transition(start_transition),
        end_transition=None
        if end_transition is None
        else decode_transition(end_transition),
    )


def encode_episode(episode: FlapEpisode) -> List[Any]:
    return [episode.link, episode.start, episode.end, episode.failure_count]


def decode_episode(raw: List[Any]) -> FlapEpisode:
    link, start, end, failure_count = raw
    return FlapEpisode(link=link, start=start, end=end, failure_count=failure_count)


def encode_report(report: SanitizationReport) -> Dict[str, Any]:
    return {
        "kept": [encode_failure(f) for f in report.kept],
        "removed_listener_overlap": [
            encode_failure(f) for f in report.removed_listener_overlap
        ],
        "removed_unverified_long": [
            encode_failure(f) for f in report.removed_unverified_long
        ],
        "verified_long": [encode_failure(f) for f in report.verified_long],
    }


def decode_report(raw: Dict[str, Any]) -> SanitizationReport:
    report = SanitizationReport()
    report.kept = [decode_failure(f) for f in raw["kept"]]
    report.removed_listener_overlap = [
        decode_failure(f) for f in raw["removed_listener_overlap"]
    ]
    report.removed_unverified_long = [
        decode_failure(f) for f in raw["removed_unverified_long"]
    ]
    report.verified_long = [decode_failure(f) for f in raw["verified_long"]]
    return report


def _encode_maybe_inf(value: float) -> Optional[float]:
    # JSON has no infinities; the engine's pre-first-event watermark is
    # the only non-finite value in its state.
    return None if math.isinf(value) else value


def _decode_watermark(raw: Optional[float]) -> float:
    return -math.inf if raw is None else raw


# ------------------------------------------------------------ failure table
class _FailureTable:
    """Each distinct failure object, encoded once and keyed by identity.

    Every failure is alive in the engine while the document is built, so
    ``id()`` cannot be reused by another object mid-encode.
    """

    def __init__(self) -> None:
        self.slots: Dict[int, int] = {}
        self.encoded: List[Any] = []

    def ref(self, failure: FailureEvent) -> int:
        slot = self.slots.get(id(failure))
        if slot is None:
            slot = self.slots[id(failure)] = len(self.encoded)
            self.encoded.append(encode_failure(failure))
        return slot

    def refs(self, failures: Iterable[FailureEvent]) -> List[int]:
        return [self.ref(failure) for failure in failures]


def _resolve(failures: List[FailureEvent], refs: List[Any]) -> List[FailureEvent]:
    """The table entries ``refs`` name; a bad reference is structural damage."""
    resolved: List[FailureEvent] = []
    for ref in refs:
        if type(ref) is not int or not 0 <= ref < len(failures):
            raise CheckpointError(
                f"checkpoint structure invalid: failure reference {ref!r} "
                f"outside the {len(failures)}-entry table"
            )
        resolved.append(failures[ref])
    return resolved


# ----------------------------------------------------------- options codec
def encode_options(options: "StreamOptions") -> Dict[str, Any]:  # noqa: F821
    analysis = options.analysis
    return {
        "drain_interval": options.drain_interval,
        "syslog": {
            "merge_window": analysis.syslog.merge_window,
            "strategy": analysis.syslog.strategy.value,
        },
        "isis": {
            "merge_window": analysis.isis.merge_window,
            "strategy": analysis.isis.strategy.value,
        },
        "matching": {"window": analysis.matching.window},
        "sanitization": {
            "long_failure_threshold": analysis.sanitization.long_failure_threshold,
            "ticket_slack": analysis.sanitization.ticket_slack,
        },
        "flap_gap_threshold": analysis.flap_gap_threshold,
    }


def decode_options(raw: Dict[str, Any]) -> "StreamOptions":  # noqa: F821
    from repro.stream.engine import StreamOptions

    return StreamOptions(
        analysis=AnalysisOptions(
            syslog=SyslogExtractionConfig(
                merge_window=raw["syslog"]["merge_window"],
                strategy=AmbiguityStrategy(raw["syslog"]["strategy"]),
            ),
            isis=IsisExtractionConfig(
                merge_window=raw["isis"]["merge_window"],
                strategy=AmbiguityStrategy(raw["isis"]["strategy"]),
            ),
            matching=MatchConfig(window=raw["matching"]["window"]),
            sanitization=SanitizationConfig(
                long_failure_threshold=raw["sanitization"][
                    "long_failure_threshold"
                ],
                ticket_slack=raw["sanitization"]["ticket_slack"],
            ),
            flap_gap_threshold=raw["flap_gap_threshold"],
        ),
        drain_interval=raw["drain_interval"],
    )


# ------------------------------------------------------------ engine codec
def encode_engine(engine: "StreamEngine") -> Dict[str, Any]:  # noqa: F821
    from repro.stream.engine import MERGER_KEYS
    from repro.stream.sources import ISIS_CHANNEL, SYSLOG_CHANNEL

    if engine.finished:
        raise CheckpointError("a finished engine cannot be checkpointed")
    table = _FailureTable()
    return {
        "version": CHECKPOINT_VERSION,
        "options": encode_options(engine.options),
        "horizon_start": engine.horizon_start,
        "horizon_end": engine.horizon_end,
        "watermark": _encode_maybe_inf(engine.watermark),
        "events_consumed": engine.events_consumed,
        "counters": dict(engine.counters),
        "mergers": {
            key: _encode_merger(engine.mergers[key]) for key in MERGER_KEYS
        },
        "timelines": {
            channel: {
                link: _encode_timeline(timeline, table)
                for link, timeline in sorted(engine.timelines[channel].items())
            }
            for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL)
        },
        "sanitizers": {
            channel: _encode_sanitizer(engine.sanitizers[channel], table)
            for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL)
        },
        "matcher": _encode_matcher(engine.matcher, table),
        "coverage": _encode_coverage(engine.coverage),
        "flaps": _encode_flaps(engine.flaps),
        "raw_failures": {
            channel: table.refs(engine.raw_failures[channel])
            for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL)
        },
        "failures": table.encoded,
    }


def decode_engine(
    state: Dict[str, Any],
    resolver: LinkResolver,
    listener_outages: IntervalSet,
    tickets: Optional[TicketSystem],
) -> "StreamEngine":  # noqa: F821
    from repro.stream.engine import MERGER_KEYS, StreamEngine
    from repro.stream.sources import ISIS_CHANNEL, SYSLOG_CHANNEL

    if not isinstance(state, dict):
        raise CheckpointError(
            f"checkpoint document is {type(state).__name__}, not an object"
        )
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    # A version-tagged document can still be structurally mangled (a torn
    # write, a bit flip that survived JSON) — decoding it must fail as a
    # typed CheckpointError the caller can fall back from, never as a
    # bare KeyError/TypeError deep inside a codec.
    try:
        failures = [decode_failure(f) for f in state["failures"]]
        engine = StreamEngine(
            resolver,
            state["horizon_start"],
            state["horizon_end"],
            listener_outages,
            tickets,
            decode_options(state["options"]),
        )
        engine.watermark = _decode_watermark(state["watermark"])
        engine.events_consumed = state["events_consumed"]
        engine.counters = dict(state["counters"])
        for key in MERGER_KEYS:
            _decode_merger(engine.mergers[key], state["mergers"][key])
        for channel in (SYSLOG_CHANNEL, ISIS_CHANNEL):
            for link, raw_timeline in state["timelines"][channel].items():
                engine.timelines[channel][link] = _decode_timeline(
                    engine, channel, link, raw_timeline, failures
                )
            _decode_sanitizer(
                engine.sanitizers[channel], state["sanitizers"][channel], failures
            )
            engine.raw_failures[channel] = _resolve(
                failures, state["raw_failures"][channel]
            )
        _decode_matcher(engine.matcher, state["matcher"], failures)
        _decode_coverage(engine.coverage, state["coverage"])
        _decode_flaps(engine.flaps, state["flaps"])
    except CheckpointError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"checkpoint structure invalid at {type(error).__name__}: {error}"
        ) from error
    return engine


# ------------------------------------------------------- component codecs
def _encode_merger(merger: "RunMerger") -> Dict[str, Any]:  # noqa: F821
    return {
        "transition_count": merger.transition_count,
        "open_runs": {
            link: [encode_message(m) for m in run]
            for link, run in sorted(merger.open_runs.items())
        },
    }


def _decode_merger(
    merger: "RunMerger", raw: Dict[str, Any]  # noqa: F821
) -> None:
    merger.transition_count = raw["transition_count"]
    for link, run in raw["open_runs"].items():
        merger.open_runs[link] = [decode_message(m) for m in run]


def _encode_sanitizer(
    sanitizer: "Sanitizer", table: _FailureTable  # noqa: F821
) -> Dict[str, Any]:
    return {
        "report": _encode_report_refs(sanitizer.report, table),
        "held": {
            link: table.refs(queue)
            for link, queue in sorted(sanitizer.held.items())
        },
    }


def _decode_sanitizer(
    sanitizer: "Sanitizer",  # noqa: F821
    raw: Dict[str, Any],
    failures: List[FailureEvent],
) -> None:
    sanitizer.report = _decode_report_refs(raw["report"], failures)
    for link, queue in raw["held"].items():
        sanitizer.held[link] = deque(_resolve(failures, queue))


def _encode_report_refs(
    report: SanitizationReport, table: _FailureTable
) -> Dict[str, Any]:
    return {
        "kept": table.refs(report.kept),
        "removed_listener_overlap": table.refs(report.removed_listener_overlap),
        "removed_unverified_long": table.refs(report.removed_unverified_long),
        "verified_long": table.refs(report.verified_long),
    }


def _decode_report_refs(
    raw: Dict[str, Any], failures: List[FailureEvent]
) -> SanitizationReport:
    report = SanitizationReport()
    report.kept = _resolve(failures, raw["kept"])
    report.removed_listener_overlap = _resolve(
        failures, raw["removed_listener_overlap"]
    )
    report.removed_unverified_long = _resolve(
        failures, raw["removed_unverified_long"]
    )
    report.verified_long = _resolve(failures, raw["verified_long"])
    return report


def _encode_timeline(
    timeline: "TimelineBuilder", table: _FailureTable  # noqa: F821
) -> Dict[str, Any]:
    return {
        "cursor": timeline.cursor,
        "state": timeline.state.value,
        "last_message_time": timeline.last_message_time,
        "tail": None
        if timeline.tail is None
        else [timeline.tail[0], timeline.tail[1], timeline.tail[2].value],
        "pending": [encode_transition(t) for t in timeline.pending],
        "pending_time": timeline.pending_time,
        "index": [
            [time, direction, encode_transition(transition)]
            for (time, direction), transition in sorted(timeline.index.items())
        ],
        "anomaly_count": timeline.anomaly_count,
        "emitted": table.refs(timeline.emitted),
        "flushed": timeline.flushed,
    }


def _decode_timeline(
    engine: "StreamEngine",  # noqa: F821
    channel: str,
    link: str,
    raw: Dict[str, Any],
    failures: List[FailureEvent],
) -> "TimelineBuilder":  # noqa: F821
    from repro.core.events import SOURCE_ISIS_IS, SOURCE_SYSLOG
    from repro.stream.sources import SYSLOG_CHANNEL
    from repro.engine.timeline import TimelineBuilder

    timeline = TimelineBuilder(
        link,
        engine.horizon_start,
        engine.horizon_end,
        engine.options.analysis.syslog.strategy
        if channel == SYSLOG_CHANNEL
        else engine.options.analysis.isis.strategy,
        SOURCE_SYSLOG if channel == SYSLOG_CHANNEL else SOURCE_ISIS_IS,
    )
    timeline.cursor = raw["cursor"]
    timeline.state = LinkState(raw["state"])
    timeline.last_message_time = raw["last_message_time"]
    tail = raw["tail"]
    timeline.tail = (
        None if tail is None else (tail[0], tail[1], LinkState(tail[2]))
    )
    timeline.pending = [decode_transition(t) for t in raw["pending"]]
    timeline.pending_time = raw["pending_time"]
    timeline.index = {
        (time, direction): decode_transition(transition)
        for time, direction, transition in raw["index"]
    }
    timeline.anomaly_count = raw["anomaly_count"]
    timeline.emitted = _resolve(failures, raw["emitted"])
    timeline.flushed = raw["flushed"]
    return timeline


def _encode_matcher(
    matcher: "Matcher", table: _FailureTable  # noqa: F821
) -> Dict[str, Any]:
    return {
        "pairs": [[table.ref(fa), table.ref(fb)] for fa, fb in matcher.pairs],
        "only_a": table.refs(matcher.only_a),
        "only_b": table.refs(matcher.only_b),
        "partial_a": table.refs(matcher.partial_a),
        "partial_b": table.refs(matcher.partial_b),
        "links": {
            link: {
                "a_pending": len(state.a_pending),
                "b_pending": list(state.b_pending),
                "a_all": table.refs(state.a_all),
                "b_all": table.refs(state.b_all),
                "b_consumed": list(state.b_consumed),
            }
            for link, state in sorted(matcher.links.items())
        },
    }


def _decode_matcher(
    matcher: "Matcher",  # noqa: F821
    raw: Dict[str, Any],
    failures: List[FailureEvent],
) -> None:
    pairs = [_resolve(failures, pair) for pair in raw["pairs"]]
    matcher.pairs = [(fa, fb) for fa, fb in pairs]
    matcher.only_a = _resolve(failures, raw["only_a"])
    matcher.only_b = _resolve(failures, raw["only_b"])
    matcher.partial_a = _resolve(failures, raw["partial_a"])
    matcher.partial_b = _resolve(failures, raw["partial_b"])
    for link, raw_state in raw["links"].items():
        state = matcher._state(link)
        state.a_all = _resolve(failures, raw_state["a_all"])
        state.b_all = _resolve(failures, raw_state["b_all"])
        state.b_consumed = list(raw_state["b_consumed"])
        # a_pending is always the trailing slice of a_all (decisions pop
        # from the front in arrival order), so its length suffices.
        pending = raw_state["a_pending"]
        state.a_pending = deque(
            state.a_all[len(state.a_all) - pending :] if pending else []
        )
        state.b_pending = deque(raw_state["b_pending"])


def _encode_coverage(coverage: "CoverageScorer") -> Dict[str, Any]:  # noqa: F821
    return {
        "counts": {
            direction: {str(bucket): count for bucket, count in buckets.items()}
            for direction, buckets in coverage.counts.items()
        },
        "unmatched": [encode_transition(t) for t in coverage.unmatched],
        "pending": [encode_transition(t) for t in coverage.pending],
        "messages": [
            [link, direction, [[time, reporter] for time, reporter in ring]]
            for (link, direction), ring in sorted(coverage.messages.items())
        ],
    }


def _decode_coverage(
    coverage: "CoverageScorer", raw: Dict[str, Any]  # noqa: F821
) -> None:
    coverage.counts = {
        direction: {int(bucket): count for bucket, count in buckets.items()}
        for direction, buckets in raw["counts"].items()
    }
    coverage.unmatched = [decode_transition(t) for t in raw["unmatched"]]
    coverage.pending = deque(decode_transition(t) for t in raw["pending"])
    for link, direction, ring in raw["messages"]:
        coverage.messages[(link, direction)] = deque(
            (time, reporter) for time, reporter in ring
        )


def _encode_flaps(flaps: "FlapDetector") -> Dict[str, Any]:  # noqa: F821
    return {
        "episodes": [encode_episode(e) for e in flaps.episodes],
        "runs": {
            link: [run.start, run.end, run.count]
            for link, run in sorted(flaps.runs.items())
        },
    }


def _decode_flaps(
    flaps: "FlapDetector", raw: Dict[str, Any]  # noqa: F821
) -> None:
    from repro.engine.flaps import FlapRun

    flaps.episodes = [decode_episode(e) for e in raw["episodes"]]
    for link, (start, end, count) in raw["runs"].items():
        run = FlapRun.__new__(FlapRun)
        run.start = start
        run.end = end
        run.count = count
        flaps.runs[link] = run


# -------------------------------------------------------------- file I/O
def save_checkpoint(path: str, engine: "StreamEngine") -> None:  # noqa: F821
    """Write the engine's full state to ``path`` as JSON, atomically.

    The document is written to a sibling temp file and renamed into
    place, so a crash mid-write (the exact scenario checkpoints exist
    for) leaves the previous checkpoint intact rather than a torn file.
    """
    # One C-encoder pass: ``json.dump`` would stream the document through
    # the pure-Python iterencode, several times slower on a large engine.
    text = json.dumps(engine.checkpoint_state(), separators=(",", ":"))
    temp_path = f"{path}.tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read a checkpoint document; raises :class:`CheckpointError` if bad.

    Every corruption mode a crashed or interrupted writer can produce —
    unreadable file, truncated or garbled JSON, a document of the wrong
    shape, an unknown version — surfaces as a :class:`CheckpointError`
    whose message names the file and what is wrong with it, so ``repro
    stream --resume`` can report it and the caller can fall back to a
    fresh run.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    try:
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON ({error}); the file is "
            f"corrupt or was truncated mid-write"
        ) from error
    if not isinstance(document, dict) or "version" not in document:
        raise CheckpointError(f"{path} is not a checkpoint document")
    version = document["version"]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r}, which is not "
            f"supported (expected {CHECKPOINT_VERSION})"
        )
    return document
