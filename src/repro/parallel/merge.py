"""Parent-side folds that make sharded ingest byte-identical.

Each function here reassembles worker output into exactly what the
sequential ingest would have produced, and documents why the
reassembly is exact.  Two arguments carry it:

* **Context re-parse** (syslog): a segment parsed without its
  predecessors' year-resolution context is accepted only when that
  context provably could not have changed a single line's outcome;
  otherwise the segment is re-parsed sequentially (rare — it requires
  the log to jump back in time across a shard boundary by more than the
  transport-skew slack, or a drop whose reason is context-dependent).
* **State replay** (IS-IS): decoding is context-free and sharded; the
  stateful part — LSDB acceptance and reachability diffing — runs in
  the parent, which feeds the workers' compact records in record order
  to :meth:`repro.isis.listener.IsisListener.observe_compact`, the same
  machine the sequential replay drives.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.ledger import CHANNEL_ISIS, CHANNEL_SYSLOG, IngestReport
from repro.isis.compact import CompactLsp, decode_compact
from repro.isis.listener import IsisListener, ReachabilityChange
from repro.parallel.sharding import LogSegment
from repro.syslog.collector import CollectedEntry, ParsedSegment, SyslogCollector
from repro.util.timefmt import _YEAR_RESOLUTION_SLACK

#: The one lenient drop reason whose verdict depends on parse context
#: (how far the log has progressed): everything else — malformed lines,
#: PRI range, impossible dates — is decided by the line alone.
_CONTEXT_DEPENDENT_REASON = "timestamp-out-of-range"


def segment_needs_reparse(
    latest: float,
    parsed: ParsedSegment,
    shard_report: IngestReport,
    *,
    strict: bool,
) -> bool:
    """Decide whether a context-free segment parse can be trusted.

    ``latest`` is the running maximum timestamp over everything before
    the segment (what a sequential parse would pass as ``after``).  The
    worker parsed with ``after=0.0``, so acceptance requires proving the
    missing context changes nothing:

    * Every timestamp the worker parsed must sit at or above
      ``latest - slack``.  Then (a) no line the worker parsed would have
      been rejected as out-of-range sequentially, and (b) the worker's
      chosen candidate year for each line lies in the sequential
      eligible set, whose minimum it therefore still is — the candidate
      sets only shrink from below as ``after`` grows.
    * In strict mode, any worker drop at all forces a sequential
      re-parse: the sequential run would have *raised* at that line, and
      the re-parse reproduces the exact exception.
    * In lenient mode, an out-of-range drop forces a re-parse: with the
      real (larger) ``after`` the candidate-year window extends further,
      so the line might parse sequentially.  All other drop reasons are
      line-local and keep their verdicts.
    """
    if parsed.min_parsed is not None and (
        latest > parsed.min_parsed + _YEAR_RESOLUTION_SLACK
    ):
        return True
    if strict:
        return shard_report.dropped() > 0
    return _CONTEXT_DEPENDENT_REASON in shard_report.reasons(CHANNEL_SYSLOG)


def merge_parsed_segments(
    shards: Sequence[Tuple[LogSegment, ParsedSegment, IngestReport]],
    *,
    strict: bool = True,
    report: Optional[IngestReport] = None,
    ingest: str = "scalar",
) -> List[CollectedEntry]:
    """Fold context-free segment parses into one sequential-order parse.

    ``shards`` must be in file order.  Accepted segments contribute their
    entries verbatim and their drop records in order; rejected ones are
    re-parsed with the true context (in strict mode this re-raises the
    sequential run's first error at its original line).  ``ingest``
    selects the engine for those re-parses; both engines raise and drop
    identically, so it affects wall-clock only.
    """
    if ingest == "columnar":
        from repro.columnar import parse_log_segment_columnar as parse_segment
    else:
        parse_segment = SyslogCollector.parse_log_segment
    entries: List[CollectedEntry] = []
    latest = 0.0
    for segment, parsed, shard_report in shards:
        if segment_needs_reparse(latest, parsed, shard_report, strict=strict):
            parsed = parse_segment(
                segment.text,
                strict=strict,
                report=report,
                after=latest,
                line_base=segment.line_base,
                offset_base=segment.offset_base,
            )
        elif report is not None:
            report.merge_from(shard_report)
        entries.extend(parsed.entries)
        latest = max(latest, parsed.latest)
    return entries


def replay_lsp_shards(
    shards: Sequence[Tuple[List[CompactLsp], List[Tuple[int, str]]]],
    raw_records: Sequence[Tuple[float, bytes]],
    *,
    strict: bool = True,
    report: Optional[IngestReport] = None,
) -> Tuple[List[ReachabilityChange], int]:
    """Replay decode shards, in record order, through one listener.

    Returns ``(changes, rejected_count)`` exactly as
    :func:`repro.core.extract_isis.replay_lsp_records` would.  In strict
    mode the first undecodable record is re-decoded here so the original
    exception (type, message, traceback origin) is raised, not a
    description of it.
    """
    errors = sorted(
        error for _, shard_errors in shards for error in shard_errors
    )
    if errors and strict:
        first_index, first_message = errors[0]
        decode_compact(*raw_records[first_index])
        raise ValueError(first_message)
    if report is not None:
        for index, message in errors:
            report.record(
                CHANNEL_ISIS, "lsp-decode", index=index, sample=message
            )
    listener = IsisListener()
    for compact, _ in shards:
        for record in compact:
            listener.observe_compact(record)
    return listener.changes, listener.rejected_count
