"""Worker-side functions of the parallel pipeline.

Everything here must be importable at module top level (process pools
pickle functions by qualified name) and must communicate through small,
cheaply picklable values: the LSP decode stage returns the listener's
own compact records (:data:`repro.isis.compact.CompactLsp`).

Workers are deliberately context-free: a syslog shard is parsed without
knowing what came before it, and a decode shard knows nothing of the
LSDB.  All sequencing — year-resolution context, LSDB acceptance, merge
order — happens in the parent (:mod:`repro.parallel.merge`), which is
what makes the results reproducible regardless of worker scheduling.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.faults.ledger import IngestReport
from repro.isis.compact import CompactLsp, decode_compact
from repro.syslog.collector import ParsedSegment, SyslogCollector


def parse_syslog_shard(
    text: str, line_base: int, offset_base: int, ingest: str = "scalar"
) -> Tuple[ParsedSegment, IngestReport]:
    """Parse one log segment without its predecessors' context.

    Always lenient: in a strict run the parent re-parses any segment with
    drops sequentially (with real context) so the first error surfaces
    exactly as a sequential run would raise it.  The returned report is
    shard-local; the parent folds accepted shards' reports into the run
    ledger in shard order.  ``ingest="columnar"`` swaps in the vectorised
    engine of :mod:`repro.columnar`; the two produce identical segments
    and ledgers on every input.
    """
    if ingest == "columnar":
        from repro.columnar import parse_log_segment_columnar as parse_segment
    else:
        parse_segment = SyslogCollector.parse_log_segment
    report = IngestReport()
    segment = parse_segment(
        text,
        strict=False,
        report=report,
        after=0.0,
        line_base=line_base,
        offset_base=offset_base,
    )
    return segment, report


def decode_lsp_shard(
    records: List[Tuple[float, bytes]], start_index: int
) -> Tuple[List[CompactLsp], List[Tuple[int, str]]]:
    """Decode one range of LSP records with :func:`decode_compact`.

    Returns ``(compact_records, errors)`` where ``errors`` carries
    ``(global_record_index, message)`` for every undecodable record —
    the parent decides (by mode) whether those become ledger entries or
    the run's first exception, then replays the records through the one
    :class:`~repro.isis.listener.IsisListener`.
    """
    system_ids: Dict[bytes, str] = {}
    compact: List[CompactLsp] = []
    errors: List[Tuple[int, str]] = []
    for position, (time, raw) in enumerate(records):
        try:
            compact.append(decode_compact(time, raw, system_ids))
        except (ValueError, struct.error) as error:
            errors.append((start_index + position, str(error)))
    return compact, errors
