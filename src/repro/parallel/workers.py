"""Worker-side functions of the parallel pipeline.

Everything here must be importable at module top level (process pools
pickle functions by qualified name) and must communicate through small,
cheaply picklable values: the LSP decode stage in particular returns
compact tuples rather than :class:`~repro.isis.lsp.LinkStatePacket`
objects, whose pickling costs more than decoding them again would.

Workers are deliberately context-free: a syslog shard is parsed without
knowing what came before it, and a decode shard knows nothing of the
LSDB.  All sequencing — year-resolution context, LSDB acceptance, merge
order — happens in the parent (:mod:`repro.parallel.merge`), which is
what makes the results reproducible regardless of worker scheduling.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.faults.ledger import IngestReport
from repro.isis.lsp import LinkStatePacket
from repro.syslog.collector import ParsedSegment, SyslogCollector

#: A decoded LSP reduced to what the listener replay consumes:
#: ``(time, system_id, pseudonode, fragment, sequence_number, is_purge,
#: neighbor_system_ids, (prefix, prefix_length) pairs)``.
CompactLsp = Tuple[
    float,
    str,
    int,
    int,
    int,
    bool,
    Tuple[str, ...],
    Tuple[Tuple[int, int], ...],
]


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
    """Decode one range of LSP records into compact replay tuples.

    Returns ``(compact_records, errors)`` where ``errors`` carries
    ``(global_record_index, message)`` for every undecodable record —
    the parent decides (by mode) whether those become ledger entries or
    the run's first exception.
    """
    compact: List[CompactLsp] = []
    errors: List[Tuple[int, str]] = []
    for position, (time, raw) in enumerate(records):
        try:
            lsp = LinkStatePacket.unpack(raw)
        except (ValueError, struct.error) as error:
            errors.append((start_index + position, str(error)))
            continue
        compact.append(
            (
                time,
                lsp.lsp_id.system_id,
                lsp.lsp_id.pseudonode,
                lsp.lsp_id.fragment,
                lsp.sequence_number,
                lsp.is_purge(),
                tuple(neighbor.system_id for neighbor in lsp.is_neighbors),
                tuple(
                    (prefix.prefix, prefix.prefix_length)
                    for prefix in lsp.ip_prefixes
                ),
            )
        )
    return compact, errors
