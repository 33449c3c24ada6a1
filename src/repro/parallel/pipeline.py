"""Sharded ingest of both channels over one process pool.

:func:`ingest_sharded` is the ``jobs > 1`` ingest step of
:func:`repro.core.pipeline.run_analysis`:

1. **Fan out** — syslog segments and LSP decode shards are all submitted
   to one process pool up front, so the two channels decode concurrently
   as well as sharded.
2. **Fold** (parent) — segment parses fold left-to-right under the
   context re-parse rule; compact LSP records replay, in record order,
   through the one :class:`~repro.isis.listener.IsisListener`.
   Strict-mode errors surface here, in the sequential run's order:
   syslog parse errors first, then LSP decode errors.

Everything after ingest runs in the parent, through the same code as the
sequential path.  Workers only ever see picklable value objects; the
drop ledger stays in the parent.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import List, Optional, Tuple

from repro.faults.ledger import IngestReport
from repro.isis.compact import CompactLsp
from repro.isis.listener import ReachabilityChange
from repro.parallel.merge import merge_parsed_segments, replay_lsp_shards
from repro.parallel.sharding import index_ranges, segment_log_text
from repro.parallel.workers import decode_lsp_shard, parse_syslog_shard
from repro.simulation.dataset import Dataset
from repro.syslog.collector import CollectedEntry


def ingest_sharded(
    dataset: Dataset,
    *,
    jobs: int,
    ingest: str,
    strict: bool,
    report: Optional[IngestReport],
) -> Tuple[List[CollectedEntry], List[ReachabilityChange], int]:
    """Parse the syslog file and replay the LSP archive across a pool.

    Returns ``(entries, changes, rejected_lsps)`` byte-identical to the
    sequential parse plus :func:`repro.core.extract_isis.replay_lsp_records`
    — the same lists, the same ledger, and (in strict mode) the same
    exception.  ``jobs`` sets the pool width and shard counts; ``ingest``
    the syslog parse engine used inside the workers and for context
    re-parses.
    """
    segments = segment_log_text(dataset.syslog_text, jobs)
    lsp_ranges = index_ranges(len(dataset.lsp_records), jobs)

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # Both channels' shards go in together, so syslog parsing and
        # LSP decoding overlap in the pool.
        syslog_futures = [
            pool.submit(  # reprolint: dispatch
                parse_syslog_shard,
                segment.text,
                segment.line_base,
                segment.offset_base,
                ingest,
            )
            for segment in segments
        ]
        lsp_futures: List[
            Future[Tuple[List[CompactLsp], List[Tuple[int, str]]]]
        ] = [
            pool.submit(  # reprolint: dispatch
                decode_lsp_shard, dataset.lsp_records[start:stop], start
            )
            for start, stop in lsp_ranges
        ]

        # Fold shards in source order.  Syslog errors surface before LSP
        # errors, as in the sequential run.
        entries = merge_parsed_segments(
            [
                (segment, parsed, shard_report)
                for segment, (parsed, shard_report) in zip(
                    segments, (f.result() for f in syslog_futures)
                )
            ],
            strict=strict,
            report=report,
            ingest=ingest,
        )
        lsp_shards = [future.result() for future in lsp_futures]

    changes, rejected = replay_lsp_shards(
        lsp_shards, dataset.lsp_records, strict=strict, report=report
    )
    return entries, changes, rejected
