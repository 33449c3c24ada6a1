"""Process-pool ingest for the batch analysis pipeline.

``run_analysis(dataset, jobs=N)`` with ``N > 1`` shards only the ingest
of both channels; everything after it — classification, merge,
timeline, failure, sanitise, match, coverage, flaps — runs once, in the
parent, through the same code as ``jobs=1``.  Ingest is sharded in two
places:

1. **Syslog parsing** shards the log file into contiguous, line-aligned
   segments (:mod:`repro.parallel.sharding`).  The RFC 3164 year
   ambiguity makes each line's parse depend on the latest timestamp seen
   *before* it, so segments are parsed context-free in workers and the
   merge step (:mod:`repro.parallel.merge`) proves, per segment, that the
   missing context could not have changed the outcome — re-parsing the
   rare segment where it could have.
2. **LSP decoding** shards the archive by record ranges.  Decoding is
   context-free; only the listener replay is stateful, so workers return
   the listener's compact records and the parent replays them, in
   record order, through the one listener state machine.

The contract is byte-identity: ``run_analysis(dataset, jobs=N)`` returns
results indistinguishable from ``jobs=1`` — same lists in the same order,
same dict key order, same drop ledger, and in strict mode the same
exception.  ``docs/performance.md`` walks through the sharding model and
the proof obligations; ``tests/test_parallel_pipeline.py`` enforces them.
"""

from repro.parallel.pipeline import ingest_sharded
from repro.parallel.sharding import index_ranges, segment_log_text

__all__ = [
    "ingest_sharded",
    "segment_log_text",
    "index_ranges",
]
