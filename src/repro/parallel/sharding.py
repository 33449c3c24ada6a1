"""Deterministic work partitioning for the parallel pipeline.

Every function here is a pure function of its inputs — shard boundaries
never depend on worker count timing, machine load, or anything else that
varies between runs — because the byte-identity contract starts with
giving every run the same shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class LogSegment:
    """One line-aligned piece of a log file.

    ``text`` never contains a partial line: segments cut immediately
    after a newline, and the newline itself is dropped from the preceding
    segment (the final segment keeps any trailing newline).  ``line_base``
    is the number of lines before the segment and ``offset_base`` the
    byte offset of its first character, so drop-ledger entries produced
    while parsing the segment carry file-global coordinates.
    """

    text: str
    line_base: int
    offset_base: int


def segment_log_text(text: str, shard_count: int) -> List[LogSegment]:
    """Split log text into at most ``shard_count`` line-aligned segments.

    Boundaries aim at equal byte shares and advance to the next newline,
    so a line is never split across segments.  Concatenating the
    segments' lines reproduces the whole file's lines with the same line
    numbers and byte offsets — the property
    :func:`repro.parallel.merge.merge_parsed_segments` relies on.
    """
    if shard_count < 1:
        raise ValueError("shard count must be positive")
    if not text:
        return []
    boundaries = [0]
    for i in range(1, shard_count):
        target = (len(text) * i) // shard_count
        newline = text.find("\n", target)
        cut = len(text) if newline < 0 else newline + 1
        if cut > boundaries[-1] and cut < len(text):
            boundaries.append(cut)
    boundaries.append(len(text))

    segments: List[LogSegment] = []
    for start, end in zip(boundaries, boundaries[1:]):
        # Drop the trailing newline from every non-final segment: the
        # parser treats a trailing newline as starting one more (empty)
        # line, which would shift line numbering of the next segment.
        last = end < len(text)
        segment_text = text[start : end - 1] if last else text[start:end]
        segments.append(
            LogSegment(
                text=segment_text,
                line_base=text.count("\n", 0, start),
                offset_base=start,
            )
        )
    return segments


def index_ranges(total: int, shard_count: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into at most ``shard_count`` balanced ranges.

    Returns ``(start, stop)`` pairs covering ``0..total`` exactly once,
    each within one item of the others in size.  Empty ranges are never
    returned.
    """
    if shard_count < 1:
        raise ValueError("shard count must be positive")
    if total <= 0:
        return []
    count = min(shard_count, total)
    base, extra = divmod(total, count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(count):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges
