"""The passive IS-IS listener — this reproduction's PyRT.

The listener participates in the IS-IS domain only to hear floods.  For
every LSP, reduced to the compact record of :mod:`repro.isis.compact`,
it: (1) checks the LSDB acceptance rule so duplicate floods are ignored;
(2) on first contact with an origin, records its hostname from the
Dynamic Hostname TLV and its initial IS/IP reachability; (3) on
subsequent LSPs, diffs the advertised Extended IS Reachability and
Extended IP Reachability against the previous advertisement and emits a
:class:`ReachabilityChange` for every entry gained or lost — exactly the
procedure of §3.2.

Resolution of changes onto *links* (using the mined config inventory) is
deliberately not done here; that is analysis-side work performed by
:mod:`repro.core.extract_isis`, mirroring the paper's separation between
data collection and failure reconstruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple, Union

from repro.isis.compact import CompactLsp, compact_from_lsp, decode_compact
from repro.isis.lsp import LinkStatePacket


class ReachabilityKind(enum.Enum):
    """Which LSP field the change was observed in (§3.4's IS-vs-IP choice)."""

    IS = "is"
    IP = "ip"


@dataclass(frozen=True)
class ReachabilityChange:
    """One reachability entry appearing or disappearing from an origin's LSP.

    ``target`` is the neighbor system ID for IS changes, or the
    ``(prefix, prefix_length)`` pair for IP changes.  ``direction`` uses the
    paper's vocabulary: ``"down"`` for a withdrawal, ``"up"`` for a
    (re-)advertisement.
    """

    time: float
    origin_system_id: str
    kind: ReachabilityKind
    direction: str
    target: Union[str, Tuple[int, int]]

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"bad direction {self.direction!r}")


class IsisListener:
    """Consumes timestamped LSPs, produces reachability change events.

    One state machine, :meth:`observe_compact`, serves every mode: wire
    bytes (:meth:`observe_bytes`) and decoded packets (:meth:`observe`)
    are both reduced to a :data:`~repro.isis.compact.CompactLsp` first,
    and the sharded decode of ``jobs > 1`` replays its records through
    it directly.
    """

    def __init__(self) -> None:
        #: Per origin, the newest accepted record of each fragment, keyed
        #: by ``(pseudonode, fragment)`` — the LSDB the diffs run over.
        self._fragments: Dict[str, Dict[Tuple[int, int], CompactLsp]] = {}
        #: Per origin, the last-diffed aggregate IS and IP reachability.
        self._origin_state: Dict[
            str, Tuple[FrozenSet[str], FrozenSet[Tuple[int, int]]]
        ] = {}
        #: Wire system ID -> dotted form, memoised for :func:`decode_compact`.
        self._system_ids: Dict[bytes, str] = {}
        self.hostnames: Dict[str, str] = {}
        self.changes: List[ReachabilityChange] = []
        #: LSPs rejected by the LSDB (duplicates / stale floods).
        self.rejected_count = 0

    def observe_bytes(self, time: float, raw: bytes) -> List[ReachabilityChange]:
        """Decode a wire LSP and process it (checksum verified)."""
        record = decode_compact(time, raw, self._system_ids)
        return self.observe_compact(record)

    def observe(self, time: float, lsp: LinkStatePacket) -> List[ReachabilityChange]:
        """Process one decoded LSP; returns (and records) its changes."""
        return self.observe_compact(compact_from_lsp(time, lsp))

    def observe_compact(self, record: CompactLsp) -> List[ReachabilityChange]:
        """Process one compact LSP record; returns (and records) the
        changes it implies."""
        (
            time,
            origin,
            pseudonode,
            fragment,
            sequence,
            purge,
            hostname,
            neighbors,
            prefixes,
        ) = record
        # LSDB acceptance (ISO 10589): newer means a strictly higher
        # sequence number, or a purge of the stored sequence number.
        fragments = self._fragments.setdefault(origin, {})
        key = (pseudonode, fragment)
        stored = fragments.get(key)
        if stored is not None and (
            sequence < stored[4]
            or (sequence == stored[4] and not (purge and not stored[5]))
        ):
            self.rejected_count += 1
            return []
        fragments[key] = record
        if hostname is not None:
            self.hostnames[origin] = hostname

        if purge:
            new_is: FrozenSet[str] = frozenset()
            new_ip: FrozenSet[Tuple[int, int]] = frozenset()
        elif len(fragments) == 1:
            new_is = frozenset(neighbors)
            new_ip = frozenset(prefixes)
        else:
            # Aggregate over all stored fragments of this origin so a
            # multi-fragment router is diffed on its full advertisement.
            new_is = frozenset().union(*(f[7] for f in fragments.values()))
            new_ip = frozenset().union(*(f[8] for f in fragments.values()))

        previous = self._origin_state.get(origin)
        self._origin_state[origin] = (new_is, new_ip)
        if previous is None:
            # First LSP from this origin: record state, emit nothing —
            # the paper's listener likewise seeds its view silently (§3.2).
            return []

        previous_is, previous_ip = previous
        emitted: List[ReachabilityChange] = []
        if new_is != previous_is:
            for neighbor_id in sorted(previous_is - new_is):
                emitted.append(
                    ReachabilityChange(
                        time, origin, ReachabilityKind.IS, "down", neighbor_id
                    )
                )
            for neighbor_id in sorted(new_is - previous_is):
                emitted.append(
                    ReachabilityChange(
                        time, origin, ReachabilityKind.IS, "up", neighbor_id
                    )
                )
        if new_ip != previous_ip:
            for prefix in sorted(previous_ip - new_ip):
                emitted.append(
                    ReachabilityChange(
                        time, origin, ReachabilityKind.IP, "down", prefix
                    )
                )
            for prefix in sorted(new_ip - previous_ip):
                emitted.append(
                    ReachabilityChange(
                        time, origin, ReachabilityKind.IP, "up", prefix
                    )
                )
        self.changes.extend(emitted)
        return emitted

    def current_is_neighbors(self, origin: str) -> FrozenSet[str]:
        """The origin's currently advertised IS neighbors (empty if unseen)."""
        state = self._origin_state.get(origin)
        return state[0] if state else frozenset()

    def current_ip_prefixes(self, origin: str) -> FrozenSet[Tuple[int, int]]:
        """The origin's currently advertised prefixes (empty if unseen)."""
        state = self._origin_state.get(origin)
        return state[1] if state else frozenset()
