"""Link-state database with ISO 10589 acceptance rules.

A router keeps an LSDB so duplicate and out-of-order floods do not
masquerade as state changes: only an LSP with a *newer* sequence number
than the stored copy is accepted.  The CSNP/PSNP summaries of
:mod:`repro.isis.snp` are computed over it.  The passive listener applies
the same acceptance rule to compact records instead
(:meth:`repro.isis.listener.IsisListener.observe_compact`): it never needs
the stored packets, only their reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.isis.lsp import LinkStatePacket, LspId


@dataclass(frozen=True)
class StoredLsp:
    """An accepted LSP and when it was heard."""

    lsp: LinkStatePacket
    arrival_time: float


class LinkStateDatabase:
    """Newest-LSP-wins store keyed by LSP ID."""

    def __init__(self) -> None:
        self._entries: Dict[LspId, StoredLsp] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lsp_id: LspId) -> bool:
        return lsp_id in self._entries

    def get(self, lsp_id: LspId) -> Optional[StoredLsp]:
        return self._entries.get(lsp_id)

    def consider(self, lsp: LinkStatePacket, arrival_time: float) -> bool:
        """Apply the acceptance rule; True when the LSP replaced the store.

        Newer means a strictly higher sequence number, or a purge
        (zero remaining lifetime) of the currently stored sequence number.
        Duplicates and stale floods are rejected.
        """
        stored = self._entries.get(lsp.lsp_id)
        if stored is not None:
            if lsp.sequence_number < stored.lsp.sequence_number:
                return False
            if lsp.sequence_number == stored.lsp.sequence_number:
                is_fresher_purge = lsp.is_purge() and not stored.lsp.is_purge()
                if not is_fresher_purge:
                    return False
        self._entries[lsp.lsp_id] = StoredLsp(lsp=lsp, arrival_time=arrival_time)
        return True

    def expire(self, now: float) -> List[LspId]:
        """Drop entries whose remaining lifetime has elapsed since arrival.

        Returns the expired LSP IDs.  A purge entry is retained (zero
        lifetime is the purge marker, not an age) until explicitly removed.
        """
        expired = [
            lsp_id
            for lsp_id, stored in self._entries.items()
            if not stored.lsp.is_purge()
            and now - stored.arrival_time >= stored.lsp.remaining_lifetime
        ]
        for lsp_id in expired:
            self.remove(lsp_id)
        return expired

    def remove(self, lsp_id: LspId) -> None:
        self._entries.pop(lsp_id, None)

    def origins(self) -> List[str]:
        """System IDs with at least one stored non-purge LSP."""
        return sorted(
            {
                lsp_id.system_id
                for lsp_id, stored in self._entries.items()
                if not stored.lsp.is_purge()
            }
        )

    def __iter__(self) -> Iterator[StoredLsp]:
        return iter(self._entries.values())
