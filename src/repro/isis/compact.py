"""Compact LSP decoding: wire bytes straight to the listener's record.

The listener reads five things from an LSP: the LSP ID, sequence number
and remaining lifetime from the fixed header, and the Dynamic Hostname
(TLV 137), Extended IS Reachability (TLV 22) and Extended IP
Reachability (TLV 135) advertisements (Table 1).  Building a full
:class:`~repro.isis.lsp.LinkStatePacket` — a dataclass per TLV, per
neighbor and per prefix — only to read those back dominated the IS-IS
channel's cost, so :func:`decode_compact` reads them straight from the
bytes into a :data:`CompactLsp` tuple, the one IS-IS decode product of
every mode.

The fast path accepts a record only when it passes every check
:meth:`LinkStatePacket.unpack` makes: common header, PDU type, length
field, non-zero sequence number, the checksum of a non-purge, TLV
framing, Area Addresses framing, IS sub-TLV bounds, IP prefix length,
sub-TLV flag and host bits, and ASCII hostnames.  Anything else goes to
``LinkStatePacket.unpack`` itself, so a damaged record raises the
authentic exception (type and message) in strict mode and leaves the
authentic sample in a lenient ledger — the fallback the columnar syslog
parser uses with its scalar twin.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.isis.lsp import LinkStatePacket, iso_checksum_verify
from repro.isis.pdu import ISIS_DISCRIMINATOR, LSP_HEADER_LENGTH, PduType
from repro.isis.tlv import (
    TLV_AREA_ADDRESSES,
    TLV_DYNAMIC_HOSTNAME,
    TLV_EXTENDED_IP_REACHABILITY,
    TLV_EXTENDED_IS_REACHABILITY,
)
from repro.topology.addressing import system_id_from_bytes

#: A decoded LSP reduced to what the listener consumes:
#: ``(time, system_id, pseudonode, fragment, sequence_number, is_purge,
#: hostname, neighbor_system_ids, (prefix, prefix_length) pairs)``.
#: ``hostname`` is the first Dynamic Hostname TLV's, or ``None``.
CompactLsp = Tuple[
    float,
    str,
    int,
    int,
    int,
    bool,
    Optional[str],
    Tuple[str, ...],
    Tuple[Tuple[int, int], ...],
]

#: The common header plus the LSP fields up to the checksum: everything
#: before the P/ATT/OL/IS-type octet.
_FIXED_HEADER = struct.Struct(">BBBBBBBBHH6sBBIH")

_LSP_TYPES = frozenset((PduType.L1_LSP, PduType.L2_LSP))

_Reachability = Tuple[
    Optional[str], Tuple[str, ...], Tuple[Tuple[int, int], ...]
]


def compact_from_lsp(time: float, lsp: LinkStatePacket) -> CompactLsp:
    """Project a decoded packet onto the listener's compact record."""
    lsp_id = lsp.lsp_id
    return (
        time,
        lsp_id.system_id,
        lsp_id.pseudonode,
        lsp_id.fragment,
        lsp.sequence_number,
        lsp.is_purge(),
        lsp.hostname,
        tuple(neighbor.system_id for neighbor in lsp.is_neighbors),
        tuple(
            (prefix.prefix, prefix.prefix_length) for prefix in lsp.ip_prefixes
        ),
    )


def decode_compact(
    time: float, raw: bytes, system_ids: Optional[Dict[bytes, str]] = None
) -> CompactLsp:
    """Decode wire LSP bytes into a :data:`CompactLsp`.

    Equal to ``compact_from_lsp(time, LinkStatePacket.unpack(raw))`` on
    every input, including the exception raised for a damaged one.
    ``system_ids`` memoises wire system IDs to their dotted form; the
    caller owns it (a listener, or one decode shard) and may share it
    across records.
    """
    if system_ids is None:
        system_ids = {}
    size = len(raw)
    if size >= LSP_HEADER_LENGTH:
        (
            discriminator,
            _,
            version_pid,
            _,
            pdu_type,
            version,
            reserved,
            _,
            pdu_length,
            lifetime,
            origin_raw,
            pseudonode,
            fragment,
            sequence,
            _,
        ) = _FIXED_HEADER.unpack_from(raw)
        if (
            discriminator == ISIS_DISCRIMINATOR
            and version_pid == 1
            and version == 1
            and reserved == 0
            and pdu_type & 0x1F in _LSP_TYPES
            and pdu_length == size
            and sequence != 0
            and (lifetime == 0 or iso_checksum_verify(raw[12:]))
        ):
            reachability = _read_tlvs(raw, system_ids)
            if reachability is not None:
                origin = system_ids.get(origin_raw)
                if origin is None:
                    origin = system_ids[origin_raw] = system_id_from_bytes(
                        origin_raw
                    )
                hostname, neighbors, prefixes = reachability
                return (
                    time,
                    origin,
                    pseudonode,
                    fragment,
                    sequence,
                    lifetime == 0,
                    hostname,
                    neighbors,
                    prefixes,
                )
    return compact_from_lsp(time, LinkStatePacket.unpack(raw))


def _read_tlvs(
    raw: bytes, system_ids: Dict[bytes, str]
) -> Optional[_Reachability]:
    """Walk the TLVs after the fixed header; ``None`` on any anomaly
    :func:`repro.isis.tlv.decode_tlvs` would raise on."""
    hostname: Optional[str] = None
    neighbors: List[str] = []
    prefixes: List[Tuple[int, int]] = []
    size = len(raw)
    offset = LSP_HEADER_LENGTH
    while offset < size:
        if offset + 2 > size:
            return None
        tlv_type = raw[offset]
        position = offset + 2
        end = position + raw[offset + 1]
        if end > size:
            return None
        if tlv_type == TLV_EXTENDED_IS_REACHABILITY:
            while position < end:
                if position + 11 > end:
                    return None
                key = raw[position : position + 6]
                system_id = system_ids.get(key)
                if system_id is None:
                    system_id = system_ids[key] = system_id_from_bytes(key)
                neighbors.append(system_id)
                position += 11 + raw[position + 10]
            if position > end:
                return None
        elif tlv_type == TLV_EXTENDED_IP_REACHABILITY:
            while position < end:
                if position + 5 > end:
                    return None
                control = raw[position + 4]
                length = control & 0x3F
                if length > 32 or control & 0x40:
                    return None
                octets = (length + 7) // 8
                prefix_end = position + 5 + octets
                if prefix_end > end:
                    return None
                prefix = int.from_bytes(
                    raw[position + 5 : prefix_end], "big"
                ) << (8 * (4 - octets))
                if prefix & (0xFFFFFFFF >> length):
                    return None
                prefixes.append((prefix, length))
                position = prefix_end
        elif tlv_type == TLV_DYNAMIC_HOSTNAME:
            value = raw[position:end]
            if not value.isascii():
                return None
            if hostname is None:
                hostname = value.decode("ascii")
        elif tlv_type == TLV_AREA_ADDRESSES:
            while position < end:
                length = raw[position]
                position += 1 + length
                if length == 0 or position > end:
                    return None
        offset = end
    return hostname, tuple(neighbors), tuple(prefixes)
