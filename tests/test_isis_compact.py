"""Differential test of the compact LSP decoder against the full codec.

``decode_compact(time, raw)`` must equal
``compact_from_lsp(time, LinkStatePacket.unpack(raw))`` on every input:
the same record for a decodable LSP, and the same exception type and
message for a damaged one.  Real LSP bytes from the small campaign are
mutated the ways damage and odd-but-legal encodings look on the wire —
bit flips, truncations, a skewed PDU length, sequence number zero, a
purge with a stale checksum, and appended TLVs that are malformed in
exactly one of the ways the full decoder checks.  Mutations that should
reach the TLV walk re-seal the checksum, so the checksum test does not
mask them.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.isis.compact as compact_module
from repro.isis.compact import compact_from_lsp, decode_compact
from repro.isis.listener import IsisListener
from repro.isis.lsp import LinkStatePacket, iso_checksum

TIME = 12.5


def outcome(decode, raw):
    """``("ok", record)`` or ``("error", type, message)``."""
    try:
        return ("ok", decode(TIME, raw))
    except Exception as error:  # the exception itself is the result
        return ("error", type(error), str(error))


def reference(time, raw):
    return compact_from_lsp(time, LinkStatePacket.unpack(raw))


def assert_agrees(raw):
    expected = outcome(reference, raw)
    assert outcome(decode_compact, raw) == expected
    # A shared memo must not change the result either.
    memo = {}
    assert outcome(lambda t, r: decode_compact(t, r, memo), raw) == expected
    return expected


def reseal(raw: bytes) -> bytes:
    """Fix the PDU length and checksum fields after a body mutation."""
    if len(raw) < 27:
        return raw
    block = bytearray(raw)
    struct.pack_into(">H", block, 8, len(block))
    struct.pack_into(">H", block, 24, 0)
    struct.pack_into(">H", block, 24, iso_checksum(bytes(block[12:]), 12))
    return bytes(block)


def append_tlv(raw: bytes, tlv_type: int, value: bytes) -> bytes:
    return reseal(raw + bytes([tlv_type, len(value)]) + value)


@pytest.fixture(scope="module")
def lsp_payloads(small_dataset):
    return [raw for _, raw in small_dataset.lsp_records]


_INDEX = st.integers(min_value=0, max_value=10**6)


def pick(payloads, index):
    return payloads[index % len(payloads)]


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def test_every_campaign_lsp_decodes_identically(lsp_payloads):
    for raw in lsp_payloads:
        assert assert_agrees(raw)[0] == "ok"


def test_campaign_lsps_never_take_the_fallback(lsp_payloads, monkeypatch):
    """The fast path accepts every clean record on its own: the full
    decoder is only the barrier for damaged ones."""

    class Refused:
        @staticmethod
        def unpack(raw):
            raise AssertionError("fallback taken on a clean LSP")

    monkeypatch.setattr(compact_module, "LinkStatePacket", Refused)
    for raw in lsp_payloads:
        decode_compact(TIME, raw)


@_SETTINGS
@given(
    index=_INDEX,
    position=st.integers(min_value=0),
    bit=st.integers(0, 7),
    sealed=st.booleans(),
)
def test_bit_flips(lsp_payloads, index, position, bit, sealed):
    raw = bytearray(pick(lsp_payloads, index))
    raw[position % len(raw)] ^= 1 << bit
    assert_agrees(reseal(bytes(raw)) if sealed else bytes(raw))


@_SETTINGS
@given(index=_INDEX, cut=st.integers(min_value=0), sealed=st.booleans())
def test_truncations(lsp_payloads, index, cut, sealed):
    raw = pick(lsp_payloads, index)
    truncated = raw[: cut % len(raw)]
    assert_agrees(reseal(truncated) if sealed else truncated)


@_SETTINGS
@given(index=_INDEX, skew=st.integers(-40, 40).filter(bool))
def test_pdu_length_skew(lsp_payloads, index, skew):
    raw = bytearray(pick(lsp_payloads, index))
    struct.pack_into(">H", raw, 8, (len(raw) + skew) % 65536)
    assert assert_agrees(bytes(raw))[0] == "error"


@_SETTINGS
@given(index=_INDEX)
def test_sequence_number_zero(lsp_payloads, index):
    raw = bytearray(pick(lsp_payloads, index))
    struct.pack_into(">I", raw, 20, 0)
    assert assert_agrees(reseal(bytes(raw)))[0] == "error"


@_SETTINGS
@given(
    index=_INDEX, position=st.integers(min_value=27), value=st.integers(0, 255)
)
def test_purge_with_stale_checksum(lsp_payloads, index, position, value):
    """A zero-lifetime purge is accepted whatever its checksum says."""
    raw = bytearray(pick(lsp_payloads, index))
    struct.pack_into(">H", raw, 10, 0)
    if len(raw) > 27:
        raw[27 + position % (len(raw) - 27)] = value
    result = assert_agrees(bytes(raw))
    if result[0] == "ok":
        assert result[1][5] is True


@_SETTINGS
@given(index=_INDEX, sub_length=st.integers(0, 40), short=st.integers(0, 40))
def test_appended_is_entry(lsp_payloads, index, sub_length, short):
    """An IS entry whose sub-TLV length overruns the value is an error;
    one whose sub-TLVs fit decodes, with the neighbor appended."""
    carried = max(0, sub_length - short)
    entry = bytes(6 * [0x0A]) + b"\x00" + b"\x00\x00\x0a" + bytes([sub_length])
    raw = append_tlv(pick(lsp_payloads, index), 22, entry + bytes(carried))
    result = assert_agrees(raw)
    assert (result[0] == "ok") == (carried == sub_length)
    if result[0] == "ok":
        assert result[1][7][-1] == "0a0a.0a0a.0a0a"


@_SETTINGS
@given(
    index=_INDEX, control=st.integers(0, 255), prefix=st.integers(0, 2**32 - 1)
)
def test_appended_ip_prefix(lsp_payloads, index, control, prefix):
    """Any control octet: a prefix length over 32 and the sub-TLV flag
    0x40 are errors."""
    length = control & 0x3F
    octets = (min(length, 32) + 7) // 8
    body = struct.pack(">IB", 10, control) + prefix.to_bytes(4, "big")[:octets]
    result = assert_agrees(append_tlv(pick(lsp_payloads, index), 135, body))
    if length > 32 or control & 0x40:
        assert result[0] == "error"


@_SETTINGS
@given(index=_INDEX, length=st.integers(0, 32))
def test_appended_prefix_with_host_bits(lsp_payloads, index, length):
    host_bits = (0xFFFFFFFF >> length) if length < 32 else 0
    prefix = 0x89A40000 | host_bits
    octets = (length + 7) // 8
    body = struct.pack(">IB", 10, length) + prefix.to_bytes(4, "big")[:octets]
    result = assert_agrees(append_tlv(pick(lsp_payloads, index), 135, body))
    masked_host_bits = prefix & host_bits & ~(0xFFFFFFFF >> (8 * octets))
    assert (result[0] == "ok") == (length == 32 or masked_host_bits == 0)


@_SETTINGS
@given(index=_INDEX, name=st.binary(min_size=0, max_size=20))
def test_appended_hostname(lsp_payloads, index, name):
    """Every TLV 137 must be ASCII, not only the first, which names the
    origin."""
    result = assert_agrees(append_tlv(pick(lsp_payloads, index), 137, name))
    assert (result[0] == "ok") == name.isascii()


@_SETTINGS
@given(
    index=_INDEX, areas=st.lists(st.binary(max_size=4), max_size=3)
)
def test_appended_area_addresses(lsp_payloads, index, areas):
    """A zero-length area address is malformed framing."""
    value = b"".join(bytes([len(area)]) + area for area in areas)
    result = assert_agrees(append_tlv(pick(lsp_payloads, index), 1, value))
    assert (result[0] == "ok") == all(areas)


def test_zero_length_area_address(lsp_payloads):
    result = assert_agrees(append_tlv(lsp_payloads[0], 1, b"\x00"))
    assert result[0] == "error"
    assert "area address" in result[2]


def test_listener_bytes_and_packets_agree(small_dataset):
    """``observe_bytes`` and ``observe`` drive the one machine alike."""
    from_bytes = IsisListener()
    from_packets = IsisListener()
    for time, raw in small_dataset.lsp_records:
        from_bytes.observe_bytes(time, raw)
        from_packets.observe(time, LinkStatePacket.unpack(raw))
    assert from_bytes.changes == from_packets.changes
    assert from_bytes.hostnames == from_packets.hostnames
    assert from_bytes.rejected_count == from_packets.rejected_count
