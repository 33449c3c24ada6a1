"""Tests for the passive listener's reachability diffing and the dump codec."""

import dataclasses
import io

import pytest

from repro.isis.listener import IsisListener, ReachabilityKind
from repro.isis.lsp import LinkStatePacket, LspId
from repro.isis.mrt import MrtDumpReader, MrtDumpWriter, MrtFormatError
from repro.isis.tlv import (
    DynamicHostnameTlv,
    ExtendedIpReachabilityTlv,
    ExtendedIsReachabilityTlv,
    IpPrefix,
    IsNeighbor,
)


def lsp(seq, neighbors=(), prefixes=(), sysid="0000.0000.0001", hostname="r1", lifetime=1199):
    tlvs = [DynamicHostnameTlv(hostname=hostname)]
    if neighbors:
        tlvs.append(
            ExtendedIsReachabilityTlv(
                neighbors=tuple(IsNeighbor(n, 10) for n in neighbors)
            )
        )
    if prefixes:
        tlvs.append(
            ExtendedIpReachabilityTlv(
                prefixes=tuple(IpPrefix(p, 31, 10) for p in prefixes)
            )
        )
    return LinkStatePacket(
        lsp_id=LspId(sysid),
        sequence_number=seq,
        remaining_lifetime=lifetime,
        tlvs=tuple(tlvs),
    )


NEIGHBOR = "0000.0000.0002"
PREFIX = 0x89A40000


class TestListener:
    def test_first_lsp_seeds_silently(self):
        listener = IsisListener()
        assert listener.observe(0.0, lsp(1, [NEIGHBOR], [PREFIX])) == []
        assert listener.current_is_neighbors("0000.0000.0001") == {NEIGHBOR}

    def test_withdrawal_emits_down(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [NEIGHBOR], [PREFIX]))
        changes = listener.observe(10.0, lsp(2, [], [PREFIX]))
        assert len(changes) == 1
        change = changes[0]
        assert change.kind is ReachabilityKind.IS
        assert change.direction == "down"
        assert change.target == NEIGHBOR
        assert change.time == 10.0

    def test_readvertisement_emits_up(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [NEIGHBOR], []))
        listener.observe(10.0, lsp(2, [], []))
        changes = listener.observe(20.0, lsp(3, [NEIGHBOR], []))
        assert [c.direction for c in changes] == ["up"]

    def test_prefix_changes_are_ip_kind(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [], [PREFIX]))
        changes = listener.observe(10.0, lsp(2, [], []))
        assert changes[0].kind is ReachabilityKind.IP
        assert changes[0].target == (PREFIX, 31)

    def test_duplicate_sequence_rejected(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [NEIGHBOR]))
        assert listener.observe(5.0, lsp(1, [])) == []
        assert listener.rejected_count == 1
        # State unchanged: the stale LSP must not have been diffed.
        assert listener.current_is_neighbors("0000.0000.0001") == {NEIGHBOR}

    def test_unchanged_refresh_emits_nothing(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [NEIGHBOR], [PREFIX]))
        assert listener.observe(900.0, lsp(2, [NEIGHBOR], [PREFIX])) == []

    def test_purge_withdraws_everything(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [NEIGHBOR], [PREFIX]))
        changes = listener.observe(10.0, lsp(2, [NEIGHBOR], [PREFIX], lifetime=0))
        directions = {(c.kind, c.direction) for c in changes}
        assert directions == {
            (ReachabilityKind.IS, "down"),
            (ReachabilityKind.IP, "down"),
        }

    def test_hostname_learned(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, hostname="lax-core-01"))
        assert listener.hostnames["0000.0000.0001"] == "lax-core-01"

    def test_changes_accumulate(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [NEIGHBOR]))
        listener.observe(10.0, lsp(2, []))
        listener.observe(20.0, lsp(3, [NEIGHBOR]))
        assert [c.direction for c in listener.changes] == ["down", "up"]

    def test_observe_bytes_round_trip(self):
        listener = IsisListener()
        listener.observe_bytes(0.0, lsp(1, [NEIGHBOR]).pack())
        changes = listener.observe_bytes(5.0, lsp(2, []).pack())
        assert len(changes) == 1

    def test_fragments_aggregate_per_origin(self):
        """A neighbor withdrawn from one fragment but still advertised in
        another is no change; stale fragments are rejected per key."""

        def fragment(seq, neighbors, number):
            return dataclasses.replace(
                lsp(seq, neighbors),
                lsp_id=LspId("0000.0000.0001", 0, number),
            )

        other = "0000.0000.0003"
        listener = IsisListener()
        assert listener.observe(0.0, fragment(1, [NEIGHBOR], 0)) == []
        changes = listener.observe(1.0, fragment(1, [NEIGHBOR, other], 1))
        assert [(c.direction, c.target) for c in changes] == [("up", other)]
        assert listener.observe(2.0, fragment(2, [], 0)) == []
        changes = listener.observe(3.0, fragment(2, [], 1))
        assert [(c.direction, c.target) for c in changes] == [
            ("down", NEIGHBOR),
            ("down", other),
        ]
        assert listener.observe(4.0, fragment(1, [NEIGHBOR], 1)) == []
        assert listener.rejected_count == 1
        assert listener.current_is_neighbors("0000.0000.0001") == frozenset()

    def test_multi_origin_views_are_independent(self):
        listener = IsisListener()
        listener.observe(0.0, lsp(1, [NEIGHBOR], sysid="0000.0000.0001"))
        listener.observe(0.0, lsp(1, ["0000.0000.0001"], sysid="0000.0000.0002"))
        changes = listener.observe(5.0, lsp(2, [], sysid="0000.0000.0001"))
        assert len(changes) == 1
        assert changes[0].origin_system_id == "0000.0000.0001"
        assert listener.current_is_neighbors("0000.0000.0002") == {"0000.0000.0001"}


class TestMrtDump:
    def test_round_trip_memory(self):
        buffer = io.BytesIO()
        writer = MrtDumpWriter(buffer)
        records = [(1.5, b"abc"), (2.5, b""), (99.0, b"\x00" * 100)]
        for time, payload in records:
            writer.write(time, payload)
        assert writer.count == 3

        buffer.seek(0)
        reader = MrtDumpReader(buffer)
        assert reader.read_all() == records

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "capture.dump"
        with MrtDumpWriter.open(path) as writer:
            writer.write(0.0, b"hello")
        with MrtDumpReader.open(path) as reader:
            assert reader.read_all() == [(0.0, b"hello")]

    def test_bad_magic_rejected(self):
        with pytest.raises(MrtFormatError):
            MrtDumpReader(io.BytesIO(b"NOTADUMP"))

    def test_truncated_header_rejected(self):
        buffer = io.BytesIO()
        writer = MrtDumpWriter(buffer)
        writer.write(1.0, b"abc")
        truncated = buffer.getvalue()[:-5]
        reader = MrtDumpReader(io.BytesIO(truncated))
        with pytest.raises(MrtFormatError):
            list(reader)

    def test_oversized_record_rejected_on_write(self):
        writer = MrtDumpWriter(io.BytesIO())
        with pytest.raises(MrtFormatError):
            writer.write(0.0, b"\x00" * (1 << 21))

    def test_real_lsp_payload_round_trip(self, tmp_path):
        path = tmp_path / "lsp.dump"
        packet = lsp(3, [NEIGHBOR], [PREFIX])
        with MrtDumpWriter.open(path) as writer:
            writer.write(42.0, packet.pack())
        with MrtDumpReader.open(path) as reader:
            ((time, payload),) = reader.read_all()
        assert time == 42.0
        assert LinkStatePacket.unpack(payload) == packet
