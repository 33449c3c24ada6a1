"""Tests for the LSDB acceptance rules and the adjacency handshake FSM."""

import pytest

from repro.isis.adjacency import (
    AdjacencyState,
    AdjacencyStateMachine,
    run_handshake,
)
from repro.isis.database import LinkStateDatabase
from repro.isis.lsp import LinkStatePacket, LspId


def lsp(seq=1, lifetime=1199, sysid="0000.0000.0001"):
    return LinkStatePacket(
        lsp_id=LspId(sysid), sequence_number=seq, remaining_lifetime=lifetime
    )


class TestLinkStateDatabase:
    def test_first_lsp_accepted(self):
        db = LinkStateDatabase()
        assert db.consider(lsp(1), 0.0)
        assert len(db) == 1

    def test_newer_sequence_replaces(self):
        db = LinkStateDatabase()
        db.consider(lsp(1), 0.0)
        assert db.consider(lsp(2), 1.0)
        assert db.get(LspId("0000.0000.0001")).lsp.sequence_number == 2

    def test_duplicate_rejected(self):
        db = LinkStateDatabase()
        db.consider(lsp(2), 0.0)
        assert not db.consider(lsp(2), 1.0)

    def test_stale_rejected(self):
        db = LinkStateDatabase()
        db.consider(lsp(5), 0.0)
        assert not db.consider(lsp(3), 1.0)

    def test_purge_of_same_sequence_accepted(self):
        db = LinkStateDatabase()
        db.consider(lsp(5), 0.0)
        assert db.consider(lsp(5, lifetime=0), 1.0)
        assert db.get(LspId("0000.0000.0001")).lsp.is_purge()

    def test_purge_then_same_purge_rejected(self):
        db = LinkStateDatabase()
        db.consider(lsp(5, lifetime=0), 0.0)
        assert not db.consider(lsp(5, lifetime=0), 1.0)

    def test_origins_excludes_purged(self):
        db = LinkStateDatabase()
        db.consider(lsp(1, sysid="0000.0000.0001"), 0.0)
        db.consider(lsp(1, lifetime=0, sysid="0000.0000.0002"), 0.0)
        assert db.origins() == ["0000.0000.0001"]

    def test_expiry(self):
        db = LinkStateDatabase()
        db.consider(lsp(1, lifetime=100), 0.0)
        assert db.expire(now=50.0) == []
        expired = db.expire(now=101.0)
        assert expired == [LspId("0000.0000.0001")]
        assert len(db) == 0
        assert db.origins() == []

    def test_remove_is_idempotent(self):
        db = LinkStateDatabase()
        db.remove(LspId("0000.0000.0001"))  # no error

    def test_remove_keeps_other_origins(self):
        db = LinkStateDatabase()
        db.consider(lsp(1, sysid="0000.0000.0001"), 0.0)
        db.consider(lsp(1, sysid="0000.0000.0002"), 0.0)
        db.remove(LspId("0000.0000.0001"))
        assert LspId("0000.0000.0001") not in db
        assert db.origins() == ["0000.0000.0002"]


class TestAdjacencyFsm:
    def make(self):
        return AdjacencyStateMachine("0000.0000.0001", "0000.0000.0002")

    def test_initial_state_down(self):
        assert self.make().state is AdjacencyState.DOWN

    def test_identical_systems_rejected(self):
        with pytest.raises(ValueError):
            AdjacencyStateMachine("0000.0000.0001", "0000.0000.0001")

    def test_hearing_neighbor_initialises(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees=None)
        assert fsm.state is AdjacencyState.INITIALIZING

    def test_three_way_acknowledgement_brings_up(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees=None)
        fsm.hello_received(2.0, neighbor_sees="0000.0000.0001")
        assert fsm.is_up

    def test_hello_naming_someone_else_does_not_ack(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees=None)
        fsm.hello_received(2.0, neighbor_sees="0000.0000.0099")
        assert fsm.state is AdjacencyState.INITIALIZING

    def test_hold_timer_tears_down(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees="0000.0000.0001")
        fsm.hold_timer_expired(40.0)
        assert fsm.state is AdjacencyState.DOWN

    def test_interface_down_tears_down(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees="0000.0000.0001")
        fsm.interface_down(5.0)
        assert fsm.state is AdjacencyState.DOWN

    def test_neighbor_reset_reinitialises(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees="0000.0000.0001")
        assert fsm.is_up
        fsm.hello_received(
            2.0, neighbor_sees=None, neighbor_state=AdjacencyState.DOWN
        )
        assert fsm.state is AdjacencyState.INITIALIZING

    def test_event_log_records_transitions(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees=None)
        fsm.hello_received(2.0, neighbor_sees="0000.0000.0001")
        fsm.hold_timer_expired(40.0)
        states = [(e.old_state, e.new_state) for e in fsm.events]
        assert states == [
            (AdjacencyState.DOWN, AdjacencyState.INITIALIZING),
            (AdjacencyState.INITIALIZING, AdjacencyState.UP),
            (AdjacencyState.UP, AdjacencyState.DOWN),
        ]

    def test_no_duplicate_events_for_same_state(self):
        fsm = self.make()
        fsm.hello_received(1.0, neighbor_sees=None)
        fsm.hello_received(1.5, neighbor_sees=None)
        assert len(fsm.events) == 1

    def test_run_handshake_brings_both_up(self):
        a = AdjacencyStateMachine("0000.0000.0001", "0000.0000.0002")
        b = AdjacencyStateMachine("0000.0000.0002", "0000.0000.0001")
        finish = run_handshake(a, b, start_time=10.0, hello_interval=1.0)
        assert a.is_up and b.is_up
        assert finish == 11.0
