"""Minimized regression tests for bugs flushed out by the fuzzer.

Each test pins one of the bugs found by ``repro fuzz`` / the per-cycle
invariant checker (see docs/correctness.md for the full write-ups):

1. LFST ``reserved`` bit survived the squash of the MDA-steered load.
2. ``SharedPIQ`` collapse left stale partition indices in the steering
   scoreboard, the LFST steering hints, and the select loop's
   issued-partition record.
3. ``SteeringScoreboard`` reservation survived the squash of the
   reserving consumer.
4. Ideal-sharing ``has_space`` applied the equal-halves cap, wedging the
   resident chain and (symmetrically) letting the other partition
   overflow total capacity.
5. An SSID merge between a store's dispatch and its issue orphaned its
   LFST entry, imposing false dependences forever after.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ifop import InFlightOp
from repro.isa import R, opcode
from repro.isa.instruction import DynOp
from repro.lsq.mdp import StoreSetPredictor
from repro.sched.piq import SharedPIQ
from repro.sched.steering import SteerInfo, SteeringScoreboard


def ifop(seq):
    dyn = DynOp(seq=seq, pc=0, opcode=opcode("add"), dest=R[1],
                srcs=(R[2], R[3]))
    return InFlightOp(seq=seq, op=dyn, decode_cycle=0)


def push(piq, seq, partition):
    """Append like the dispatch path does: record the partition on the op."""
    op = ifop(seq)
    op.iq_partition = partition
    piq.append(op, partition)


class TestBug1StaleLFSTReservation:
    """Squash of the MDA-steered load must release the LFST reservation."""

    def _predictor_with_steered_store(self):
        mdp = StoreSetPredictor()
        mdp.train_violation(load_pc=100, store_pc=200)
        mdp.store_dispatched(200, seq=5)
        mdp.record_store_steering(200, 5, iq_index=2, partition=1)
        return mdp

    def test_load_squash_releases_reservation(self):
        mdp = self._predictor_with_steered_store()
        mdp.reserve_steering(100, load_seq=9)
        assert mdp.steering_hint(100) is None  # reserved for seq 9
        mdp.flush_from(9)  # squash the load; the store (seq 5) survives
        hint = mdp.steering_hint(100)
        assert hint is not None and hint.iq_index == 2
        assert not hint.reserved and hint.reserved_by == -1

    def test_store_squash_invalidates_entry(self):
        mdp = self._predictor_with_steered_store()
        mdp.reserve_steering(100, load_seq=9)
        mdp.flush_from(5)  # the store itself goes
        assert mdp.steering_hint(100) is None
        assert mdp.load_dispatched(100) is None
        mdp.debug_check({})  # no invalid-but-reserved entries left

    def test_flush_older_than_both_keeps_reservation(self):
        mdp = self._predictor_with_steered_store()
        mdp.reserve_steering(100, load_seq=9)
        mdp.flush_from(10)  # younger than load and store: nothing changes
        assert mdp.steering_hint(100) is None  # still reserved


class TestBug2CollapseRemap:
    """Partition indices captured pre-collapse must be translated."""

    def _sharing_piq(self):
        piq = SharedPIQ(8)
        push(piq, 0, 0)
        piq.activate_sharing()
        push(piq, 1, 1)
        push(piq, 2, 1)
        return piq

    def test_collapse_reports_remap_and_moves_chain(self):
        piq = self._sharing_piq()
        assert piq.pop_head(0).seq == 0
        remap = piq.collapse()
        assert remap == {1: 0}
        assert not piq.sharing
        assert [op.seq for op in piq.partitions[0]] == [1, 2]
        assert all(op.iq_partition == 0 for op in piq.partitions[0])
        piq.debug_check()

    def test_flush_collapse_reports_remap(self):
        piq = self._sharing_piq()
        push(piq, 3, 0)  # partition 0: [0, 3], partition 1: [1, 2]
        remap = piq.flush_from(1)  # drains partition 1 entirely
        assert remap == {1: 0}
        assert [op.seq for op in piq.partitions[0]] == [0]

    def test_scoreboard_remap_translates_only_that_iq(self):
        steer = SteeringScoreboard()
        steer.set(7, SteerInfo(iq=3, partition=1, owner_seq=2))
        steer.set(8, SteerInfo(iq=4, partition=1, owner_seq=3))
        steer.remap_partition(3, {1: 0})
        assert steer.get(7).partition == 0
        assert steer.get(8).partition == 1  # other queue untouched

    def test_lfst_remap_translates_steering_hint(self):
        mdp = StoreSetPredictor()
        mdp.train_violation(load_pc=100, store_pc=200)
        mdp.store_dispatched(200, seq=5)
        mdp.record_store_steering(200, 5, iq_index=3, partition=1)
        mdp.remap_steering(3, {1: 0})
        assert mdp.steering_hint(100).partition == 0
        mdp.remap_steering(6, {1: 0})  # other queue: no effect
        assert mdp.steering_hint(100).partition == 0


class TestBug3ScoreboardReservationSquash:
    """Consumer squash must release the scoreboard Reserved bit."""

    def test_consumer_squash_releases(self):
        steer = SteeringScoreboard()
        steer.set(5, SteerInfo(iq=0, partition=0, owner_seq=3))
        steer.reserve(5, by_seq=10)
        steer.flush_from(8)  # squashes the consumer (10), not producer (3)
        info = steer.get(5)
        assert info is not None
        assert not info.reserved and info.reserved_by == -1

    def test_producer_squash_drops_entry(self):
        steer = SteeringScoreboard()
        steer.set(5, SteerInfo(iq=0, partition=0, owner_seq=3))
        steer.reserve(5, by_seq=10)
        steer.flush_from(3)
        assert steer.get(5) is None

    def test_flush_younger_than_both_keeps_reservation(self):
        steer = SteeringScoreboard()
        steer.set(5, SteerInfo(iq=0, partition=0, owner_seq=3))
        steer.reserve(5, by_seq=10)
        steer.flush_from(11)
        assert steer.get(5).reserved and steer.get(5).reserved_by == 10


class TestBug4IdealSharingCapacity:
    """Ideal sharing lifts the equal-halves cap but not total capacity."""

    def test_resident_chain_can_grow_past_half(self):
        piq = SharedPIQ(8, ideal=True)
        for i in range(6):
            push(piq, i, 0)
        piq.activate_sharing()  # ideal: allowed with > size/2 resident
        assert piq.has_space(0)  # the buggy half cap said no space here
        push(piq, 6, 0)
        push(piq, 7, 1)
        piq.debug_check()

    def test_total_capacity_still_enforced(self):
        piq = SharedPIQ(8, ideal=True)
        for i in range(6):
            push(piq, i, 0)
        piq.activate_sharing()
        push(piq, 6, 1)
        push(piq, 7, 1)
        # the buggy per-partition cap (2 < 4) would admit a 9th entry
        assert not piq.has_space(0)
        assert not piq.has_space(1)

    def test_real_sharing_keeps_half_cap(self):
        piq = SharedPIQ(8)
        for i in range(4):
            push(piq, i, 0)
        piq.activate_sharing()
        for i in range(4, 8):
            if len(piq.partitions[1]) < 4:
                push(piq, i, 1)
        assert not piq.has_space(1)  # half cap binds in non-ideal mode


class TestBug5SSIDMergeOrphan:
    """An SSID merge must not orphan the in-flight store's LFST entry."""

    def _merged_predictor(self):
        mdp = StoreSetPredictor()
        mdp.train_violation(load_pc=1000, store_pc=2000)  # set 0
        mdp.train_violation(load_pc=1001, store_pc=2001)  # set 1
        mdp.store_dispatched(2001, seq=50)  # LFST[1] := seq 50
        # merge rule: pc 2001 moves to set 0 while seq 50 is in flight
        mdp.train_violation(load_pc=1000, store_pc=2001)
        return mdp

    def test_issue_releases_orphaned_entry(self):
        mdp = self._merged_predictor()
        mdp.store_issued(2001, seq=50)
        # the old lookup (by current SSID) missed LFST[1]: seq 50 kept
        # imposing dependences after it left the window
        assert mdp.load_dispatched(1001) is None
        mdp.debug_check({})  # no valid entry references the departed store

    def test_flush_releases_orphaned_entry(self):
        mdp = self._merged_predictor()
        mdp.flush_store(2001, seq=50)
        assert mdp.load_dispatched(1001) is None
        mdp.debug_check({})


class TestFlushConsistencyProperties:
    """After ``flush_from(cut)`` nothing may reference a seq >= cut."""

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 99),
                              st.integers(0, 3), st.booleans()),
                    max_size=40),
           st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_scoreboard_flush(self, entries, cut):
        steer = SteeringScoreboard()
        for preg, seq, iq, reserve in entries:
            steer.set(preg, SteerInfo(iq=iq, partition=iq % 2,
                                      owner_seq=seq))
            if reserve:
                steer.reserve(preg, by_seq=seq + 7)
        steer.flush_from(cut)
        for _, info in steer.items():
            assert info.owner_seq < cut
            if info.reserved:
                assert 0 <= info.reserved_by < cut

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 99),
                              st.booleans()),
                    max_size=30),
           st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_lfst_flush(self, stores, cut):
        mdp = StoreSetPredictor()
        for index, (set_index, seq, reserve) in enumerate(stores):
            load_pc, store_pc = 3000 + set_index, 4000 + set_index
            mdp.train_violation(load_pc, store_pc)
            mdp.store_dispatched(store_pc, seq)
            mdp.record_store_steering(store_pc, seq, iq_index=index % 4)
            if reserve:
                mdp.reserve_steering(load_pc, load_seq=seq + 3)
        mdp.flush_from(cut)
        for entry in mdp._lfst.values():
            if entry.valid:
                assert entry.store_seq < cut
            else:
                assert not entry.reserved
            if entry.reserved:
                assert 0 <= entry.reserved_by < cut
