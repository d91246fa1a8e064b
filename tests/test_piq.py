"""Unit tests for the shareable P-IQ (paper §IV-D, Figure 9).

The head-selection policy (which partition's head the single read port
sees) is applied by ``BallerinoScheduler.select``; those tests drive a
one-P-IQ scheduler through a fake core.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.ifop import InFlightOp
from repro.isa import R, opcode
from repro.isa.instruction import DynOp
from repro.sched.ballerino import BallerinoScheduler
from repro.sched.piq import SharedPIQ


def op(seq):
    dyn = DynOp(seq=seq, pc=0, opcode=opcode("add"), dest=R[1], srcs=(R[2], R[3]))
    return InFlightOp(seq=seq, op=dyn, decode_cycle=0)


class GrantingCore:
    """Just enough of the pipeline for select: every port is free."""

    def __init__(self):
        self.energy = Counter()
        self.cycle = 0
        self.mdp = None
        self.config = SimpleNamespace(issue_width=8, decode_width=4)

    def try_grant(self, ifop, cycle):
        return True


def sharing_scheduler(chains, ideal=False):
    """A one-P-IQ Ballerino whose queue holds ``chains`` as partitions."""
    sched = BallerinoScheduler(GrantingCore(), num_piqs=1, piq_size=8,
                               ideal_sharing=ideal)
    piq = sched.piqs[0]
    for partition, seqs in enumerate(chains):
        if partition:
            piq.activate_sharing()
        for seq in seqs:
            entry = op(seq)
            entry.iq_index, entry.iq_partition = 0, partition
            piq.append(entry, partition)
    return sched, piq


class TestNormalMode:
    def test_fifo_order(self):
        piq = SharedPIQ(8)
        for i in range(3):
            piq.append(op(i), 0)
        assert piq.occupancy() == 3
        heads = piq.active_heads()
        assert len(heads) == 1 and heads[0][1].seq == 0
        assert piq.pop_head(0).seq == 0
        assert piq.active_heads()[0][1].seq == 1

    def test_capacity(self):
        piq = SharedPIQ(4)
        for i in range(4):
            assert piq.has_space(0)
            piq.append(op(i), 0)
        assert not piq.has_space(0)
        with pytest.raises(RuntimeError):
            piq.append(op(9), 0)

    def test_empty_flag(self):
        piq = SharedPIQ(4)
        assert piq.count == 0
        piq.append(op(0), 0)
        assert piq.count == 1
        piq.pop_head(0)
        assert piq.count == 0


class TestSharingEligibility:
    def test_empty_queue_not_shareable(self):
        assert not SharedPIQ(8).shareable()

    def test_half_full_is_shareable(self):
        piq = SharedPIQ(8)
        for i in range(4):
            piq.append(op(i), 0)
        assert piq.shareable()

    def test_more_than_half_not_shareable(self):
        piq = SharedPIQ(8)
        for i in range(5):
            piq.append(op(i), 0)
        assert not piq.shareable()

    def test_ideal_mode_ignores_pointer_constraint(self):
        piq = SharedPIQ(8, ideal=True)
        for i in range(5):
            piq.append(op(i), 0)
        assert piq.shareable()

    def test_already_sharing_not_shareable(self):
        piq = SharedPIQ(8)
        piq.append(op(0), 0)
        piq.activate_sharing()
        assert not piq.shareable()

    def test_activate_on_ineligible_raises(self):
        piq = SharedPIQ(8)
        for i in range(5):
            piq.append(op(i), 0)
        with pytest.raises(RuntimeError):
            piq.activate_sharing()


class TestSharingMode:
    def _shared(self, size=8):
        piq = SharedPIQ(size)
        piq.append(op(0), 0)
        piq.append(op(1), 0)
        piq.activate_sharing()
        piq.append(op(10), 1)
        piq.append(op(11), 1)
        return piq

    def test_partition_capacity_is_half(self):
        piq = self._shared(8)
        piq.append(op(12), 1)
        piq.append(op(13), 1)
        assert not piq.has_space(1)  # 4 = 8/2 entries used
        assert piq.has_space(0)

    def test_single_active_head(self):
        piq = self._shared()
        heads = piq.active_heads()
        assert len(heads) == 1

    def test_head_stays_after_issue(self):
        sched, piq = sharing_scheduler([[0, 1], [10, 11]])
        assert [entry.seq for entry in sched.select(1)] == [0]
        assert piq.active == 0

    def test_head_toggles_when_stalled(self):
        sched, piq = sharing_scheduler([[0, 1], [10, 11]])
        for queue in piq.partitions:
            queue[0].wake_pending = 1
        assert sched.select(1) == []
        assert piq.active == 1
        assert sched.select(2) == []
        assert piq.active == 0
        assert sched.head_states["wait_operand"] == 2

    def test_issue_that_drains_a_partition_collapses(self):
        sched, piq = sharing_scheduler([[0], [10, 11]])
        assert [entry.seq for entry in sched.select(1)] == [0]
        assert not piq.sharing and piq.active == 0
        assert [entry.seq for entry in piq.partitions[0]] == [10, 11]
        assert all(entry.iq_partition == 0 for entry in piq.partitions[0])
        piq.debug_check()

    def test_ideal_select_issues_both_heads(self):
        sched, piq = sharing_scheduler([[0], [10, 11]], ideal=True)
        assert [entry.seq for entry in sched.select(1)] == [0, 10]
        assert not piq.sharing
        assert [entry.seq for entry in piq.partitions[0]] == [11]
        piq.debug_check()

    def test_ideal_examines_both_heads(self):
        piq = SharedPIQ(8, ideal=True)
        piq.append(op(0), 0)
        piq.activate_sharing()
        piq.append(op(10), 1)
        assert len(piq.active_heads()) == 2

    def test_collapse_when_partition_drains(self):
        piq = self._shared()
        piq.pop_head(1)
        piq.pop_head(1)
        assert piq.sharing  # a drained partition waits for collapse()
        assert piq.collapse() == {1: 0}
        assert not piq.sharing  # second partition drained
        assert piq.occupancy() == 2

    def test_collapse_when_first_partition_drains(self):
        piq = self._shared()
        piq.pop_head(0)
        piq.pop_head(0)
        assert piq.collapse() == {1: 0}
        assert not piq.sharing
        assert piq.active_heads()[0][1].seq == 10

    def test_collapse_leaves_a_full_queue_alone(self):
        piq = self._shared()
        piq.pop_head(0)
        assert piq.collapse() is None
        assert piq.sharing

    def test_drained_active_partition_yields_other_head(self):
        piq = SharedPIQ(8)
        piq.append(op(0), 0)
        piq.activate_sharing()
        piq.append(op(10), 1)
        piq.active = 1
        piq.pop_head(1)  # partition 1 drains -> collapse to normal
        piq.collapse()
        heads = piq.active_heads()
        assert heads and heads[0][1].seq == 0
        assert piq.active == 0


class TestFlush:
    def test_flush_tail_entries(self):
        piq = SharedPIQ(8)
        for i in (1, 3, 5):
            piq.append(op(i), 0)
        piq.flush_from(3)
        assert piq.occupancy() == 1
        assert piq.active_heads()[0][1].seq == 1

    def test_flush_collapses_sharing(self):
        piq = SharedPIQ(8)
        piq.append(op(0), 0)
        piq.activate_sharing()
        piq.append(op(10), 1)
        piq.flush_from(10)
        assert not piq.sharing
        assert piq.occupancy() == 1

    def test_flush_everything(self):
        piq = SharedPIQ(8)
        piq.append(op(0), 0)
        piq.flush_from(0)
        assert piq.count == 0
