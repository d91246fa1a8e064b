"""Tests for ports, the ready file, the ROB, and InFlightOp."""

import pytest

from repro.core import PORT_MAPS_BY_WIDTH, PortFile, ReadyFile, ReorderBuffer
from repro.core.ifop import InFlightOp
from repro.isa import OpClass, R, opcode
from repro.isa.opcodes import OP_CLASSES
from repro.isa.instruction import DynOp


def make_ifop(seq=0, name="add", dest=R[1], srcs=(R[2], R[3])):
    op = DynOp(seq=seq, pc=0, opcode=opcode(name), dest=dest, srcs=srcs)
    return InFlightOp(seq=seq, op=op, decode_cycle=0)


INT_ALU, INT_DIV = OpClass.INT_ALU.id, OpClass.INT_DIV.id


class TestPortMaps:
    @pytest.mark.parametrize("width", [2, 4, 8, 10])
    def test_every_class_has_a_port(self, width):
        ports = PortFile(PORT_MAPS_BY_WIDTH[width])
        for klass in OpClass:
            assert ports.ports_for(klass.id)

    def test_8wide_matches_table1(self):
        ports = PortFile(PORT_MAPS_BY_WIDTH[8])
        assert list(ports.ports_for(OpClass.INT_ALU.id)) == [0, 1, 5, 6]
        assert list(ports.ports_for(OpClass.LOAD.id)) == [2, 3, 4, 7]
        assert list(ports.ports_for(OpClass.BRANCH.id)) == [0, 6]
        assert list(ports.ports_for(OpClass.INT_DIV.id)) == [0]
        assert list(ports.ports_for(OpClass.INT_MUL.id)) == [1]

    def test_port_count_equals_width(self):
        for width, port_map in PORT_MAPS_BY_WIDTH.items():
            assert len(port_map) == width

    def test_class_ids_index_op_classes(self):
        assert [klass.id for klass in OP_CLASSES] == list(range(len(OpClass)))
        assert all(OP_CLASSES[klass.id] is klass for klass in OpClass)


class TestPortArbitration:
    def test_assignment_balances_load(self):
        ports = PortFile(PORT_MAPS_BY_WIDTH[8])
        assigned = [ports.assign(INT_ALU) for _ in range(8)]
        # four ALU ports: each should get two of eight ops
        for port in (0, 1, 5, 6):
            assert assigned.count(port) == 2

    def test_unhosted_class_cannot_be_assigned(self):
        ports = PortFile({0: (OpClass.INT_ALU,)})
        with pytest.raises(ValueError, match="LOAD"):
            ports.assign(OpClass.LOAD.id)

    def test_one_grant_per_port_per_cycle(self):
        ports = PortFile(PORT_MAPS_BY_WIDTH[8])
        ports.assign(INT_ALU)
        ports.assign(INT_ALU)
        assert ports.grant(0, INT_ALU, 1, latency=1, pipelined=True)
        assert not ports.grant(0, INT_ALU, 1, latency=1, pipelined=True)
        assert ports.grant(0, INT_ALU, 2, latency=1, pipelined=True)

    def test_double_grant_is_refused(self):
        # a second request on a port in the same cycle is refused and
        # consumes no assignment
        ports = PortFile(PORT_MAPS_BY_WIDTH[8])
        ports.assign(INT_ALU)
        ports.assign(INT_ALU)
        assert ports.inflight[0] == 1
        assert ports.grant(0, INT_ALU, 1, 1, True)
        assert ports.inflight[0] == 0
        assert not ports.grant(0, INT_ALU, 1, 1, True)
        assert ports.inflight[0] == 0

    def test_unpipelined_divide_blocks_its_fu(self):
        ports = PortFile(PORT_MAPS_BY_WIDTH[8])
        ports.assign(INT_DIV)
        assert ports.grant(0, INT_DIV, 1, latency=20, pipelined=False)
        assert ports.busy_until() == [21]
        # the divider is busy for 20 cycles...
        assert not ports.grant(0, INT_DIV, 5, latency=20, pipelined=False)
        # ...but the port itself is free for other classes next cycle
        assert ports.grant(0, INT_ALU, 5, latency=1, pipelined=True)
        assert ports.grant(0, INT_DIV, 21, latency=20, pipelined=False)

    def test_unassign(self):
        ports = PortFile(PORT_MAPS_BY_WIDTH[8])
        port = ports.assign(INT_ALU)
        assert ports.inflight[port] == 1
        ports.unassign(port)
        assert ports.inflight[port] == 0


class TestReadyFile:
    def test_initially_ready(self):
        ready = ReadyFile(8)
        assert ready.is_ready(3, cycle=0)

    def test_pending_then_ready(self):
        ready = ReadyFile(8)
        ready.mark_pending(3)
        assert not ready.is_ready(3, cycle=100)
        ready.mark_ready(3, cycle=42)
        assert not ready.is_ready(3, cycle=41)
        assert ready.is_ready(3, cycle=42)
        assert ready.ready_cycle(3) == 42

    def test_release_resets(self):
        ready = ReadyFile(8)
        ready.mark_pending(3)
        ready.release(3)
        assert ready.is_ready(3, cycle=0)


class TestReorderBuffer:
    def test_fifo_commit_order(self):
        rob = ReorderBuffer(4)
        ops = [make_ifop(seq=i) for i in range(3)]
        for op in ops:
            rob.append(op)
        assert not rob.commit_ready()  # head not completed
        ops[1].completed = True
        assert not rob.commit_ready()  # completion out of order: still blocked
        ops[0].completed = True
        assert rob.commit_ready()
        assert rob.pop_head() is ops[0]

    def test_overflow_raises(self):
        rob = ReorderBuffer(1)
        rob.append(make_ifop(0))
        assert rob.full
        with pytest.raises(RuntimeError):
            rob.append(make_ifop(1))

    def test_flush_returns_youngest_first(self):
        rob = ReorderBuffer(8)
        for i in range(5):
            rob.append(make_ifop(seq=i))
        squashed = rob.flush_from(2)
        assert [op.seq for op in squashed] == [4, 3, 2]
        assert len(rob) == 2

    def test_max_occupancy_tracking(self):
        rob = ReorderBuffer(8)
        for i in range(5):
            rob.append(make_ifop(seq=i))
        rob.flush_from(0)
        assert rob.max_occupancy == 5


class TestInFlightOp:
    def test_passthrough_properties(self):
        load = make_ifop(name="load", dest=R[1], srcs=(R[2],))
        assert load.is_load and not load.is_store and not load.is_branch
        assert load.opcode.name == "load"

    def test_default_timestamps(self):
        op = make_ifop()
        assert op.dispatch_cycle == -1
        assert not op.issued and not op.completed
        assert op.klass == "Rst"
