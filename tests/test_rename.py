"""Tests for register renaming: RAT, free lists, recovery."""

from typing import NamedTuple, Optional, Tuple

import pytest

from repro.isa import DynOp, F, R, ZERO, opcode
from repro.rename import OutOfPhysicalRegisters, RenameUnit
from repro.workloads.trace import TraceColumns


def operands(name="add", dest=None, srcs=()):
    """One op's decoded rename operands: ``(srcs, dest, fp)``."""
    op = DynOp(seq=0, pc=0, opcode=opcode(name), dest=dest, srcs=srcs)
    cols = TraceColumns((op,))
    return cols.srcs[0], cols.dest[0], cols.dest_fp[0]


class Renamed(NamedTuple):
    src_pregs: Tuple[int, ...]
    dest_preg: Optional[int]
    prev_dest_preg: Optional[int]
    dest_arch: Optional[int]


def rename(rn, name="add", dest=None, srcs=()):
    return Renamed(*rn.rename(*operands(name, dest, srcs)), dest)


def can_rename(rn, name="add", dest=None, srcs=()):
    _, decoded_dest, fp = operands(name, dest, srcs)
    return rn.can_rename(decoded_dest, fp)


def flush(rn, young_first):
    for renamed in young_first:
        rn.undo_mapping(renamed.dest_arch, renamed.dest_preg,
                        renamed.prev_dest_preg)


class TestBasicRenaming:
    def test_initial_identity_mapping(self):
        rn = RenameUnit(64, 64)
        assert rn.lookup(R[5]) == 5
        assert rn.lookup(F[0]) == 64

    def test_dest_gets_fresh_preg(self):
        rn = RenameUnit(64, 64)
        renamed = rename(rn, dest=R[1], srcs=(R[2], R[3]))
        assert renamed.dest_preg not in (1,)
        assert rn.lookup(R[1]) == renamed.dest_preg
        assert renamed.prev_dest_preg == 1

    def test_sources_read_current_mapping(self):
        rn = RenameUnit(64, 64)
        first = rename(rn, dest=R[1])
        second = rename(rn, dest=R[4], srcs=(R[1],))
        assert second.src_pregs == (first.dest_preg,)

    def test_serial_chain_each_gets_new_preg(self):
        rn = RenameUnit(64, 64)
        pregs = [rename(rn, dest=R[1], srcs=(R[1],)).dest_preg
                 for _ in range(5)]
        assert len(set(pregs)) == 5

    def test_zero_register_never_renamed(self):
        rn = RenameUnit(64, 64)
        renamed = rename(rn, dest=ZERO)
        assert renamed.dest_preg is None
        assert rn.lookup(ZERO) == 0

    def test_fp_and_int_pools_are_separate(self):
        rn = RenameUnit(64, 64)
        int_op = rename(rn, dest=R[1])
        fp_op = rename(rn, "fadd", dest=F[1], srcs=(F[2], F[3]))
        assert int_op.dest_preg < 64 <= fp_op.dest_preg


class TestFreeListPressure:
    def test_can_rename_false_when_exhausted(self):
        rn = RenameUnit(34, 64)  # only 2 spare int pregs
        assert can_rename(rn, dest=R[1])
        rename(rn, dest=R[1])
        rename(rn, dest=R[1])
        assert not can_rename(rn, dest=R[1])
        # ops without destinations still rename fine
        assert can_rename(rn, "store", dest=None, srcs=(R[1], R[2]))

    def test_rename_raises_when_exhausted(self):
        rn = RenameUnit(33, 64)
        rename(rn, dest=R[1])
        with pytest.raises(OutOfPhysicalRegisters):
            rename(rn, dest=R[2])

    def test_commit_releases_previous_mapping(self):
        rn = RenameUnit(33, 64)
        renamed = rename(rn, dest=R[1])
        assert not can_rename(rn, dest=R[2])
        # frees the old mapping of r1 (preg 1)
        rn.commit_mapping(renamed.prev_dest_preg)
        assert can_rename(rn, dest=R[2])

    def test_pool_must_cover_architectural_state(self):
        with pytest.raises(ValueError):
            RenameUnit(16, 64)


class TestRecovery:
    def test_flush_restores_rat(self):
        rn = RenameUnit(64, 64)
        a = rename(rn, dest=R[1])
        b = rename(rn, dest=R[1])
        c = rename(rn, dest=R[2])
        flush(rn, [c, b])  # youngest first
        assert rn.lookup(R[1]) == a.dest_preg
        assert rn.lookup(R[2]) == 2  # back to the original mapping

    def test_flush_returns_pregs_to_free_list(self):
        rn = RenameUnit(34, 64)
        a = rename(rn, dest=R[1])
        b = rename(rn, dest=R[1])
        assert not can_rename(rn, dest=R[3])
        flush(rn, [b, a])
        assert rn.free_count(fp=False) == 2

    def test_flush_then_rerename_is_consistent(self):
        rn = RenameUnit(64, 64)
        a = rename(rn, dest=R[1])
        flush(rn, [a])
        again = rename(rn, dest=R[1])
        assert rn.lookup(R[1]) == again.dest_preg
        assert again.prev_dest_preg == 1

    def test_commit_mapping_none_is_noop(self):
        rn = RenameUnit(64, 64)
        rn.commit_mapping(None)
        rn.undo_mapping(None, None, None)
