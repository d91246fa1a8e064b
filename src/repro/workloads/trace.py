"""Dynamic traces, their decoded columns, and trace-level statistics."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Sequence, Tuple

from ..isa.instruction import DynOp
from ..isa.opcodes import OpClass
from ..isa.registers import NUM_INT_REGS, ZERO

#: Values of :attr:`TraceColumns.stop`: what fetch does after the op.
STOP_NONE, STOP_BRANCH, STOP_JMP, STOP_HALT = range(4)

_LOAD, _STORE, _BRANCH = OpClass.LOAD.id, OpClass.STORE.id, OpClass.BRANCH.id


class TraceColumns:
    """The static facts of an op sequence as compact columns; row *i* is
    op *i*.

    The core's hot stages index these ints instead of walking
    ``DynOp -> Opcode -> OpClass`` property chains for every µop.
    Storage is one byte per column per op plus the ``srcs`` list
    pointer: 18 B/op, against ~150 B/op for the ``DynOp`` objects.

    Columns (``bytearray`` unless noted):
        op_class: ``OpClass.id`` of the op.
        latency, pipelined: the opcode's execution latency and
            pipelined flag.
        is_load, is_store, is_branch: 0/1 flags.
        stop: what fetch does after the op: ``STOP_NONE``,
            ``STOP_BRANCH`` (predict a conditional branch), ``STOP_JMP``
            (predict an unconditional one) or ``STOP_HALT`` (stop).
        dest: ``array('b')``, the destination to rename: ``-1`` when
            the op has none or writes ``r0``.
        dest_fp: 1 when ``dest`` is a floating-point register.
        raw_dest: ``array('b')``, ``DynOp.dest`` as written (``r0``
            included, ``-1`` for none).
        srcs: list of the ops' own source-register tuples (shared).
    """

    __slots__ = ("op_class", "latency", "pipelined", "is_load", "is_store",
                 "is_branch", "stop", "dest", "dest_fp", "raw_dest", "srcs")

    def __init__(self, ops: Sequence[DynOp]):
        # one pass per column keeps the transient memory to a few
        # pointer lists (~40 B/op)
        opcodes = [op.opcode for op in ops]
        classes = [opcode.op_class.id for opcode in opcodes]
        self.op_class = bytearray(classes)
        self.latency = bytearray([opcode.latency for opcode in opcodes])
        self.pipelined = bytearray([opcode.pipelined for opcode in opcodes])
        self.is_load = bytearray([klass == _LOAD for klass in classes])
        self.is_store = bytearray([klass == _STORE for klass in classes])
        self.is_branch = bytearray([klass == _BRANCH for klass in classes])
        self.stop = bytearray([
            (STOP_JMP if opcode.name == "jmp" else STOP_BRANCH)
            if klass == _BRANCH
            else (STOP_HALT if opcode.name == "halt" else STOP_NONE)
            for opcode, klass in zip(opcodes, classes)
        ])
        raw = [-1 if op.dest is None else op.dest for op in ops]
        self.raw_dest = array("b", raw)
        self.dest = array("b", [-1 if dest == ZERO else dest for dest in raw])
        self.dest_fp = bytearray([dest >= NUM_INT_REGS for dest in raw])
        self.srcs = [op.srcs for op in ops]


@dataclass(frozen=True)
class Trace:
    """A dynamic micro-op stream produced by the functional executor.

    Traces are immutable so that one functional execution can be replayed by
    many timing configurations (every scheduler sees the identical stream).
    Op *i* must have ``seq == i``: the core indexes the trace by seq
    (squash recovery refetches at ``seq``).

    :attr:`columns` decodes the trace once, on first use, and keeps the
    result on the instance for as long as the trace lives.
    """

    name: str
    ops: Tuple[DynOp, ...]

    @cached_property
    def columns(self) -> TraceColumns:
        """The ops decoded into :class:`TraceColumns` (built on first use).

        Raises:
            ValueError: When an op's ``seq`` is not its index.
        """
        for index, op in enumerate(self.ops):
            if op.seq != index:
                raise ValueError(
                    f"trace {self.name!r}: op {index} has seq {op.seq}; "
                    f"seqs must count up from 0"
                )
        return TraceColumns(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[DynOp]:
        return iter(self.ops)

    def __getitem__(self, index):
        return self.ops[index]

    # ------------------------------------------------------------------
    # summary statistics (useful for workload characterisation tests)
    # ------------------------------------------------------------------
    def class_mix(self) -> Dict[OpClass, int]:
        """Count of micro-ops per :class:`~repro.isa.opcodes.OpClass`."""
        counts: Counter = Counter(op.opcode.op_class for op in self.ops)
        return dict(counts)

    @property
    def num_loads(self) -> int:
        return sum(1 for op in self.ops if op.is_load)

    @property
    def num_stores(self) -> int:
        return sum(1 for op in self.ops if op.is_store)

    @property
    def num_branches(self) -> int:
        return sum(1 for op in self.ops if op.is_branch)

    @property
    def load_fraction(self) -> float:
        return self.num_loads / len(self.ops) if self.ops else 0.0

    def memory_footprint(self) -> int:
        """Number of distinct 64-byte cache lines touched."""
        lines = {op.mem_addr // 64 for op in self.ops if op.mem_addr is not None}
        return len(lines)

    def truncated(self, max_ops: int) -> "Trace":
        """Return a prefix of the trace with at most ``max_ops`` micro-ops."""
        if max_ops >= len(self.ops):
            return self
        return Trace(name=self.name, ops=self.ops[:max_ops])

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports and sanity tests."""
        return {
            "ops": len(self.ops),
            "loads": self.num_loads,
            "stores": self.num_stores,
            "branches": self.num_branches,
            "load_fraction": round(self.load_fraction, 4),
            "lines_touched": self.memory_footprint(),
        }
