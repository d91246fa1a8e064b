"""Micro-operation opcode definitions.

The simulator models a small RISC-like micro-op ISA that is sufficient to
express the workload kernels while exercising every scheduling-relevant
behaviour of the paper's x86 baseline: heterogeneous functional-unit
latencies, pipelined vs. unpipelined units, loads/stores with address
generation, and conditional branches.

Execution latencies follow common Skylake-class values (the paper's baseline
core, Table I).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional-unit class of a micro-op.

    The issue-port arbitration in :mod:`repro.core.ports` maps each class to
    the ports that host a matching functional unit (paper Table I).

    Each member also carries ``id``, its declaration index (``0`` for
    ``INT_ALU`` ... ``9`` for ``NOP``; ``OP_CLASSES[klass.id] is
    klass``).  The decoded trace columns, each in-flight op and the
    port file key on that int instead of hashing the enum member.
    """

    def __new__(cls, value: str):
        member = object.__new__(cls)
        member._value_ = value
        member.id = len(cls.__members__)
        return member

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)


@dataclass(frozen=True)
class Opcode:
    """Static description of one opcode.

    Attributes:
        name: Mnemonic, e.g. ``"add"``.
        op_class: Functional-unit class used for port arbitration.
        latency: Execution latency in cycles once issued to the FU.  For
            loads this is only the address-generation latency; the cache
            access time is added by the memory hierarchy.
        pipelined: Whether a new op of this kind can start on the same FU
            every cycle (divides are unpipelined).
        reads_memory / writes_memory: Memory side effects.
        is_branch: Whether the op may redirect control flow.
    """

    name: str
    op_class: OpClass
    latency: int
    pipelined: bool = True

    @property
    def reads_memory(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def writes_memory(self) -> bool:
        return self.op_class is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.op_class is OpClass.BRANCH

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _make_opcode_table() -> dict:
    ops = [
        # integer ALU (1-cycle, pipelined)
        Opcode("add", OpClass.INT_ALU, 1),
        Opcode("addi", OpClass.INT_ALU, 1),
        Opcode("sub", OpClass.INT_ALU, 1),
        Opcode("and", OpClass.INT_ALU, 1),
        Opcode("or", OpClass.INT_ALU, 1),
        Opcode("xor", OpClass.INT_ALU, 1),
        Opcode("shl", OpClass.INT_ALU, 1),
        Opcode("shr", OpClass.INT_ALU, 1),
        Opcode("mov", OpClass.INT_ALU, 1),
        Opcode("li", OpClass.INT_ALU, 1),
        Opcode("slt", OpClass.INT_ALU, 1),
        # integer multiply / divide
        Opcode("mul", OpClass.INT_MUL, 3),
        Opcode("div", OpClass.INT_DIV, 20, pipelined=False),
        Opcode("rem", OpClass.INT_DIV, 20, pipelined=False),
        # floating point
        Opcode("fadd", OpClass.FP_ADD, 3),
        Opcode("fsub", OpClass.FP_ADD, 3),
        Opcode("fmul", OpClass.FP_MUL, 4),
        Opcode("fdiv", OpClass.FP_DIV, 12, pipelined=False),
        Opcode("fmov", OpClass.FP_ADD, 1),
        # memory (latency = AGU cycle; cache time added by the hierarchy)
        Opcode("load", OpClass.LOAD, 1),
        Opcode("fload", OpClass.LOAD, 1),
        Opcode("store", OpClass.STORE, 1),
        Opcode("fstore", OpClass.STORE, 1),
        # control flow
        Opcode("beq", OpClass.BRANCH, 1),
        Opcode("bne", OpClass.BRANCH, 1),
        Opcode("blt", OpClass.BRANCH, 1),
        Opcode("bge", OpClass.BRANCH, 1),
        Opcode("jmp", OpClass.BRANCH, 1),
        # misc
        Opcode("nop", OpClass.NOP, 1),
        Opcode("halt", OpClass.NOP, 1),
    ]
    return {op.name: op for op in ops}


#: Mnemonic -> :class:`Opcode` for every op in the ISA.
OPCODES: dict = _make_opcode_table()

#: Every op class, indexed by its ``id``.
OP_CLASSES = tuple(OpClass)

#: Opcodes whose result another instruction can consume via a register.
PRODUCING_CLASSES = frozenset(
    {
        OpClass.INT_ALU,
        OpClass.INT_MUL,
        OpClass.INT_DIV,
        OpClass.FP_ADD,
        OpClass.FP_MUL,
        OpClass.FP_DIV,
        OpClass.LOAD,
    }
)


def opcode(name: str) -> Opcode:
    """Look up an :class:`Opcode` by mnemonic, raising ``KeyError`` if absent."""
    return OPCODES[name]
