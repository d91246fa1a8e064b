"""Trace serialization: save/load dynamic traces.

Traces are expensive to produce for long workloads (a full functional
execution), so they can be persisted and replayed later or shared between
machines.  The format is a small JSON header line followed by one compact
JSON array per micro-op:

    {"format": "repro-trace", "version": 1, "name": ..., "ops": N}
    [seq, pc, "opcode", dest, [srcs...], mem_addr, taken, target_pc, fall]

``None`` fields are stored as JSON ``null``; booleans as 0/1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from ..isa.instruction import DynOp
from ..isa.opcodes import opcode
from .trace import Trace

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """The file is not a valid trace of a supported version."""


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (overwrites)."""
    path = Path(path)
    with path.open("w") as handle:
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": trace.name,
            "ops": len(trace),
        }
        handle.write(json.dumps(header) + "\n")
        for op in trace:
            record = [
                op.seq,
                op.pc,
                op.opcode.name,
                op.dest,
                list(op.srcs),
                op.mem_addr,
                None if op.taken is None else int(op.taken),
                op.target_pc,
                op.fallthrough_pc,
            ]
            handle.write(json.dumps(record) + "\n")


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises:
        TraceFormatError: On a bad header, version, op count mismatch,
            or an op whose seq is not its position.
    """
    path = Path(path)
    with path.open() as handle:
        try:
            header = json.loads(handle.readline())
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: unreadable header") from exc
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise TraceFormatError(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported version {header.get('version')}"
            )
        ops: List[DynOp] = []
        for line in handle:
            seq, pc, name, dest, srcs, mem_addr, taken, target, fall = (
                json.loads(line)
            )
            if seq != len(ops):
                raise TraceFormatError(
                    f"{path}: op {len(ops)} has seq {seq}")
            ops.append(
                DynOp(
                    seq=seq,
                    pc=pc,
                    opcode=opcode(name),
                    dest=dest,
                    srcs=tuple(srcs),
                    mem_addr=mem_addr,
                    taken=None if taken is None else bool(taken),
                    target_pc=target,
                    fallthrough_pc=fall,
                )
            )
    if len(ops) != header["ops"]:
        raise TraceFormatError(
            f"{path}: truncated ({len(ops)} of {header['ops']} ops)"
        )
    return Trace(name=header["name"], ops=tuple(ops))
