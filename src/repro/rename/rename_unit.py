"""Register renaming: RAT, physical free lists, and recovery.

Models the paper's two-stage pipelined renaming (§IV-B) at the architectural
level: a register alias table maps architectural to physical registers,
destinations draw from per-class free lists, and every rename returns the
mapping it replaced.  The pipeline keeps that per op as its recovery-log
record, so a flush restores the RAT by undoing renames youngest first
(the paper's recovery-log scheme).

The two-*cycle* rename latency itself is applied by the pipeline; this module
provides the state and the rename/commit/undo operations.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.registers import NUM_ARCH_REGS, NUM_INT_REGS, is_fp, reg_name


class OutOfPhysicalRegisters(RuntimeError):
    """Raised when ``rename`` is called without checking ``can_rename``."""


class RenameUnit:
    """RAT + free lists + recovery log.

    Physical register ids: integers ``0 .. num_int-1`` are the integer pool;
    ``num_int .. num_int+num_fp-1`` are the FP pool.  At reset, architectural
    register *i* maps to physical register *i*'s pool slot, and physical
    register 0 (backing ``r0``) is permanently ready and never reallocated.

    A µop is renamed from its decoded operands (see
    :class:`~repro.workloads.trace.TraceColumns`): its source registers,
    the destination to rename (``-1`` for none, which includes ``r0``)
    and whether that destination is an FP register.

    Args:
        num_int: Integer physical registers (paper 8-wide: 180).
        num_fp: FP physical registers (paper 8-wide: 168).
    """

    def __init__(self, num_int: int = 180, num_fp: int = 168):
        if num_int < NUM_INT_REGS or num_fp < NUM_ARCH_REGS - NUM_INT_REGS:
            raise ValueError("physical pools must cover the architectural state")
        self.num_int = num_int
        self.num_fp = num_fp
        self.num_phys = num_int + num_fp
        # initial identity mapping
        self._rat: List[int] = [0] * NUM_ARCH_REGS
        for arch in range(NUM_ARCH_REGS):
            if is_fp(arch):
                self._rat[arch] = num_int + (arch - NUM_INT_REGS)
            else:
                self._rat[arch] = arch
        self._free_int: List[int] = list(range(NUM_INT_REGS, num_int))
        self._free_fp: List[int] = list(
            range(num_int + (NUM_ARCH_REGS - NUM_INT_REGS), num_int + num_fp)
        )
        #: the free lists, indexed by register file (0 int, 1 FP)
        self._pools = (self._free_int, self._free_fp)
        self.renames = 0
        self.recovered = 0

    # ------------------------------------------------------------------
    def lookup(self, arch: int) -> int:
        """Current physical mapping of an architectural register."""
        return self._rat[arch]

    def free_count(self, fp: bool) -> int:
        return len(self._free_fp) if fp else len(self._free_int)

    def can_rename(self, dest: int, fp: int) -> bool:
        """True if destination ``dest`` (``-1``: none) can get a preg."""
        return dest < 0 or bool(self._pools[fp])

    def rename(self, srcs: Tuple[int, ...], dest: int, fp: int
               ) -> Tuple[Tuple[int, ...], Optional[int], Optional[int]]:
        """Rename one µop; the caller must have checked ``can_rename``.

        Returns ``(src_pregs, dest_preg, prev_dest_preg)``: the sources'
        current mappings, then the destination's new preg and the
        mapping it replaced (kept for recovery and freed at commit),
        both ``None`` when there is no destination to rename.
        """
        rat = self._rat
        src_pregs = tuple([rat[src] for src in srcs])
        self.renames += 1
        if dest < 0:
            return src_pregs, None, None
        pool = self._pools[fp]
        if not pool:
            raise OutOfPhysicalRegisters(f"no free preg for {reg_name(dest)}")
        dest_preg = pool.pop()
        prev = rat[dest]
        rat[dest] = dest_preg
        return src_pregs, dest_preg, prev

    # ------------------------------------------------------------------
    def commit_mapping(self, prev_dest_preg: Optional[int]) -> None:
        """Retire: the previous mapping of the destination becomes free."""
        if prev_dest_preg is not None:
            pool = (
                self._free_fp if prev_dest_preg >= self.num_int else self._free_int
            )
            pool.append(prev_dest_preg)

    def undo_mapping(
        self,
        dest_arch: Optional[int],
        dest_preg: Optional[int],
        prev_dest_preg: Optional[int],
    ) -> None:
        """Undo one rename (recovery-log walk-back, youngest first)."""
        if dest_preg is None:
            return
        self._rat[dest_arch] = prev_dest_preg
        pool = self._free_fp if dest_preg >= self.num_int else self._free_int
        pool.append(dest_preg)
        self.recovered += 1
