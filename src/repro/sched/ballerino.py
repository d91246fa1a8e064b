"""Ballerino: cascaded S-IQ + clustered shareable P-IQs (the paper's design).

Per cycle (paper §IV):

1. **P-IQ select** — every P-IQ examines its active head(s); ready heads
   request their issue port.  P-IQ requests occupy the upper prefix-sum
   inputs, so they automatically out-prioritise the younger S-IQ ops
   (partial oldest-first selection, §IV-E).
2. **S-IQ speculative issue & steering** — up to ``siq_window`` ops at the
   S-IQ head are processed in order: a ready op issues immediately; a ready
   op whose port is taken is steered to a P-IQ as a new dependence head
   (it retries at the P-IQ head next cycle); a non-ready op is steered
   along its M/R-dependences.  A steering stall blocks the S-IQ head.

Steering (§IV-C) resolves, in priority order: the M-dependence hint from
the extended LFST (loads only, ``mda_steering``), the first source operand
whose producer sits unreserved at a P-IQ tail, an empty P-IQ, and finally —
with ``piq_sharing`` — an eligible P-IQ is switched into sharing mode and
the op starts the second partition.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from ..core.ifop import InFlightOp
from .base import SchedulerBase
from .piq import SharedPIQ
from .steering import (STALL, SteerDecision, SteerInfo, SteeringScoreboard,
                       decision_counts, figure4_outcomes)

#: the partitions a P-IQ examines: the active one, or both (ideal sharing)
_ONE_HEAD = ((0,), (1,))
_BOTH_HEADS = (0, 1)


class BallerinoScheduler(SchedulerBase):
    """The full Ballerino scheduling window."""

    kind = "ballerino"
    #: a sharing P-IQ that issues nothing hands its single read port to
    #: the other chain every cycle, so quiet stretches repeat every 2
    skip_period = 2

    def __init__(
        self,
        core,
        siq_size: int = 8,
        siq_window: int = 4,
        num_piqs: int = 7,
        piq_size: int = 12,
        mda_steering: bool = True,
        piq_sharing: bool = True,
        ideal_sharing: bool = False,
    ):
        super().__init__(core)
        self.siq_size = siq_size
        self.siq_window = siq_window
        self.num_piqs = num_piqs
        self.piq_size = piq_size
        self.mda = mda_steering
        self.sharing = piq_sharing
        self.ideal = ideal_sharing
        self.siq: Deque[InFlightOp] = deque()
        self.piqs: List[SharedPIQ] = [
            SharedPIQ(piq_size, ideal=ideal_sharing) for _ in range(num_piqs)
        ]
        self.steer = SteeringScoreboard()
        self.issued_siq = 0
        self.issued_piq = 0
        self.steer_decisions = decision_counts(("dc", "mda", "share",
                                                "alloc", "stall"))
        self.head_states: Dict[str, int] = {
            "issue": 0, "wait_mdep": 0, "wait_operand": 0,
            "port_conflict": 0, "empty": 0,
        }

    # ------------------------------------------------------------------
    # dispatch: everything enters through the S-IQ
    # ------------------------------------------------------------------
    def can_accept(self, ifop: InFlightOp) -> bool:
        return len(self.siq) < self.siq_size

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        self.siq.append(ifop)
        ifop.sched_tag = "siq"
        self.energy["iq_write"] += 1

    # ------------------------------------------------------------------
    # steering
    # ------------------------------------------------------------------
    def _decide(self, ifop: InFlightOp, ready: bool) -> SteerDecision:
        self.energy["pscb_read"] += len(ifop.src_pregs) or 1
        # 1) M-dependence-aware override for loads
        if self.mda and ifop.is_load and self.core.mdp is not None:
            hint = self.core.mdp.steering_hint(ifop.op.pc)
            if hint is not None and hint.iq_index is not None:
                piq = self.piqs[hint.iq_index]
                tail = piq.tail(hint.partition)
                if (
                    tail is not None
                    and tail.seq == hint.store_seq
                    and piq.has_space(hint.partition)
                ):
                    return "mda", hint.iq_index, hint.partition, None
        # 2) follow the first source operand waiting at a P-IQ tail
        if not ready:
            for preg in ifop.src_pregs:
                info = self.steer.get(preg)
                if info is None or info.reserved:
                    continue
                if self.piqs[info.iq].has_space(info.partition):
                    return "dc", info.iq, info.partition, preg
                break  # producer's queue is full: become a new head
        # 3) a fresh dependence head: empty P-IQ first
        for index, piq in enumerate(self.piqs):
            if not piq.count:
                return "alloc", index, 0, None
        # 4) P-IQ sharing: the least occupied eligible queue, the first
        #    one on a tie
        if self.sharing:
            target = None
            for index, piq in enumerate(self.piqs):
                if (target is None or piq.count < least) and piq.shareable():
                    target, least = index, piq.count
            if target is not None:
                return "share", target, 1, None
        return STALL

    def _apply_steer(self, ifop: InFlightOp, decision: SteerDecision) -> None:
        outcome, target, partition, followed_preg = decision
        piq = self.piqs[target]
        if outcome == "share" and not piq.sharing:
            partition = piq.activate_sharing()
        piq.append(ifop, partition)
        ifop.iq_index = target
        ifop.iq_partition = partition
        ifop.sched_tag = "piq"
        if self.tracer is not None:
            self.trace_steer(ifop, f"{outcome}->piq{target}.{partition}")
        energy = self.energy
        energy["iq_write"] += 1
        energy["steer"] += 1
        if followed_preg is not None:
            self.steer.reserve(followed_preg, ifop.seq)
        mdp = self.core.mdp
        if outcome == "mda" and mdp is not None:
            # record *which* load reserved the hint so a squash of the
            # load alone releases the reservation (see mdp.flush_from)
            mdp.reserve_steering(ifop.op.pc, ifop.seq)
        if ifop.dest_preg is not None:
            self.steer.set(
                ifop.dest_preg,
                SteerInfo(iq=target, partition=partition, owner_seq=ifop.seq),
            )
            energy["pscb_write"] += 1
        if self.mda and ifop.is_store and mdp is not None:
            mdp.record_store_steering(ifop.op.pc, ifop.seq, target, partition)

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        # Heads and window entries are examined in place, a queue changes
        # only where an op leaves it, and the per-cycle counts add up in
        # locals.
        issued: List[InFlightOp] = []
        try_grant = self.core.try_grant
        steer_clear = self.steer.clear
        ideal = self.ideal
        empty = wait_operand = wait_mdep = port_conflict = 0
        # phase 1: P-IQ heads (upper prefix-sum inputs -> higher priority).
        # A normal P-IQ examines its FIFO head.  A sharing one examines
        # the head of its active partition, which stays active after an
        # issue (back-to-back) and otherwise hands the single read port to
        # the other chain (paper §IV-D); ideal sharing examines both heads.
        # Between cycles both partitions of a sharing P-IQ hold ops (the
        # pop that drains one collapses the queue), so the other chain
        # always has a head to hand the port to.
        for index, piq in enumerate(self.piqs):
            if not piq.count:
                empty += 1
                continue
            sharing = piq.sharing
            drained = False
            for partition in (_BOTH_HEADS if sharing and ideal
                              else _ONE_HEAD[piq.active]):
                queue = piq.partitions[partition]
                head = queue[0]
                if head.wake_pending:
                    wait_operand += 1
                elif head.mdp_waiting:
                    wait_mdep += 1
                elif not try_grant(head, cycle):
                    port_conflict += 1
                else:
                    piq.pop_head(partition)
                    steer_clear(head.dest_preg)
                    issued.append(head)
                    if not queue:
                        drained = True
                    continue
                if sharing and not ideal:
                    piq.active = 1 - partition
            if drained and sharing:
                # a partition drained and the queue collapses: translate
                # every partition index captured before the collapse
                self._apply_remap(index, piq.collapse())
        piq_issues = len(issued)
        # every examined head lands in exactly one head state
        inputs = piq_issues + wait_operand + wait_mdep + port_conflict
        # phase 2: the S-IQ's speculative scheduling window.  Ready ops in
        # the window issue immediately; non-ready ops *preceding* the last
        # issued op are steered to the P-IQs (they were bypassed, so they
        # must leave to keep the FIFO in program order).  Ops after the
        # last issued op stay — a consumer of a just-issued producer then
        # issues from the S-IQ next cycle (cycle-by-cycle chain issue).
        # If nothing in the window is ready, the whole window is steered,
        # advancing the speculative window toward younger ops.
        siq = self.siq
        window = len(siq)
        if window > self.siq_window:
            window = self.siq_window
        inputs += window
        # bit i: window entry i was ready / has left the S-IQ
        ready = leaving = 0
        last_issued = -1
        for i in range(window):
            op = siq[i]
            if op.wake_pending == 0 and not op.mdp_waiting:
                ready |= 1 << i
                if try_grant(op, cycle):
                    issued.append(op)
                    leaving |= 1 << i
                    last_issued = i
        energy = self.energy
        if issued:
            energy["iq_read"] += len(issued)
        energy["select_input"] += inputs
        head_states = self.head_states
        head_states["issue"] += piq_issues
        head_states["wait_operand"] += wait_operand
        head_states["wait_mdep"] += wait_mdep
        head_states["port_conflict"] += port_conflict
        head_states["empty"] += empty
        self.issued_piq += piq_issues
        self.issued_siq += len(issued) - piq_issues
        # steer, along M/R-dependences if not ready, or as a fresh
        # dependence head if ready but the issue port was taken; a
        # steering stall blocks the S-IQ head and every op behind it
        counts = self.steer_decisions
        for i in range(last_issued if last_issued >= 0 else window):
            if leaving >> i & 1:
                continue
            op = siq[i]
            op_ready = ready >> i & 1 == 1
            decision = self._decide(op, op_ready)
            counts[decision[0], op_ready] += 1
            if decision[1] is None:
                break
            self._apply_steer(op, decision)
            leaving |= 1 << i
        if leaving:
            for i in range(window - 1, -1, -1):  # youngest first
                if leaving >> i & 1:
                    del siq[i]
        return issued

    def quiet_signature(self) -> Tuple:
        # ops only move S-IQ -> P-IQ, so lengths show every steer; the
        # active partitions show the head-selection toggle
        return len(self.siq), tuple((piq.count, piq.active)
                                    for piq in self.piqs)

    def quiet_counters(self) -> Tuple[Dict, ...]:
        return self.head_states, self.steer_decisions

    def on_wakeup(self, preg: int, cycle: int) -> None:
        # completions are observed only by the P-IQ heads + S-IQ window
        self.energy["wakeup_cam"] += self.num_piqs + self.siq_window

    def _apply_remap(self, iq_index: int, remap: Dict[int, int]) -> None:
        """Propagate a P-IQ partition collapse to all location records."""
        self.steer.remap_partition(iq_index, remap)
        if self.mda and self.core.mdp is not None:
            self.core.mdp.remap_steering(iq_index, remap)

    # ------------------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        while self.siq and self.siq[-1].seq >= seq:
            self.siq.pop()
        for index, piq in enumerate(self.piqs):
            remap = piq.flush_from(seq)
            if remap is not None:
                self._apply_remap(index, remap)
        self.steer.flush_from(seq)

    def check_invariants(self) -> None:
        assert len(self.siq) <= self.siq_size, "S-IQ overflow"
        seqs = [op.seq for op in self.siq]
        assert seqs == sorted(seqs), f"S-IQ out of program order: {seqs}"
        for index, piq in enumerate(self.piqs):
            piq.debug_check()
            for queue in piq.partitions:
                for op in queue:
                    assert op.iq_index == index, (
                        f"op {op.seq} records P-IQ {op.iq_index}, "
                        f"lives in {index}"
                    )

    def occupancy(self) -> int:
        return len(self.siq) + sum(piq.count for piq in self.piqs)

    def queue_occupancy(self) -> Dict[str, int]:
        out = {"siq": len(self.siq)}
        for index, piq in enumerate(self.piqs):
            out[f"piq{index}"] = piq.occupancy()
        return out

    def extra_stats(self) -> Dict[str, float]:
        stats: Dict[str, float] = figure4_outcomes(self.steer_decisions)
        stats.update({f"head_{k}": v for k, v in self.head_states.items()})
        stats["issued_siq"] = self.issued_siq
        stats["issued_piq"] = self.issued_piq
        stats["share_activations"] = sum(
            piq.share_activations for piq in self.piqs
        )
        return stats
