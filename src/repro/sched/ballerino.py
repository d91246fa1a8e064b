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
from typing import Deque, Dict, List, Optional, Tuple

from ..core.ifop import InFlightOp
from .base import SchedulerBase
from .piq import SharedPIQ
from .steering import (SteerDecision, SteerInfo, SteeringScoreboard,
                       decision_counts, figure4_outcomes)


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
        self.energy["pscb_read"] += max(1, len(ifop.src_pregs))
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
                    return SteerDecision(
                        target=hint.iq_index, partition=hint.partition,
                        outcome="mda", ready=ready,
                    )
        # 2) follow the first source operand waiting at a P-IQ tail
        if not ready:
            for preg in ifop.src_pregs:
                info = self.steer.get(preg)
                if info is None or info.reserved:
                    continue
                if self.piqs[info.iq].has_space(info.partition):
                    return SteerDecision(
                        target=info.iq, partition=info.partition,
                        outcome="dc", followed_preg=preg, ready=ready,
                    )
                break  # producer's queue is full: become a new head
        # 3) a fresh dependence head: empty P-IQ first
        for index, piq in enumerate(self.piqs):
            if not piq.count:
                return SteerDecision(target=index, partition=0,
                                     outcome="alloc", ready=ready)
        # 4) P-IQ sharing
        if self.sharing:
            candidates = [
                index for index, piq in enumerate(self.piqs) if piq.shareable()
            ]
            if candidates:
                index = min(candidates, key=lambda j: self.piqs[j].count)
                return SteerDecision(target=index, partition=1,
                                     outcome="share", ready=ready)
        return SteerDecision(target=None, partition=0, outcome="stall",
                             ready=ready)

    def _apply_steer(self, ifop: InFlightOp, decision: SteerDecision) -> None:
        piq = self.piqs[decision.target]
        partition = decision.partition
        if decision.outcome == "share" and not piq.sharing:
            partition = piq.activate_sharing()
        piq.append(ifop, partition)
        ifop.iq_index = decision.target
        ifop.iq_partition = partition
        ifop.sched_tag = "piq"
        self.trace_steer(
            ifop, f"{decision.outcome}->piq{decision.target}.{partition}"
        )
        self.energy["iq_write"] += 1
        self.energy["steer"] += 1
        if decision.followed_preg is not None:
            self.steer.reserve(decision.followed_preg, ifop.seq)
        if decision.outcome == "mda" and self.core.mdp is not None:
            # record *which* load reserved the hint so a squash of the
            # load alone releases the reservation (see mdp.flush_from)
            self.core.mdp.reserve_steering(ifop.op.pc, ifop.seq)
        if ifop.dest_preg is not None:
            self.steer.set(
                ifop.dest_preg,
                SteerInfo(iq=decision.target, partition=partition,
                          owner_seq=ifop.seq),
            )
            self.energy["pscb_write"] += 1
        if self.mda and ifop.is_store and self.core.mdp is not None:
            self.core.mdp.record_store_steering(
                ifop.op.pc, ifop.seq, decision.target, partition
            )

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        issued: List[InFlightOp] = []
        core = self.core
        try_grant = core.try_grant
        energy = self.energy
        select_inputs = 0
        # phase 1: P-IQ heads (upper prefix-sum inputs -> higher priority)
        head_states = self.head_states
        for index, piq in enumerate(self.piqs):
            if not piq.count:
                head_states["empty"] += 1
                continue
            issued_partition: Optional[int] = None
            # common case inlined: a non-sharing P-IQ examines exactly
            # its FIFO head (active_heads() would build a fresh list)
            if piq.sharing:
                heads = piq.active_heads()
            else:
                heads = ((0, piq.partitions[0][0]),)
            for partition, head in heads:
                select_inputs += 1
                # inlined core.srcs_ready / core.mdp_dep_satisfied
                if head.wake_pending:
                    head_states["wait_operand"] += 1
                    continue
                if head.mdp_waiting:
                    head_states["wait_mdep"] += 1
                    continue
                if not try_grant(head, cycle):
                    head_states["port_conflict"] += 1
                    continue
                piq.pop_head(partition, collapse=False)
                self.steer.clear(head.dest_preg)
                energy["iq_read"] += 1
                head_states["issue"] += 1
                self.issued_piq += 1
                issued.append(head)
                issued_partition = partition
            remap = piq.collapse_idle()
            if remap is not None:
                # a partition drained and the queue collapsed: translate
                # every index captured before the collapse — the steering
                # scoreboard, the LFST hints, and the partition we issued
                # from (handing end_cycle the pre-collapse index would
                # leave `active` pointing at a chain that moved)
                self._apply_remap(index, remap)
                if issued_partition is not None:
                    issued_partition = remap.get(
                        issued_partition, issued_partition
                    )
            piq.end_cycle(issued_partition)
        # phase 2: the S-IQ's speculative scheduling window.  Ready ops in
        # the window issue immediately; non-ready ops *preceding* the last
        # issued op are steered to the P-IQs (they were bypassed, so they
        # must leave to keep the FIFO in program order).  Ops after the
        # last issued op stay — a consumer of a just-issued producer then
        # issues from the S-IQ next cycle (cycle-by-cycle chain issue).
        # If nothing in the window is ready, the whole window is steered,
        # advancing the speculative window toward younger ops.
        siq = self.siq
        window_len = len(siq)
        if not window_len:
            energy["select_input"] += select_inputs
            return issued
        if window_len > self.siq_window:
            window_len = self.siq_window
        window = [siq[i] for i in range(window_len)]
        select_inputs += window_len
        issued_mask = []
        ready_mask = []
        for op in window:
            ready = op.wake_pending == 0 and not op.mdp_waiting
            granted = ready and try_grant(op, cycle)
            ready_mask.append(ready)
            issued_mask.append(granted)
            if granted:
                energy["iq_read"] += 1
                self.issued_siq += 1
                issued.append(op)
        energy["select_input"] += select_inputs
        if any(issued_mask):
            limit = max(i for i, ok in enumerate(issued_mask) if ok)
        else:
            limit = len(window)
        for _ in range(window_len):
            siq.popleft()
        kept: List[InFlightOp] = []
        blocked = False
        for i, op in enumerate(window):
            if issued_mask[i]:
                continue
            if blocked or i > limit:
                kept.append(op)
                continue
            # steer: along M/R-dependences if not ready, or as a fresh
            # dependence head if ready but the issue port was taken
            decision = self._decide(op, ready_mask[i])
            self.steer_decisions[decision.outcome, decision.ready] += 1
            if decision.target is None:
                blocked = True  # steering stall: this op blocks the head
                kept.append(op)
            else:
                self._apply_steer(op, decision)
        for op in reversed(kept):
            self.siq.appendleft(op)
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
