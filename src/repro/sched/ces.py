"""CES: complexity-effective superscalar clustered P-IQs [Palacharla'97].

Dispatch steers each micro-op along its register dependence chain into one
of several parallel in-order FIFOs (P-IQs); only the FIFO heads are examined
for issue.  The steering heuristic follows the paper (§II-B1):

1. no producer waiting in a P-IQ (ready, or producers already executing)
   -> allocate a new (empty) P-IQ;
2. producer at the tail of a P-IQ with space -> steer behind it;
3. producer not at the tail (chain split), or target P-IQ full
   -> allocate a new P-IQ;
4. no empty P-IQ -> dispatch stalls.

The ``mda_steering`` option adds the paper's M-dependence-aware steering
(§III-B): a load whose store-set producer was steered to P-IQ *k* goes to
*k* (right behind the store) instead of allocating a fresh queue.

Steering-outcome counters reproduce Figure 4's breakdown.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.ifop import InFlightOp
from .base import SchedulerBase
from .steering import (STALL, SteerDecision, SteerInfo, SteeringScoreboard,
                       decision_counts, figure4_outcomes)


class CESScheduler(SchedulerBase):
    """Clustered in-order P-IQs with dependence steering."""

    kind = "ces"
    skip_period = 1

    def __init__(self, core, num_piqs: int = 8, piq_size: int = 12,
                 mda_steering: bool = False):
        super().__init__(core)
        self.num_piqs = num_piqs
        self.piq_size = piq_size
        self.mda = mda_steering
        self.piqs: List[Deque[InFlightOp]] = [deque() for _ in range(num_piqs)]
        self.steer = SteeringScoreboard()
        self._pending: Optional[SteerDecision] = None
        self._pending_seq = -1
        # Figure 4: steering decisions by outcome and operand readiness
        self.steer_decisions = decision_counts(("dc", "mda", "alloc",
                                                "stall"))
        # Figure 6a head-state counters (cycles x P-IQs)
        self.head_states: Dict[str, int] = {
            "issue": 0, "wait_mdep": 0, "wait_operand": 0,
            "port_conflict": 0, "empty": 0,
        }

    # ------------------------------------------------------------------
    # steering
    # ------------------------------------------------------------------
    def _decide(self, ifop: InFlightOp, ready: bool) -> SteerDecision:
        self.energy["pscb_read"] += len(ifop.src_pregs) or 1
        # M-dependence override for loads (steer behind the producer store)
        if self.mda and ifop.is_load and self.core.mdp is not None:
            hint = self.core.mdp.steering_hint(ifop.op.pc)
            if hint is not None and hint.iq_index is not None:
                queue = self.piqs[hint.iq_index]
                if queue and len(queue) < self.piq_size and queue[-1].seq == hint.store_seq:
                    return "mda", hint.iq_index, 0, None
        # R-dependence: follow the first source whose producer waits at a tail
        for preg in ifop.src_pregs:
            info = self.steer.get(preg)
            if info is None or info.reserved:
                continue
            if len(self.piqs[info.iq]) < self.piq_size:
                return "dc", info.iq, 0, preg
            break  # producer's queue is full: fall through to allocation
        for index, queue in enumerate(self.piqs):
            if not queue:
                return "alloc", index, 0, None
        return STALL

    def can_accept(self, ifop: InFlightOp) -> bool:
        ready = ifop.wake_pending == 0 and not ifop.mdp_waiting
        decision = self._decide(ifop, ready)
        self.steer_decisions[decision[0], ready] += 1
        self._pending = decision
        self._pending_seq = ifop.seq
        self.energy["steer"] += 1
        return decision[1] is not None

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        decision = self._pending
        if decision is None or self._pending_seq != ifop.seq:
            # defensive re-decide
            decision = self._decide(ifop, self.core.op_ready(ifop, cycle))
        self._pending = None
        self._apply_steer(ifop, decision)

    def _apply_steer(self, ifop: InFlightOp, decision: SteerDecision) -> None:
        outcome, target, _, followed_preg = decision
        self.piqs[target].append(ifop)
        ifop.iq_index = target
        if self.tracer is not None:
            self.trace_steer(ifop, f"{outcome}->piq{target}")
        self.energy["iq_write"] += 1
        if followed_preg is not None:
            self.steer.reserve(followed_preg, ifop.seq)
        mdp = self.core.mdp
        if outcome == "mda" and mdp is not None:
            # attribute the reservation to this load so a squash of the
            # load alone releases it (see StoreSetPredictor.flush_from)
            mdp.reserve_steering(ifop.op.pc, ifop.seq)
        if ifop.dest_preg is not None:
            self.steer.set(
                ifop.dest_preg,
                SteerInfo(iq=target, partition=0, owner_seq=ifop.seq),
            )
            self.energy["pscb_write"] += 1
        if self.mda and ifop.is_store and mdp is not None:
            mdp.record_store_steering(ifop.op.pc, ifop.seq, target)

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        # each P-IQ head is examined in place; the per-cycle counts add
        # up in locals
        try_grant = self.core.try_grant
        steer_clear = self.steer.clear
        issued: List[InFlightOp] = []
        empty = wait_operand = wait_mdep = port_conflict = 0
        for queue in self.piqs:
            if not queue:
                empty += 1
                continue
            head = queue[0]
            if head.wake_pending:
                wait_operand += 1
            elif head.mdp_waiting:
                wait_mdep += 1
            elif not try_grant(head, cycle):
                port_conflict += 1
            else:
                queue.popleft()
                steer_clear(head.dest_preg)
                issued.append(head)
        energy = self.energy
        if empty < self.num_piqs:
            energy["select_input"] += self.num_piqs - empty
        if issued:
            energy["iq_read"] += len(issued)
        head_states = self.head_states
        head_states["issue"] += len(issued)
        head_states["wait_operand"] += wait_operand
        head_states["wait_mdep"] += wait_mdep
        head_states["port_conflict"] += port_conflict
        head_states["empty"] += empty
        return issued

    def quiet_counters(self) -> Tuple[Dict, ...]:
        # a blocked dispatch re-decides (and counts) a stall every cycle
        return self.head_states, self.steer_decisions

    def on_wakeup(self, preg: int, cycle: int) -> None:
        # only P-IQ heads observe completions (no CAM broadcast)
        self.energy["wakeup_cam"] += self.num_piqs

    # ------------------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        for queue in self.piqs:
            while queue and queue[-1].seq >= seq:
                queue.pop()
        self.steer.flush_from(seq)

    def check_invariants(self) -> None:
        for index, queue in enumerate(self.piqs):
            assert len(queue) <= self.piq_size, f"P-IQ {index} overflow"
            seqs = [op.seq for op in queue]
            assert seqs == sorted(seqs), (
                f"P-IQ {index} out of program order: {seqs}"
            )
            for op in queue:
                assert op.iq_index == index, (
                    f"op {op.seq} records P-IQ {op.iq_index}, lives in {index}"
                )

    def occupancy(self) -> int:
        return sum(len(q) for q in self.piqs)

    def queue_occupancy(self) -> Dict[str, int]:
        return {f"piq{i}": len(q) for i, q in enumerate(self.piqs)}

    def extra_stats(self) -> Dict[str, float]:
        stats: Dict[str, float] = figure4_outcomes(self.steer_decisions)
        stats.update({f"head_{k}": v for k, v in self.head_states.items()})
        return stats
