"""The cycle-level core pipeline.

A trace-driven model of the paper's baseline core (Table I): fetch (with
TAGE + BTB and an L1I), decode/allocation queue, two-stage rename,
dispatch, a pluggable *scheduler* (the subject of the paper — see
:mod:`repro.sched`), execute over issue ports and FUs, a load/store unit
with forwarding and memory-order-violation squash, store-set MDP, and
in-order commit from a ROB.

Phase order within a cycle is reverse-pipeline (commit, completion events,
issue, dispatch, rename, fetch) so that same-cycle structural releases and
back-to-back wakeup behave like hardware: an op issued at cycle *C* with a
1-cycle FU marks its destination ready during the completion phase of
*C + 1*, letting a dependent op issue in *C + 1*'s issue phase.

Recovery is modelled with the paper's penalties: a mispredicted branch
stops fetch until it resolves plus the recovery penalty; a memory-order
violation squashes from the offending load, re-fetches, and charges the
same penalty.  Wrong-path execution itself is not simulated (trace-driven;
see DESIGN.md).

Idle-cycle skipping: most cycles of a memory-bound run fetch, issue and
commit nothing.  Once such a quiet stretch provably repeats, ``step()``
jumps the clock to the next cycle at which anything can change and
charges the skipped cycles exactly the counters the plain loop would
have charged (see :meth:`Pipeline._skip_quiet` and
docs/performance.md, "Idle-cycle skipping").
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (Callable, Deque, Dict, Hashable, List, NamedTuple,
                    Optional, Tuple)

from ..frontend.branch_predictor import FrontEnd
from ..isa.opcodes import OP_CLASSES, OpClass
from ..lsq.mdp import StoreSetPredictor
from ..lsq.queues import LoadStoreUnit
from ..memory.cache import LINE_SIZE
from ..memory.hierarchy import CODE_BASE, MemoryHierarchy
from ..rename.rename_unit import RenameUnit
from ..telemetry.attribution import StallAttribution
from ..telemetry.metrics import IntervalSampler
from ..telemetry.tracer import Tracer
from ..workloads.trace import STOP_HALT, STOP_JMP, Trace
from .config import CoreConfig
from .ifop import InFlightOp
from .ports import PORT_MAPS_BY_WIDTH, PortFile
from .regready import ReadyFile
from .rob import ReorderBuffer
from .stats import SimResult, SimStats
from .wakeup import WakeupScoreboard

#: FU energy-event name, indexed by op-class id.
_FU_EVENTS = tuple({
    OpClass.INT_ALU: "fu_int",
    OpClass.INT_MUL: "fu_mul",
    OpClass.INT_DIV: "fu_div",
    OpClass.FP_ADD: "fu_fp",
    OpClass.FP_MUL: "fu_fp",
    OpClass.FP_DIV: "fu_fp",
    OpClass.LOAD: "fu_agu",
    OpClass.STORE: "fu_agu",
    OpClass.BRANCH: "fu_branch",
    OpClass.NOP: "fu_int",
}[klass] for klass in OP_CLASSES)

#: Why rename or dispatch can block a cycle: the keys of
#: :attr:`Pipeline.stalls` (``rename`` is a physical-register stall).
STALLS = ("rob_full", "lq_full", "sq_full", "iq_full", "rename")


class SimulationDeadlock(RuntimeError):
    """No instruction committed for an implausibly long stretch."""


class DeadlockError(SimulationDeadlock):
    """The forward-progress watchdog tripped (or ``max_cycles`` hit).

    Carries a JSON-serialisable pipeline ``snapshot`` (see
    :mod:`repro.telemetry.snapshot`) naming the stuck ROB-head µop,
    per-IQ occupancy/heads, wakeup-scoreboard and LFST state, and the
    stall-attribution totals when available.  The custom ``__reduce__``
    keeps the snapshot attached across the parallel runner's process
    boundary (plain exception pickling drops extra attributes).
    """

    def __init__(self, message: str, snapshot: Optional[Dict] = None):
        super().__init__(message)
        self.snapshot: Dict = snapshot if snapshot is not None else {}

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.snapshot))

    def render(self) -> str:
        """The message plus the rendered snapshot block."""
        from ..telemetry.snapshot import render_snapshot

        if not self.snapshot:
            return str(self)
        return f"{self}\n{render_snapshot(self.snapshot)}"


class Pipeline:
    """One simulated core executing one trace.

    Hardware-style counters need no hook: :func:`repro.telemetry.
    core_metrics` reads them from the statistics the pipeline, its
    scheduler, LSQ, rename unit and ports keep anyway.

    Args:
        trace: The dynamic micro-op stream to replay (all of it, or
            the slice :meth:`begin` names).  Its decoded columns
            (:attr:`~repro.workloads.trace.Trace.columns`, built on
            first use and cached on the trace) are what the stages
            read per µop.
        config: Core configuration (see :mod:`repro.core.config`).
        scheduler_factory: ``f(pipeline) -> scheduler``; defaults to building
            the scheduler named by ``config.scheduler.kind``.
        check_invariants: Run the per-cycle invariant checker (see
            :mod:`repro.verify.invariants`) after every simulated cycle.
        tracer: Optional :class:`~repro.telemetry.tracer.Tracer` receiving
            per-µop lifecycle events.  Every hook guards on this single
            nullable reference, so the disabled cost is one branch.
        attribution: Optional :class:`~repro.telemetry.attribution.
            StallAttribution` fed once per simulated cycle (and in bulk
            for a skipped quiet stretch); its totals land on
            ``SimResult.stats.stall_cycles`` / ``.occupancy``.
        sampler: Optional :class:`~repro.telemetry.metrics.
            IntervalSampler`; its every-N-cycles time-series lands on
            ``SimResult.interval_samples``.
        frontend / hierarchy / mdp: Pre-warmed front end, memory
            hierarchy, and memory-dependence predictor to *share*
            instead of building fresh ones — :mod:`repro.core.sampling`
            threads one set through every measured-window pipeline, the
            first two also through its fast-forward engine.  Defaults
            build cold state.
    """

    def __init__(
        self,
        trace: Trace,
        config: CoreConfig,
        scheduler_factory: Optional[Callable[["Pipeline"], object]] = None,
        check_invariants: bool = False,
        tracer: Optional[Tracer] = None,
        attribution: Optional[StallAttribution] = None,
        sampler: Optional[IntervalSampler] = None,
        frontend: Optional[FrontEnd] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        mdp: Optional[StoreSetPredictor] = None,
    ):
        self.trace = trace
        #: the trace's decoded columns, indexed by seq
        self.cols = trace.columns
        self.config = config
        self.tracer = tracer
        self.attribution = attribution
        self.sampler = sampler
        self.hier = (
            hierarchy if hierarchy is not None
            else MemoryHierarchy(config.hierarchy)
        )
        self.frontend = frontend if frontend is not None else FrontEnd()
        self.rename = RenameUnit(config.phys_int, config.phys_fp)
        self.ready = ReadyFile(self.rename.num_phys)
        self.lsu = LoadStoreUnit(config.lq_size, config.sq_size)
        self.lsu.tracer = tracer
        self.mdp: Optional[StoreSetPredictor] = (
            mdp if mdp is not None
            else (StoreSetPredictor() if config.mdp_enabled else None)
        )
        self.rob = ReorderBuffer(config.rob_size)
        self.ports = PortFile(PORT_MAPS_BY_WIDTH[config.issue_width])
        self.stats = SimStats()
        self.energy = self.stats.energy_events
        #: blocked rename or dispatch cycles, by reason (see STALLS)
        self.stalls: Dict[str, int] = dict.fromkeys(STALLS, 0)
        #: µops each memory-order-violation squash removed, in order
        self.squash_depths: List[int] = []

        self.cycle = 0
        #: cycle an external driver must see the clock stop at (the
        #: sampled driver's end of warm-up): a quiet-stretch jump never
        #: lands past it.  ``None`` when nobody is watching.
        self.observe_at: Optional[int] = None
        self.commit_count = 0
        self.fetch_index = 0
        self.fetch_resume_at = 0
        self.pending_redirect: Optional[int] = None  # seq of blocking branch
        self._last_ifetch_line = -1

        self.decode_queue: Deque[InFlightOp] = deque()
        self.dispatch_queue: Deque[Tuple[int, InFlightOp]] = deque()
        self.inflight: Dict[int, InFlightOp] = {}
        self.wakeup = WakeupScoreboard(self.inflight, self.ready)
        self._events: List[Tuple[int, int, int, str, InFlightOp]] = []
        self._event_counter = 0
        self._store_issued: Dict[int, int] = {}  # store seq -> issue cycle
        self._taint: Dict[int, int] = {}  # preg -> tainting load seq

        self.check_invariants = check_invariants

        if scheduler_factory is None:
            from ..sched import create_scheduler

            scheduler_factory = create_scheduler
        self.scheduler = scheduler_factory(self)

    # ==================================================================
    # services used by schedulers
    # ==================================================================
    def op_ready(self, ifop: InFlightOp, cycle: int) -> bool:
        """All register operands ready and any MDP dependence satisfied."""
        return ifop.wake_pending == 0 and not ifop.mdp_waiting

    def try_grant(self, ifop: InFlightOp, cycle: int) -> bool:
        """Request this op's issue port; True (and consumed) if granted."""
        seq = ifop.seq
        cols = self.cols
        return self.ports.grant(ifop.port, ifop.op_class, cycle,
                                cols.latency[seq], cols.pipelined[seq])

    # ==================================================================
    # main loop
    # ==================================================================
    def run(self, max_cycles: int = 50_000_000) -> SimResult:
        """Simulate until the whole trace commits; return the results.

        Raises:
            DeadlockError: When no µop commits for
                ``config.deadlock_cycles`` consecutive cycles (``0``
                disables the watchdog) or the cycle count exceeds
                ``max_cycles``.  The exception carries a full pipeline
                snapshot for post-mortem diagnosis.
        """
        self.begin(max_cycles)
        while self.step():
            pass
        return self.finalize()

    def begin(self, max_cycles: int = 50_000_000,
              start_cycle: int = 0, start: int = 0,
              stop: Optional[int] = None) -> None:
        """Arm the per-run bookkeeping so :meth:`step` can be called.

        Split out of :meth:`run` so external drivers — the sampled
        driver, per-layer profilers — can step a pipeline themselves
        (a step is one cycle or one skipped quiet stretch).  ``run()``
        is exactly ``begin()``; ``while step(): pass``; ``finalize()``.

        ``start`` and ``stop`` bound the run to the trace slice
        ``[start, stop)`` (default: all of it) at the trace's own seqs
        and decoded columns: fetch begins at ``start``, never passes
        ``stop``, and the run ends once ``stop - start`` µops commit.
        :mod:`repro.core.sampling` runs each measured window this way.

        ``start_cycle`` continues a running global clock: the sampled
        driver's measured-window pipelines share a memory hierarchy
        whose MSHR/fill/DRAM-row state is keyed on absolute cycles, so
        a window must pick up the clock where fast-forward left it, not
        restart at zero.  ``max_cycles`` stays an absolute ceiling.
        """
        self._start = start
        self._stop = len(self.trace) if stop is None else stop
        self._total = self._stop - start  # µops this run commits
        self.fetch_index = start
        self._max_cycles = max_cycles
        self._deadlock_cycles = self.config.deadlock_cycles
        self.cycle = start_cycle
        self._last_commit_cycle = start_cycle
        self._last_fetch_cycle = start_cycle
        self._last_issue_cycle = start_cycle
        self._fetched_before = 0
        self._issued_before = 0
        # idle-cycle skipping: the scheduler's opt-in (0 = every cycle),
        # the marks of the current run of quiet cycles, and every
        # count dict a quiet cycle can charge
        self._skip_period = getattr(self.scheduler, "skip_period", 0)
        self._marks: List[_Mark] = []
        self._ledgers: List[Dict] = []
        if self._skip_period:
            self._ledgers = [self.energy, self.stalls,
                             *self.scheduler.quiet_counters()]
            if self.attribution is not None:
                self._ledgers += [self.attribution.cycles,
                                  self.attribution.occupancy]

    def step(self) -> bool:
        """Simulate one cycle, then skip the quiet stretch it proves.

        The clock advances by one cycle, or by more when that cycle
        closed a provably repeating quiet stretch (see
        :meth:`_skip_quiet`); every statistic is exactly what the same
        number of one-cycle steps would have produced.  Returns False
        once the whole trace has committed.

        Raises :class:`DeadlockError` exactly as :meth:`run` does.
        """
        if self.commit_count >= self._total:
            return False
        marks = self._marks
        if self._skip_period and self._quiet_candidate():
            if len(marks) == self._skip_period:
                del marks[0]
            marks.append(_Mark(
                self.cycle, self.stats.issued, len(self.dispatch_queue),
                self.scheduler.quiet_signature(),
                [dict(counts) for counts in self._ledgers],
            ))
        elif marks:
            marks.clear()
        before = self.commit_count
        self._commit()
        if self.commit_count != before:
            self._last_commit_cycle = self.cycle
        self._process_events()
        self._issue()
        self._dispatch()
        self._rename_stage()
        self._fetch()
        if self.attribution is not None:
            self.attribution.record_cycle(self, self.commit_count != before)
        if self.check_invariants:
            self._assert_invariants()
        stats = self.stats
        if stats.fetched != self._fetched_before:
            self._fetched_before = stats.fetched
            self._last_fetch_cycle = self.cycle
        if stats.issued != self._issued_before:
            self._issued_before = stats.issued
            self._last_issue_cycle = self.cycle
        self._advance(1)
        if marks:
            self._skip_quiet()
        return self.commit_count < self._total

    def _advance(self, cycles: int) -> None:
        """Move the clock on; then the sampler and the watchdog look."""
        self.cycle += cycles
        if self.sampler is not None:
            self.sampler.tick(self)
        deadlock_cycles = self._deadlock_cycles
        if deadlock_cycles and self.cycle - self._last_commit_cycle > deadlock_cycles:
            raise self._deadlock(
                f"no commit since cycle {self._last_commit_cycle} "
                f"(now {self.cycle}, watchdog {deadlock_cycles}; "
                f"last issue {self._last_issue_cycle}, "
                f"last fetch {self._last_fetch_cycle})"
            )
        if self.cycle > self._max_cycles:
            raise self._deadlock(f"max_cycles ({self._max_cycles}) exceeded")

    # ==================================================================
    # idle-cycle skipping
    # ==================================================================
    def _quiet_candidate(self) -> bool:
        """Can this cycle only be quiet in the pipeline's own stages?

        True when nothing can commit, complete, rename or fetch, and no
        completion event is due this cycle or the next (a shorter
        stretch could not be skipped anyway).  Side-effect free: it
        never asks the scheduler (CES's ``can_accept`` charges a
        steering decision).  Issue and dispatch are checked after the
        cycle ran, by :meth:`_skip_quiet`.
        """
        cycle = self.cycle
        events = self._events
        if events and events[0][0] <= cycle + 1:
            return False
        entries = self.rob._entries
        if entries and entries[0].completed:
            return False
        if (self.pending_redirect is None and cycle >= self.fetch_resume_at
                and self.fetch_index < self._stop
                and len(self.decode_queue) < self.config.alloc_queue):
            return False
        queue = self.decode_queue
        if queue:
            head = queue[0]
            if head.decode_cycle + self.config.fetch_latency > cycle:
                return True
            seq = head.seq
            return not self.rename.can_rename(self.cols.dest[seq],
                                              self.cols.dest_fp[seq])
        return True

    def _skip_quiet(self) -> None:
        """Jump over the rest of a quiet stretch the last cycles proved.

        Every cycle since ``marks[0]`` passed :meth:`_quiet_candidate`
        and, judged here, issued and dispatched nothing.  When the
        scheduler's :meth:`~repro.sched.base.SchedulerBase.
        quiet_signature` is back at the value of the mark ``period``
        cycles ago, the whole machine is back in that state, so until
        :meth:`_horizon` every further ``period`` cycles repeat exactly
        those cycles: the jump charges every count in each ledger that
        many repeats of its change since the mark.
        """
        marks = self._marks
        if (self.stats.issued != marks[-1].issued
                or len(self.dispatch_queue) != marks[-1].dispatching):
            marks.clear()
            return
        signature = self.scheduler.quiet_signature()
        for period in range(1, len(marks) + 1):
            mark = marks[-period]
            if mark.signature == signature:
                break
        else:
            return  # no period closed yet: keep the marks
        marks.clear()
        repeats = (self._horizon(mark.cycle) - self.cycle) // period
        if repeats > 0:
            for counts, before in zip(self._ledgers, mark.tallies):
                for name, value in list(counts.items()):
                    delta = value - before.get(name, 0)
                    if delta:
                        counts[name] = value + delta * repeats
            self._advance(repeats * period)

    def _horizon(self, since: int) -> int:
        """First cycle after ``since`` at which a quiet stretch may end.

        The earliest of everything that changes on its own clock — the
        event-heap head (stale entries included), ``fetch_resume_at``,
        the dispatch-queue head's ``available_at``, the decode-queue
        head's rename-ready cycle, unpipelined FUs' busy-until, the
        stall-attribution recovery window and the scheduler's own
        :meth:`~repro.sched.base.SchedulerBase.next_event_cycle` — capped
        by the next cycle an observer must see: the interval sampler's
        grid point, the watchdog and ``max_cycles`` trip cycles and
        :attr:`observe_at`.
        """
        ends = [self.fetch_resume_at, *self.ports.busy_until()]
        if self._events:
            ends.append(self._events[0][0])
        if self.dispatch_queue:
            ends.append(self.dispatch_queue[0][0])
        if self.decode_queue:
            ends.append(self.decode_queue[0].decode_cycle
                        + self.config.fetch_latency)
        if self.attribution is not None:
            ends.append(self.attribution.recovery_until)
        own = self.scheduler.next_event_cycle(since)
        if own is not None:
            ends.append(own)
        ends = [end for end in ends if end > since]
        ends.append(self._max_cycles + 1)
        if self._deadlock_cycles:
            ends.append(self._last_commit_cycle + self._deadlock_cycles + 1)
        if self.sampler is not None:
            ends.append(self.sampler.due)
        if self.observe_at is not None:
            ends.append(self.observe_at)
        return min(ends)

    def finalize(self) -> SimResult:
        """Seal the stats and build the :class:`SimResult` (call once)."""
        self.stats.cycles = self.cycle
        if self.attribution is not None:
            self.stats.stall_cycles = self.attribution.totals()
            self.stats.occupancy = self.attribution.occupancy_averages()
        self.stats.scheduler = dict(self.scheduler.extra_stats())
        self.stats.branch_lookups = self.frontend.lookups
        for name, count in self.hier.events.items():
            self.energy[name] += count
        if self.sampler is not None:
            self.sampler.finalize(self)
        # the run is over: free the pipeline by reference counting
        self.scheduler.detach()
        return SimResult(
            workload=self.trace.name,
            config_name=self.config.name,
            stats=self.stats,
            memory_stats=self.hier.stats(),
            frequency_ghz=self.config.frequency_ghz,
            interval_samples=(
                self.sampler.samples if self.sampler is not None else []
            ),
            sample_interval=(
                self.sampler.interval if self.sampler is not None else 0
            ),
        )

    def _deadlock(self, reason: str) -> DeadlockError:
        """Build the watchdog exception with a full pipeline snapshot."""
        from ..telemetry.snapshot import capture_snapshot, describe_head

        snapshot = capture_snapshot(self, reason=reason)
        return DeadlockError(
            f"{self.config.name}/{self.trace.name}: {reason}; "
            f"{describe_head(snapshot)}",
            snapshot=snapshot,
        )

    # ==================================================================
    # debug invariants (enabled with check_invariants=True)
    # ==================================================================
    def _assert_invariants(self) -> None:
        """End-of-cycle microarchitectural invariants (debug mode).

        These catch scheduler/pipeline bookkeeping bugs early: structural
        capacities, in-order ROB contents, and LSQ/ROB agreement.
        """
        assert len(self.rob) <= self.config.rob_size, "ROB overflow"
        assert self.lsu.lq_occupancy <= self.config.lq_size, "LQ overflow"
        assert self.lsu.sq_occupancy <= self.config.sq_size, "SQ overflow"
        rob_seqs = [op.seq for op in self.rob._entries]
        assert rob_seqs == sorted(rob_seqs), "ROB out of program order"
        assert all(
            count >= 0 for count in self.ports.inflight
        ), "negative port in-flight count"
        # every un-issued ROB op must still be inside the scheduler window
        unissued = sum(1 for op in self.rob._entries if not op.issued)
        assert unissued <= self.scheduler.occupancy() + len(
            self.dispatch_queue
        ), "scheduler lost track of an un-issued op"
        # the event-driven wakeup counts must agree with a readiness poll
        for op in self.rob._entries:
            if op.issued:
                continue
            polled = self.wakeup.pending_debug(op, self.cycle)
            assert op.wake_pending == polled, (
                f"seq {op.seq}: scoreboard says {op.wake_pending} pending "
                f"sources, poll says {polled}"
            )
            dep = op.mdp_dep_seq
            legacy = (
                dep is None or dep < self._start + self.commit_count
                or dep in self._store_issued
            )
            assert (not op.mdp_waiting) == legacy, (
                f"seq {op.seq}: mdp_waiting={op.mdp_waiting} disagrees "
                f"with polled MDP dependence state"
            )
        # cross-structure checks (steering liveness, LFST/LSQ agreement,
        # per-scheduler window shape) live in repro.verify.invariants;
        # imported lazily to keep core free of a verify dependency.
        from ..verify.invariants import check_pipeline

        check_pipeline(self)

    # ==================================================================
    # commit
    # ==================================================================
    def _commit(self) -> None:
        entries = self.rob._entries
        if not entries or not entries[0].completed:
            return
        tracer = self.tracer
        record = self.stats.breakdown.record
        for _ in range(self.config.commit_width):
            if not entries or not entries[0].completed:
                return
            ifop = entries.popleft()
            seq = ifop.seq
            if tracer is not None:
                tracer.emit(self.cycle, seq, "commit")
            if ifop.is_store:
                entry = self.lsu.commit_store(seq)
                # retire the store's write into the data cache
                self.hier.access_data(
                    entry.addr, self.cycle, is_write=True, pc=ifop.op.pc,
                )
            elif ifop.is_load:
                self.lsu.commit_load(seq)
            prev_dest = ifop.prev_dest_preg
            if prev_dest is not None:
                self.rename.commit_mapping(prev_dest)
                self.ready.release(prev_dest)
            record(ifop.klass, ifop.decode_cycle, ifop.dispatch_cycle,
                   ifop.ready_cycle, ifop.issue_cycle)
            self.energy["rob_commit"] += 1
            self._store_issued.pop(seq, None)
            self.inflight.pop(seq, None)
            self.commit_count += 1
            self.stats.committed += 1

    # ==================================================================
    # completion / execution events
    # ==================================================================
    def _schedule(self, when: int, ifop: InFlightOp, kind: str) -> None:
        self._event_counter += 1
        heapq.heappush(
            self._events, (when, ifop.seq, self._event_counter, kind, ifop)
        )

    def _process_events(self) -> None:
        events = self._events
        while events and events[0][0] <= self.cycle:
            when, seq, _, kind, ifop = heapq.heappop(events)
            if self.inflight.get(seq) is not ifop:
                continue  # squashed-and-refetched: stale event
            if kind == "exec":
                self._complete(ifop, when)
            elif kind == "load_agu":
                self._load_agu(ifop, when)
            elif kind == "store_agu":
                self._store_agu(ifop, when)

    def _complete(self, ifop: InFlightOp, when: int) -> None:
        ifop.completed = True
        ifop.complete_cycle = when
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(when, ifop.seq, "writeback")
        dest_preg = ifop.dest_preg
        if dest_preg is not None:
            self.ready.mark_ready(dest_preg, when)
            self.energy["prf_write"] += 1
            scheduler = self.scheduler
            scheduler.on_wakeup(dest_preg, when)
            for waiter in self.wakeup.wake(dest_preg, when):
                scheduler.on_op_ready(waiter, when)
            if tracer is not None:
                tracer.emit(when, ifop.seq, "wakeup", f"p{dest_preg}")
        self.scheduler.on_complete(ifop, when)
        if ifop.mispredicted and ifop.is_branch:
            # the front end was stopped at this branch; redirect resolves now
            self.fetch_resume_at = max(
                self.fetch_resume_at, when + self.config.recovery_penalty
            )
            if self.attribution is not None:
                self.attribution.note_recovery(self.fetch_resume_at)
            if self.pending_redirect == ifop.seq:
                self.pending_redirect = None
            # wrong-path activity: the real front end fetches/decodes down
            # the wrong path while the branch resolves.  The trace-driven
            # model does not execute those ops, but their fetch/decode and
            # rename energy is real — charge it for the resolution window
            # at the machine's fetch rate (half-rate utilisation estimate)
            shadow = max(0, when - ifop.decode_cycle)
            wrong_path_ops = (shadow * self.config.decode_width) // 2
            self.energy["fetch"] += wrong_path_ops
            self.energy["rename"] += wrong_path_ops // 2
            self.stats.energy_events["wrongpath_ops"] += wrong_path_ops

    def _load_agu(self, ifop: InFlightOp, when: int) -> None:
        seq = ifop.seq
        op = ifop.op
        addr = op.mem_addr
        forward = self.lsu.load_executing(seq, addr, when)
        self.energy["lsq_search"] += 1
        if forward.forwarded:
            if forward.ready_cycle is None:
                # matching older store has not produced its data yet: retry
                self._schedule(when + 1, ifop, "load_agu")
                return
            complete_at = max(when, forward.ready_cycle) + 1
            source = forward.source_seq
            served_by = f"fwd:{source}"
        else:
            result = self.hier.access_data(addr, when, pc=op.pc)
            complete_at = result.complete_cycle
            source = -1
            served_by = result.level
        if self.tracer is not None:
            self.tracer.emit(when, seq, "execute", served_by)
        self.lsu.load_executed(seq, when, source)
        self._schedule(max(complete_at, when + 1), ifop, "exec")

    def _store_agu(self, ifop: InFlightOp, when: int) -> None:
        seq = ifop.seq
        op = ifop.op
        violators = self.lsu.store_address_ready(seq, op.mem_addr, when)
        self.lsu.store_data_ready(seq, when)
        ifop.completed = True
        ifop.complete_cycle = when
        if self.tracer is not None:
            self.tracer.emit(when, seq, "execute", "agu")
            self.tracer.emit(when, seq, "writeback")
        if violators:
            offender = violators[0]
            victim = self.inflight.get(offender)
            self.stats.order_violations += 1
            if self.mdp is not None and victim is not None:
                self.mdp.train_violation(victim.op.pc, op.pc)
            self._squash(offender)

    # ==================================================================
    # issue
    # ==================================================================
    def _issue(self) -> None:
        for ifop in self.scheduler.select(self.cycle):
            self._do_issue(ifop)

    def _do_issue(self, ifop: InFlightOp) -> None:
        cycle = self.cycle
        ifop.issued = True
        ifop.issue_cycle = cycle
        src_pregs = ifop.src_pregs
        self.stats.issued += 1
        self.ports.issues[ifop.port] += 1
        energy = self.energy
        energy["prf_read"] += len(src_pregs)
        energy[_FU_EVENTS[ifop.op_class]] += 1
        # reconstruct when the op actually became ready (for Fig. 3c/12)
        ready_at = ifop.dispatch_cycle
        ready_cycle = self.ready.ready_cycle
        for preg in src_pregs:
            at = ready_cycle(preg)
            if at > ready_at:
                ready_at = at
        dep = ifop.mdp_dep_seq
        if dep is not None and dep in self._store_issued:
            ready_at = max(ready_at, self._store_issued[dep])
        ifop.ready_cycle = ready_at if ready_at < cycle else cycle
        if self.tracer is not None:
            self.tracer.emit(cycle, ifop.seq, "issue", f"port{ifop.port}")
            if not (ifop.is_load or ifop.is_store):
                self.tracer.emit(
                    cycle + 1, ifop.seq, "execute",
                    OP_CLASSES[ifop.op_class].name.lower(),
                )

        if ifop.is_load:
            self._schedule(cycle + 1, ifop, "load_agu")
        elif ifop.is_store:
            seq = ifop.seq
            if self.mdp is not None:
                self.mdp.store_issued(ifop.op.pc, seq)
            self._store_issued[seq] = cycle
            for waiter in self.wakeup.store_issued(seq):
                self.scheduler.on_op_ready(waiter, cycle)
            self._schedule(cycle + 1, ifop, "store_agu")
        else:
            self._schedule(cycle + self.cols.latency[ifop.seq], ifop, "exec")

    # ==================================================================
    # dispatch
    # ==================================================================
    def _dispatch(self) -> None:
        queue = self.dispatch_queue
        if not queue:
            return
        cycle = self.cycle
        dispatched = 0
        energy = self.energy
        width = self.config.decode_width
        rob = self.rob
        rob_entries = rob._entries
        while queue and dispatched < width:
            available_at, ifop = queue[0]
            rob_full = len(rob_entries) >= rob.size
            if available_at > cycle or rob_full:
                if rob_full:
                    self._dispatch_blocked("rob_full")
                return
            is_load = ifop.is_load
            is_store = ifop.is_store
            if is_load and self.lsu.lq_full():
                self._dispatch_blocked("lq_full")
                return
            if is_store and self.lsu.sq_full():
                self._dispatch_blocked("sq_full")
                return
            if not self.scheduler.can_accept(ifop):
                self._dispatch_blocked("iq_full")
                return
            queue.popleft()
            ifop.dispatch_cycle = cycle
            seq = ifop.seq
            if self.tracer is not None:
                self.tracer.emit(cycle, seq, "dispatch")
            rob_entries.append(ifop)
            if len(rob_entries) > rob.max_occupancy:
                rob.max_occupancy = len(rob_entries)
            if is_load:
                self.lsu.allocate_load(seq, ifop.op.pc)
                energy["lsq_write"] += 1
            elif is_store:
                self.lsu.allocate_store(seq, ifop.op.pc)
                energy["lsq_write"] += 1
            # MDP is consulted here, adjacent to steering (the paper does
            # both alongside rename; keeping them in the same stage stops
            # a younger same-set store from clearing the LFST steering
            # hint before this op's steering decision reads it)
            if self.mdp is not None and (is_load or is_store):
                if is_store:
                    dep = self.mdp.store_dispatched(ifop.op.pc, seq)
                else:
                    dep = self.mdp.load_dispatched(ifop.op.pc)
                energy["mdp_access"] += 1
                if (dep is not None
                        and self._start + self.commit_count <= dep < seq):
                    ifop.mdp_dep_seq = dep
                    if dep not in self._store_issued:
                        self.wakeup.register_mdp(ifop)
            self.scheduler.insert(ifop, cycle)
            energy["dispatch"] += 1
            energy["rob_write"] += 1
            dispatched += 1

    def _dispatch_blocked(self, reason: str) -> None:
        self.stalls[reason] += 1
        if self.attribution is not None:
            self.attribution.note_dispatch_block(reason)

    # ==================================================================
    # rename
    # ==================================================================
    def _classify(self, ifop: InFlightOp) -> None:
        """Tag the op Ld / LdC / Rst at dispatch time (paper Fig. 3c)."""
        taint = self._taint
        dest_preg = ifop.dest_preg
        if ifop.is_load:
            ifop.klass = "Ld"
            if dest_preg is not None:
                taint[dest_preg] = ifop.seq
            return
        alive: Optional[int] = None
        if taint:
            inflight = self.inflight
            for preg in ifop.src_pregs:
                load_seq = taint.get(preg)
                if load_seq is None:
                    continue
                producer = inflight.get(load_seq)
                if producer is not None and not producer.completed:
                    alive = load_seq
                    break
        ifop.klass = "LdC" if alive is not None else "Rst"
        if dest_preg is not None:
            if alive is not None:
                taint[dest_preg] = alive
            else:
                taint.pop(dest_preg, None)

    def _rename_stage(self) -> None:
        queue = self.decode_queue
        if not queue:
            return
        cycle = self.cycle
        renamed = 0
        fetch_latency = self.config.fetch_latency
        rename_latency = self.config.rename_latency
        width = self.config.decode_width
        dispatch_queue = self.dispatch_queue
        rename = self.rename
        cols = self.cols
        dests = cols.dest
        while queue and renamed < width:
            ifop = queue[0]
            if ifop.decode_cycle + fetch_latency > cycle:
                return
            seq = ifop.seq
            dest = dests[seq]
            fp = cols.dest_fp[seq]
            if not rename.can_rename(dest, fp):
                self.stalls["rename"] += 1
                return  # stall until physical registers free up
            queue.popleft()
            src_pregs, dest_preg, prev = rename.rename(cols.srcs[seq], dest,
                                                       fp)
            ifop.src_pregs = src_pregs
            ifop.dest_preg = dest_preg
            ifop.prev_dest_preg = prev
            raw_dest = cols.raw_dest[seq]
            ifop.dest_arch = raw_dest if raw_dest >= 0 else None
            if dest_preg is not None:
                self.ready.mark_pending(dest_preg)
            self.wakeup.register(ifop, cycle)
            ifop.port = self.ports.assign(ifop.op_class)
            self._classify(ifop)
            if self.tracer is not None:
                self.tracer.emit(cycle, seq, "rename", ifop.klass)
            self.energy["rename"] += 1
            dispatch_queue.append((cycle + rename_latency, ifop))
            renamed += 1

    # ==================================================================
    # fetch
    # ==================================================================
    def _fetch(self) -> None:
        cycle = self.cycle
        if self.pending_redirect is not None or cycle < self.fetch_resume_at:
            return
        seq = self.fetch_index
        end = self._stop
        if seq >= end:
            return
        fetched = 0
        trace_ops = self.trace.ops
        cols = self.cols
        stops = cols.stop
        decode_queue = self.decode_queue
        width = self.config.decode_width
        alloc_queue = self.config.alloc_queue
        tracer = self.tracer
        inflight = self.inflight
        stats = self.stats
        energy = self.energy
        while (fetched < width and seq < end
               and len(decode_queue) < alloc_queue):
            op = trace_ops[seq]
            line = (CODE_BASE + op.pc * 4) // LINE_SIZE
            if line != self._last_ifetch_line:
                result = self.hier.access_ifetch(op.pc, cycle)
                self._last_ifetch_line = line
                extra = result.complete_cycle - cycle - self.hier.l1i.latency
                if extra > 0:
                    self.fetch_resume_at = cycle + extra
                    return  # I-cache miss: stall before consuming the op
            ifop = InFlightOp(seq, op, cycle, cols, seq)
            inflight[seq] = ifop
            if tracer is not None:
                tracer.note_op(seq, op.pc, op.opcode.name)
                tracer.emit(cycle, seq, "fetch")
            decode_queue.append(ifop)
            energy["fetch"] += 1
            self.fetch_index = seq + 1
            stats.fetched += 1
            fetched += 1
            stop = stops[seq]
            if stop:
                if stop == STOP_HALT or not self._fetch_branch(
                        ifop, op, stop == STOP_JMP):
                    return
            seq += 1

    def _fetch_branch(self, ifop: InFlightOp, op, unconditional: bool) -> bool:
        """Predict a branch at fetch; returns False if fetch must stop."""
        prediction = self.frontend.predict_branch(op.pc, unconditional)
        self.frontend.resolve(
            op.pc,
            prediction,
            bool(op.taken),
            op.target_pc if op.taken else None,
            unconditional,
        )
        direction_ok = prediction.taken == bool(op.taken)
        if not direction_ok:
            # full misprediction: fetch stops until the branch executes
            self.stats.branch_mispredicts += 1
            ifop.mispredicted = True
            self.pending_redirect = op.seq
            return False
        if op.taken:
            if prediction.target != op.target_pc:
                # correct direction, BTB miss: short decode-redirect bubble
                self.fetch_resume_at = self.cycle + 2
            return False  # a taken branch ends the fetch group
        return True

    # ==================================================================
    # squash (memory-order violation)
    # ==================================================================
    def _squash(self, from_seq: int) -> None:
        """Squash every op with seq >= ``from_seq`` and refetch."""
        self.stats.flushes += 1
        self.squash_depths.append(
            sum(1 for seq in self.inflight if seq >= from_seq))
        if self.tracer is not None:
            for seq in self.inflight:
                if seq >= from_seq:
                    self.tracer.emit(self.cycle, seq, "squash", "mem_order")
        # 1) pre-dispatch queues: drop (dispatch_queue ops are renamed, so
        #    undo them youngest-first before touching the ROB's older ops)
        undispatched = [
            ifop for _, ifop in self.dispatch_queue if ifop.seq >= from_seq
        ]
        self.dispatch_queue = deque(
            (t, ifop) for t, ifop in self.dispatch_queue if ifop.seq < from_seq
        )
        for ifop in sorted(undispatched, key=lambda x: -x.seq):
            self.rename.undo_mapping(
                ifop.dest_arch, ifop.dest_preg, ifop.prev_dest_preg
            )
            if ifop.dest_preg is not None:
                self.ready.release(ifop.dest_preg)
            self.ports.unassign(ifop.port)
            self.energy["rat_recover"] += 1
            self.inflight.pop(ifop.seq, None)
        self.decode_queue = deque(
            ifop for ifop in self.decode_queue if ifop.seq < from_seq
        )
        # 2) ROB walk-back (youngest first)
        for ifop in self.rob.flush_from(from_seq):
            self.rename.undo_mapping(
                ifop.dest_arch, ifop.dest_preg, ifop.prev_dest_preg
            )
            if ifop.dest_preg is not None:
                self.ready.release(ifop.dest_preg)
            if not ifop.issued:
                self.ports.unassign(ifop.port)
            self.energy["rat_recover"] += 1
            self.inflight.pop(ifop.seq, None)
        # 3) scheduler, LSQ, and MDP.  The MDP sweep covers both squashed
        #    stores (their LFST entries die, whatever their pc) and the
        #    stale-reservation case: an MDA-steered load squashed while
        #    its producer store survives must release the Reserved bit,
        #    or the re-fetched load is denied its own steering hint.
        self.scheduler.flush_from(from_seq)
        self.lsu.flush_from(from_seq)
        if self.mdp is not None:
            self.mdp.flush_from(from_seq)
        self._store_issued = {
            seq: cyc for seq, cyc in self._store_issued.items() if seq < from_seq
        }
        # 4) drop stale inflight entries for anything younger (the
        #    decode-queue ops, never renamed).  Events and wakeup entries
        #    are invalidated by identity, but the map must not leak.
        for seq in [s for s in self.inflight if s >= from_seq]:
            del self.inflight[seq]
        # 5) refetch from the squashed load after the recovery penalty
        self.fetch_index = from_seq
        self.fetch_resume_at = max(
            self.fetch_resume_at, self.cycle + self.config.recovery_penalty
        )
        if self.attribution is not None:
            self.attribution.note_recovery(self.fetch_resume_at)
        if self.pending_redirect is not None and self.pending_redirect >= from_seq:
            self.pending_redirect = None
        self._last_ifetch_line = -1


class _Mark(NamedTuple):
    """State at the start of a quiet-candidate cycle (see ``step()``)."""

    cycle: int
    issued: int
    dispatching: int  # dispatch-queue length
    signature: Hashable  # the scheduler's quiet_signature()
    tallies: List[Dict]  # a copy of every ledger


def simulate(
    trace: Trace,
    config: CoreConfig,
    max_cycles: int = 50_000_000,
    phase_hook=None,
) -> SimResult:
    """Convenience wrapper: build a :class:`Pipeline` and run it.

    When the config enables sampling (``sample_period > 0``) the run is
    delegated to the sampled driver (:func:`repro.core.sampling.
    simulate_sampled`) — this is the single dispatch point through
    which the experiment runner, sweeps, and the serve worker pool
    inherit sampled execution.  ``phase_hook`` (see :class:`~repro.
    core.sampling.SampledSimulation`) observes the sampled run's phases
    (fast-forward, warm-up, measure); it is ignored on full-detail
    runs, which have none.
    Telemetry (tracer, stall attribution, interval sampler) attaches to
    a :class:`Pipeline` built directly, which always runs full detail.
    """
    if config.sample_period > 0:
        from .sampling import simulate_sampled

        return simulate_sampled(trace, config, max_cycles=max_cycles,
                                phase_hook=phase_hook)
    return Pipeline(trace, config).run(max_cycles=max_cycles)
