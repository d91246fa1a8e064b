"""Pipeline state snapshots for post-mortem diagnosis.

When the forward-progress watchdog trips (see
:class:`~repro.core.pipeline.DeadlockError`) the raising pipeline is
still intact, so instead of a bare "no commit since cycle N" we can
capture *why* the machine is wedged: the ROB-head µop and exactly which
of its dependences are outstanding, per-IQ occupancy and head ops,
wakeup-scoreboard and LFST state, and the stall-attribution totals when
the run carried a :class:`~repro.telemetry.attribution.StallAttribution`.

The snapshot is a plain JSON-serialisable dict (so it survives pickling
across the parallel runner's process boundary) and
:func:`render_snapshot` turns it into the human-readable block the CLI
and failure reports print.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Cap on list-valued snapshot sections (LFST entries, queue heads, ...)
#: so a pathological state cannot balloon the pickled exception.
_MAX_ITEMS = 16


def _op_info(pipe, ifop) -> Dict:
    """One µop's wedge-relevant state (everything JSON-safe)."""
    waiting_on: List[int] = []
    for preg in ifop.src_pregs:
        if not pipe.ready.is_ready(preg, pipe.cycle):
            waiting_on.append(preg)
    return {
        "seq": ifop.seq,
        "pc": ifop.op.pc,
        "opcode": ifop.opcode.name,
        "klass": ifop.klass,
        "port": ifop.port,
        "issued": ifop.issued,
        "completed": ifop.completed,
        "dispatch_cycle": ifop.dispatch_cycle,
        "dest_preg": ifop.dest_preg,
        "src_pregs": list(ifop.src_pregs),
        "pregs_not_ready": waiting_on,
        "wake_pending": ifop.wake_pending,
        "mdp_waiting": ifop.mdp_waiting,
        "mdp_dep_seq": ifop.mdp_dep_seq,
    }


def _iq_details(scheduler) -> List[Dict]:
    """Best-effort per-IQ occupancy/head introspection.

    Duck-typed over the scheduler zoo: Ballerino (``siq`` + ``piqs`` of
    :class:`~repro.sched.piq.SharedPIQ`), CES (``piqs`` of deques),
    CASINO (``queues``), the FIFO/unified designs (``_queue`` /
    ``_slots``).  Unknown shapes degrade to the total occupancy only.
    """
    queues: List[Dict] = []

    def head_seqs(deq) -> List[int]:
        return [deq[0].seq] if deq else []

    siq = getattr(scheduler, "siq", None)
    if siq is not None and hasattr(siq, "__len__"):
        queues.append({"name": "siq", "occupancy": len(siq),
                       "heads": head_seqs(siq)})
    for index, piq in enumerate(getattr(scheduler, "piqs", ()) or ()):
        if hasattr(piq, "partitions"):  # Ballerino SharedPIQ
            queues.append({
                "name": f"piq{index}",
                "occupancy": piq.occupancy(),
                "sharing": piq.sharing,
                "heads": [op.seq for _, op in piq.active_heads()],
            })
        else:  # CES: plain deque
            queues.append({"name": f"piq{index}", "occupancy": len(piq),
                           "heads": head_seqs(piq)})
    for index, queue in enumerate(getattr(scheduler, "queues", ()) or ()):
        queues.append({"name": f"q{index}", "occupancy": len(queue),
                       "heads": head_seqs(queue)})
    fifo = getattr(scheduler, "_queue", None)
    if fifo is not None:
        queues.append({"name": "iq", "occupancy": len(fifo),
                       "heads": head_seqs(fifo)})
    slots = getattr(scheduler, "_slots", None)
    if slots is not None:
        resident = [op for op in slots if op is not None]
        resident.sort(key=lambda op: op.seq)
        queues.append({
            "name": "iq",
            "occupancy": len(resident),
            "heads": [op.seq for op in resident[:1]],
        })
    return queues[:_MAX_ITEMS]


def _lfst_state(mdp) -> List[Dict]:
    """Valid LFST entries (store-set serialisation / steering state)."""
    entries: List[Dict] = []
    for ssid, entry in sorted(getattr(mdp, "_lfst", {}).items()):
        if not entry.valid:
            continue
        entries.append({
            "ssid": ssid,
            "store_seq": entry.store_seq,
            "store_pc": entry.store_pc,
            "iq_index": entry.iq_index,
            "partition": entry.partition,
            "reserved": entry.reserved,
            "reserved_by": entry.reserved_by,
        })
        if len(entries) >= _MAX_ITEMS:
            break
    return entries


def _op_census(pipe) -> Dict[str, int]:
    """Counts over every fetched, not yet retired µop (``pipe.inflight``).

    ``capacity`` is the in-flight bound the core is built for: ROB plus
    the front-end queues.
    """
    config = pipe.config
    ops = pipe.inflight.values()
    return {
        "capacity": (config.rob_size + config.alloc_queue
                     + 2 * config.decode_width),
        "live": len(ops),
        "issued": sum(1 for op in ops if op.issued),
        "completed": sum(1 for op in ops if op.completed),
        "waiting_sources": sum(1 for op in ops if op.wake_pending > 0),
        "waiting_mdp": sum(1 for op in ops if op.mdp_waiting),
    }


def capture_snapshot(pipe, reason: str = "") -> Dict:
    """Capture a wedged (or merely interesting) pipeline's state.

    Every value is a JSON-native type, so the result can ride inside a
    pickled exception or a ``FailedResult`` without dragging live
    simulator objects along.
    """
    head = pipe.rob.head
    snap: Dict = {
        "reason": reason,
        "workload": pipe.trace.name,
        "config": pipe.config.name,
        "cycle": pipe.cycle,
        "committed": pipe.commit_count,
        "fetched": pipe.stats.fetched,
        "issued": pipe.stats.issued,
        "trace_ops": len(pipe.trace),
        "fetch_index": pipe.fetch_index,
        "fetch_resume_at": pipe.fetch_resume_at,
        "pending_redirect": pipe.pending_redirect,
        "rob": {
            "occupancy": len(pipe.rob),
            "size": pipe.config.rob_size,
            "head": _op_info(pipe, head) if head is not None else None,
        },
        "decode_queue": len(pipe.decode_queue),
        "dispatch_queue": len(pipe.dispatch_queue),
        "lsq": {
            "lq": pipe.lsu.lq_occupancy, "lq_size": pipe.config.lq_size,
            "sq": pipe.lsu.sq_occupancy, "sq_size": pipe.config.sq_size,
        },
        "scheduler": {
            "kind": pipe.scheduler.kind,
            "occupancy": pipe.scheduler.occupancy(),
            "queues": _iq_details(pipe.scheduler),
        },
        "wakeup_scoreboard": {
            "pregs_with_waiters": len(pipe.wakeup._consumers),
            "mdp_waiter_stores": sorted(pipe.wakeup._mdp_waiters)[:_MAX_ITEMS],
            "broadcasts": pipe.wakeup.broadcasts,
            "wakeups": pipe.wakeup.wakeups,
        },
        "lfst": _lfst_state(pipe.mdp) if pipe.mdp is not None else [],
        "pending_events": len(pipe._events),
        "op_table": _op_census(pipe),
    }
    if pipe.attribution is not None:
        snap["stall_cycles"] = pipe.attribution.totals()
    return snap


def describe_head(snapshot: Dict) -> str:
    """One line naming the stuck ROB-head µop (or the empty-ROB state)."""
    head = snapshot.get("rob", {}).get("head")
    if head is None:
        return (
            "ROB empty (front end wedged: fetch_index="
            f"{snapshot.get('fetch_index')}, "
            f"fetch_resume_at={snapshot.get('fetch_resume_at')}, "
            f"pending_redirect={snapshot.get('pending_redirect')})"
        )
    state = "completed" if head["completed"] else (
        "issued" if head["issued"] else "waiting"
    )
    detail = ""
    if not head["issued"]:
        blockers = []
        if head["pregs_not_ready"]:
            blockers.append(f"pregs {head['pregs_not_ready']} not ready")
        if head["mdp_waiting"]:
            blockers.append(f"MDP dep on store seq {head['mdp_dep_seq']}")
        detail = f" ({'; '.join(blockers)})" if blockers else " (ready, never selected)"
    return (
        f"ROB head seq={head['seq']} pc={head['pc']} "
        f"op={head['opcode']} [{state}]{detail}"
    )


def render_snapshot(snapshot: Dict) -> str:
    """Render a captured snapshot as the report block the CLI prints."""
    lines: List[str] = []
    add = lines.append
    add(f"pipeline snapshot: {snapshot['workload']}/{snapshot['config']} "
        f"@ cycle {snapshot['cycle']}")
    if snapshot.get("reason"):
        add(f"  reason: {snapshot['reason']}")
    add(f"  progress: committed {snapshot['committed']}/"
        f"{snapshot['trace_ops']}, fetched {snapshot['fetched']}, "
        f"issued {snapshot['issued']}")
    add("  " + describe_head(snapshot))
    rob = snapshot["rob"]
    lsq = snapshot["lsq"]
    add(f"  rob {rob['occupancy']}/{rob['size']}  "
        f"lq {lsq['lq']}/{lsq['lq_size']}  sq {lsq['sq']}/{lsq['sq_size']}  "
        f"decode_q {snapshot['decode_queue']}  "
        f"dispatch_q {snapshot['dispatch_queue']}")
    sched = snapshot["scheduler"]
    add(f"  scheduler[{sched['kind']}] occupancy {sched['occupancy']}")
    for queue in sched["queues"]:
        heads = ",".join(str(s) for s in queue["heads"]) or "-"
        sharing = " sharing" if queue.get("sharing") else ""
        add(f"    {queue['name']}: {queue['occupancy']} entries, "
            f"head seq {heads}{sharing}")
    scoreboard = snapshot["wakeup_scoreboard"]
    add(f"  wakeup scoreboard: {scoreboard['pregs_with_waiters']} pregs "
        f"with waiters, mdp-waiter stores "
        f"{scoreboard['mdp_waiter_stores'] or '-'}")
    if snapshot["lfst"]:
        add("  lfst:")
        for entry in snapshot["lfst"]:
            add(f"    ssid {entry['ssid']}: store seq {entry['store_seq']} "
                f"pc {entry['store_pc']} iq {entry['iq_index']} "
                f"reserved={entry['reserved']}")
    if "stall_cycles" in snapshot:
        total = sum(snapshot["stall_cycles"].values()) or 1
        parts = ", ".join(
            f"{k} {100.0 * v / total:.0f}%"
            for k, v in snapshot["stall_cycles"].items() if v
        )
        add(f"  stall attribution: {parts}")
    table = snapshot.get("op_table")
    if table:
        add(f"  in flight: {table['live']}/{table['capacity']} µops "
            f"({table['issued']} issued, {table['completed']} completed, "
            f"{table['waiting_sources']} waiting on sources, "
            f"{table['waiting_mdp']} on MDP)")
    add(f"  pending completion events: {snapshot['pending_events']}")
    return "\n".join(lines)
