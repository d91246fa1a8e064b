"""Event-driven wakeup must be cycle-for-cycle identical to polling.

``tests/golden_stats.json`` pins cycles/committed/issued/IPC for every
(workload, arch) cell, captured from the per-cycle-polling implementation
this scoreboard replaced.  Any drift means the event-driven wakeup
changed scheduling behaviour — which is a bug by definition, however
small the delta.

The ballerino-family cells were re-captured after the fuzzer-found
scheduler fixes (stale steering reservations, shared P-IQ collapse
remap, ideal-sharing capacity — see docs/correctness.md): those fixes
legitimately change steering timing, so cycle counts moved by a few
cycles on 10 of 84 cells while committed/issued stayed identical.

Each cell also checks the sha256 of its whole ``SimResult.to_dict()``
against ``tests/golden_digests.json`` (see ``golden_cases.py``), bare
and with every per-cycle telemetry consumer attached, so a fast path
that keeps the four pinned fields but moves any other counter fails.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import config_for
from repro.core.ifop import InFlightOp
from repro.core.pipeline import Pipeline, simulate
from repro.core.wakeup import WakeupScoreboard
from repro.isa.instruction import DynOp
from repro.isa.opcodes import opcode
from repro.workloads.suite import get_trace

from golden_cases import digest, telemetry_payload

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_stats.json").read_text()
)
DIGESTS = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


@pytest.mark.parametrize("cell", sorted(GOLDEN["results"]))
def test_matches_polling_golden_stats(cell):
    workload, arch = cell.split("/")
    trace = get_trace(workload, GOLDEN["ops"], GOLDEN["seed"])
    result = simulate(trace, config_for(arch))
    expect = GOLDEN["results"][cell]
    assert result.cycles == expect["cycles"], cell
    assert result.stats.committed == expect["committed"], cell
    assert result.stats.issued == expect["issued"], cell
    # golden IPC was rounded to 6 decimals when captured
    assert round(result.ipc, 6) == pytest.approx(expect["ipc"]), cell
    assert digest(result.to_dict()) == DIGESTS["plain"][cell], cell


@pytest.mark.parametrize("cell", sorted(GOLDEN["results"]))
def test_telemetry_run_matches_golden_digest(cell):
    """Attribution, metrics and interval samples: every field, every cell."""
    assert digest(telemetry_payload(cell)) == DIGESTS["telemetry"][cell], cell


@pytest.mark.parametrize("arch", ["ooo", "ballerino", "dnb", "fxa", "spq"])
def test_scoreboard_invariants_hold(arch):
    """check_invariants cross-checks the scoreboard against a poll."""
    trace = get_trace("histogram", 2000, 7)
    pipe = Pipeline(trace, config_for(arch), check_invariants=True)
    result = pipe.run()
    assert result.stats.committed == 2000


# ---------------------------------------------------------------------------
# scoreboard unit tests


def _ifop(seq, srcs=(), dest=None):
    op = DynOp(seq=seq, pc=seq * 4, opcode=opcode("add"), dest=0,
               srcs=(), mem_addr=None, taken=None, target_pc=None,
               fallthrough_pc=None)
    ifop = InFlightOp(seq, op, decode_cycle=0)
    ifop.src_pregs = tuple(srcs)
    ifop.dest_preg = dest
    return ifop


class _Ready:
    """Minimal ready-file: a set of ready pregs."""

    def __init__(self, ready=()):
        self._ready = set(ready)

    def is_ready(self, preg, cycle):
        return preg in self._ready

    def mark(self, preg):
        self._ready.add(preg)


def test_wake_decrements_and_fires_on_last_source():
    inflight = {}
    ready = _Ready(ready={1})
    board = WakeupScoreboard(inflight, ready)
    consumer = _ifop(10, srcs=(1, 2, 3))
    inflight[10] = consumer
    board.register(consumer, cycle=0)
    assert consumer.wake_pending == 2  # preg 1 already ready
    ready.mark(2)
    assert board.wake(2, cycle=1) == ()  # preg 3 still pending
    assert consumer.wake_pending == 1
    ready.mark(3)
    assert board.wake(3, cycle=2) == (consumer,)
    assert consumer.wake_pending == 0


def test_duplicate_source_pregs_count_twice():
    inflight = {}
    ready = _Ready()
    board = WakeupScoreboard(inflight, ready)
    consumer = _ifop(11, srcs=(5, 5))
    inflight[11] = consumer
    board.register(consumer, cycle=0)
    assert consumer.wake_pending == 2
    ready.mark(5)
    # one broadcast wakes both index entries for preg 5
    assert board.wake(5, cycle=1) == (consumer,)
    assert consumer.wake_pending == 0


def test_stale_consumer_skipped_by_identity():
    inflight = {}
    ready = _Ready()
    board = WakeupScoreboard(inflight, ready)
    stale = _ifop(12, srcs=(7,))
    inflight[12] = stale
    board.register(stale, cycle=0)
    # squash + refetch: same seq, new InFlightOp object
    refetched = _ifop(12, srcs=(7,))
    inflight[12] = refetched
    board.register(refetched, cycle=1)
    ready.mark(7)
    woken = board.wake(7, cycle=2)
    assert woken == (refetched,)  # stale object never surfaces
    assert stale.wake_pending == 1  # untouched


def test_mdp_waiter_fires_on_store_issue():
    inflight = {}
    ready = _Ready()
    board = WakeupScoreboard(inflight, ready)
    load = _ifop(20)
    load.mdp_dep_seq = 15
    inflight[20] = load
    board.register(load, cycle=0)  # no srcs -> wake_pending == 0
    board.register_mdp(load)
    assert load.mdp_waiting
    assert board.store_issued(15) == (load,)
    assert not load.mdp_waiting
