"""Isolated unit tests of Ballerino's steering logic using a fake core.

The scheduler tests in ``test_schedulers.py`` exercise full simulations;
these pin down the *decision table* of §IV-C directly: given a crafted
scheduler state, which P-IQ/partition does one op steer to, and why.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.ifop import InFlightOp
from repro.isa import R, opcode
from repro.isa.instruction import DynOp
from repro.lsq.mdp import StoreSetPredictor
from repro.sched.ballerino import BallerinoScheduler
from repro.sched.steering import SteerInfo


class FakeCore:
    """Just enough of the Pipeline surface for steering decisions."""

    def __init__(self, mdp=None):
        self.energy = Counter()
        self.cycle = 0
        self.mdp = mdp
        self._ready_pregs = set()
        self.config = SimpleNamespace(issue_width=8, decode_width=4)

    def set_ready(self, *pregs):
        self._ready_pregs.update(pregs)

    def srcs_ready(self, ifop, cycle):
        return all(p in self._ready_pregs for p in ifop.src_pregs)

    def mdp_dep_satisfied(self, ifop):
        return ifop.mdp_dep_seq is None

    def op_ready(self, ifop, cycle):
        return self.srcs_ready(ifop, cycle) and self.mdp_dep_satisfied(ifop)

    def try_grant(self, ifop, cycle):
        return True


def make_op(seq, name="add", dest_preg=100, src_pregs=(1, 2), pc=None):
    dyn = DynOp(
        seq=seq, pc=pc if pc is not None else seq,
        opcode=opcode(name),
        dest=R[1] if dest_preg is not None else None,
        srcs=tuple(R[1] for _ in src_pregs),
        mem_addr=0x100 if opcode(name).op_class.is_memory else None,
    )
    ifop = InFlightOp(seq=seq, op=dyn, decode_cycle=0)
    ifop.dest_preg = dest_preg
    ifop.src_pregs = tuple(src_pregs)
    return ifop


@pytest.fixture()
def sched():
    core = FakeCore()
    return BallerinoScheduler(core, num_piqs=3, piq_size=4)


class TestSteeringDecisions:
    def test_no_producer_allocates_empty_piq(self, sched):
        outcome, target, _, _ = sched._decide(make_op(0), ready=False)
        assert outcome == "alloc"
        assert target == 0

    def test_follows_producer_at_tail(self, sched):
        producer = make_op(0, dest_preg=50)
        sched._apply_steer(producer, sched._decide(producer, ready=False))
        consumer = make_op(1, dest_preg=51, src_pregs=(50,))
        outcome, target, _, followed_preg = sched._decide(consumer,
                                                           ready=False)
        assert outcome == "dc"
        assert target == producer.iq_index
        assert followed_preg == 50

    def test_ready_op_never_follows_chain(self, sched):
        """Paper case 3: a ready op becomes a new dependence head."""
        producer = make_op(0, dest_preg=50)
        sched._apply_steer(producer, sched._decide(producer, ready=False))
        consumer = make_op(1, dest_preg=51, src_pregs=(50,))
        outcome, _, _, _ = sched._decide(consumer, ready=True)
        assert outcome == "alloc"

    def test_chain_split_allocates_new_queue(self, sched):
        producer = make_op(0, dest_preg=50)
        sched._apply_steer(producer, sched._decide(producer, ready=False))
        first = make_op(1, dest_preg=51, src_pregs=(50,))
        sched._apply_steer(first, sched._decide(first, ready=False))
        # the second consumer of preg 50 sees Reserved and splits
        second = make_op(2, dest_preg=52, src_pregs=(50,))
        outcome, target, _, _ = sched._decide(second, ready=False)
        assert outcome == "alloc"
        assert target != producer.iq_index

    def test_full_queue_allocates_new(self, sched):
        ops = [make_op(0, dest_preg=50)]
        sched._apply_steer(ops[0], sched._decide(ops[0], ready=False))
        for i in range(1, 4):  # fill queue 0 (size 4) along the chain
            op = make_op(i, dest_preg=50 + i, src_pregs=(50 + i - 1,))
            sched._apply_steer(op, sched._decide(op, ready=False))
        overflow = make_op(9, dest_preg=60, src_pregs=(53,))
        outcome, target, partition, _ = sched._decide(overflow, ready=False)
        assert outcome in ("alloc", "share")
        assert target != 0 or partition == 1

    def test_sharing_when_no_empty_queue(self, sched):
        # occupy all three queues with one op each (all <= half full)
        for i in range(3):
            op = make_op(i, dest_preg=50 + i)
            sched._apply_steer(op, sched._decide(op, ready=False))
        op = make_op(5, dest_preg=60)
        decision = sched._decide(op, ready=False)
        outcome, target, partition, _ = decision
        assert outcome == "share"
        assert partition == 1
        sched._apply_steer(op, decision)
        assert sched.piqs[target].sharing

    def test_stall_when_nothing_shareable(self):
        core = FakeCore()
        sched = BallerinoScheduler(core, num_piqs=1, piq_size=4,
                                   piq_sharing=True)
        # fill queue 0 beyond half: not shareable, not empty
        root = make_op(0, dest_preg=50)
        sched._apply_steer(root, sched._decide(root, ready=False))
        for i in range(1, 3):
            op = make_op(i, dest_preg=50 + i, src_pregs=(50 + i - 1,))
            sched._apply_steer(op, sched._decide(op, ready=False))
        stranger = make_op(9, dest_preg=70)
        outcome, target, _, _ = sched._decide(stranger, ready=False)
        assert outcome == "stall"
        assert target is None

    def test_sharing_disabled_stalls_instead(self):
        core = FakeCore()
        sched = BallerinoScheduler(core, num_piqs=1, piq_size=8,
                                   piq_sharing=False)
        root = make_op(0, dest_preg=50)
        sched._apply_steer(root, sched._decide(root, ready=False))
        stranger = make_op(1, dest_preg=51)
        assert sched._decide(stranger, ready=False)[0] == "stall"


class TestMDASteering:
    def _with_mdp(self):
        mdp = StoreSetPredictor()
        mdp.train_violation(load_pc=7, store_pc=3)
        core = FakeCore(mdp=mdp)
        return BallerinoScheduler(core, num_piqs=3, piq_size=4), mdp

    def test_load_follows_store_set_hint(self):
        sched, mdp = self._with_mdp()
        store = make_op(0, name="store", dest_preg=None, src_pregs=(1, 2), pc=3)
        mdp.store_dispatched(pc=3, seq=0)
        sched._apply_steer(store, sched._decide(store, ready=False))
        load = make_op(1, name="load", dest_preg=60, src_pregs=(9,), pc=7)
        outcome, target, _, _ = sched._decide(load, ready=False)
        assert outcome == "mda"
        assert target == store.iq_index

    def test_second_load_cannot_reuse_hint(self):
        sched, mdp = self._with_mdp()
        store = make_op(0, name="store", dest_preg=None, src_pregs=(1, 2), pc=3)
        mdp.store_dispatched(pc=3, seq=0)
        sched._apply_steer(store, sched._decide(store, ready=False))
        first = make_op(1, name="load", dest_preg=60, src_pregs=(9,), pc=7)
        sched._apply_steer(first, sched._decide(first, ready=False))
        second = make_op(2, name="load", dest_preg=61, src_pregs=(9,), pc=7)
        assert sched._decide(second, ready=False)[0] != "mda"

    def test_mda_disabled_ignores_hint(self):
        mdp = StoreSetPredictor()
        mdp.train_violation(load_pc=7, store_pc=3)
        core = FakeCore(mdp=mdp)
        sched = BallerinoScheduler(core, num_piqs=3, piq_size=4,
                                   mda_steering=False)
        store = make_op(0, name="store", dest_preg=None, src_pregs=(1, 2), pc=3)
        mdp.store_dispatched(pc=3, seq=0)
        sched._apply_steer(store, sched._decide(store, ready=False))
        load = make_op(1, name="load", dest_preg=60, src_pregs=(9,), pc=7)
        assert sched._decide(load, ready=False)[0] != "mda"


class TestIssueClearsSteering:
    def test_issued_head_clears_scoreboard(self, sched):
        core = sched.core
        producer = make_op(0, dest_preg=50, src_pregs=(1,))
        sched._apply_steer(producer, sched._decide(producer, ready=False))
        assert sched.steer.get(50) is not None
        core.set_ready(1)
        issued = sched.select(cycle=1)
        assert producer in issued
        assert sched.steer.get(50) is None
        # a later consumer must now allocate a fresh queue
        consumer = make_op(1, dest_preg=51, src_pregs=(50,))
        assert sched._decide(consumer, ready=False)[0] == "alloc"
