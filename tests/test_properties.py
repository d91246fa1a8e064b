"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReadyFile, config_for, simulate
from repro.core.ifop import InFlightOp
from repro.isa import R, opcode
from repro.isa.instruction import DynOp
from repro.memory import Cache, MSHRFile
from repro.sched.piq import SharedPIQ
from repro.workloads import ProgramBuilder, execute


def ifop(seq):
    dyn = DynOp(seq=seq, pc=0, opcode=opcode("add"), dest=R[1], srcs=(R[2],))
    return InFlightOp(seq=seq, op=dyn, decode_cycle=0)


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                    max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = Cache("t", size_bytes=2048, assoc=2, latency=1)
        capacity = cache.num_sets * cache.assoc
        for line in lines:
            cache.fill(line, 0)
            assert cache.resident_lines() <= capacity

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_hit_after_fill_until_evicted(self, lines):
        """A just-filled line is always immediately present."""
        cache = Cache("t", size_bytes=4096, assoc=4, latency=1)
        for line in lines:
            cache.fill(line, 0)
            assert cache.probe(line) is not None

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                    max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_stats_consistency(self, lines):
        cache = Cache("t", size_bytes=2048, assoc=2, latency=1)
        for line in lines:
            if cache.lookup(line) is None:
                cache.fill(line, 0)
        assert cache.stats.hits + cache.stats.misses == len(lines)


class TestMSHRProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),  # line
                st.integers(min_value=1, max_value=100),  # extra latency
            ),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_at_most_capacity_misses_in_service(self, accesses):
        """When the file is full, a new miss must start no earlier than the
        earliest outstanding completion — i.e. at most ``capacity`` misses
        are ever *in service* simultaneously."""
        mshr = MSHRFile(4)
        cycle = 0
        service_intervals = []  # (start, completion)
        for line, latency in accesses:
            cycle += 1
            if mshr.lookup(line, cycle) is None:
                start = mshr.earliest_free(cycle)
                completion = start + latency
                mshr.allocate(line, completion)
                service_intervals.append((start, completion))
        # sweep: max instantaneous concurrency over [start, completion)
        events = []
        for start, completion in service_intervals:
            events.append((start, 1))
            events.append((completion, -1))
        events.sort()  # completions (-1) sort before starts (+1) at ties
        concurrent = peak = 0
        for _, delta in events:
            concurrent += delta
            peak = max(peak, concurrent)
        assert peak <= 4


class TestReadyFileProperties:
    @given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 100)),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_ready_iff_marked(self, events):
        ready = ReadyFile(32)
        expected = {}
        for preg, cycle in events:
            if cycle % 3 == 0:
                ready.mark_pending(preg)
                expected[preg] = None
            else:
                ready.mark_ready(preg, cycle)
                expected[preg] = cycle
        horizon = 1000
        for preg, cyc in expected.items():
            assert ready.is_ready(preg, horizon) == (cyc is not None)


class TestSharedPIQProperties:
    @given(st.lists(st.sampled_from(["push0", "push1", "pop", "share"]),
                    min_size=1, max_size=120),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_operations_keep_invariants(self, ops, ideal):
        piq = SharedPIQ(8, ideal=ideal)
        seq = 0
        for action in ops:
            if action == "share" and piq.shareable():
                piq.activate_sharing()
            elif action in ("push0", "push1"):
                partition = 0 if action == "push0" else 1
                if piq.has_space(partition):
                    piq.append(ifop(seq), partition)
                    seq += 1
            elif action == "pop" and piq.count:
                heads = piq.active_heads()
                if heads:
                    partition, _ = heads[0]
                    piq.pop_head(partition)
                    if not piq.partitions[partition]:
                        piq.collapse()  # as select does after a drain
            # invariants
            assert piq.occupancy() <= piq.size
            assert 1 <= len(piq.partitions) <= 2
            for queue in piq.partitions:
                seqs = [op.seq for op in queue]
                assert seqs == sorted(seqs)  # FIFO order per partition
            if piq.sharing:
                for queue in piq.partitions:
                    assert len(queue) <= piq.size // 2 or ideal

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=30),
           st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_flush_removes_exactly_younger(self, seqs, cut):
        piq = SharedPIQ(64)
        for s in sorted(set(seqs)):
            piq.append(ifop(s), 0)
        piq.flush_from(cut)
        remaining = [op.seq for op in piq.partitions[0]]
        assert remaining == [s for s in sorted(set(seqs)) if s < cut]


class TestEndToEndProperties:
    @staticmethod
    def random_program(rng: random.Random, length: int):
        """A random but always-halting straight-line-plus-loop program."""
        b = ProgramBuilder("rand")
        b.li(R[10], rng.randrange(3, 9))
        b.li(R[11], 0x100000)
        b.label("top")
        for _ in range(length):
            choice = rng.randrange(5)
            rd = R[1 + rng.randrange(8)]
            ra = R[1 + rng.randrange(8)]
            rb = R[1 + rng.randrange(8)]
            if choice == 0:
                b.add(rd, ra, rb)
            elif choice == 1:
                b.mul(rd, ra, rb)
            elif choice == 2:
                b.load(rd, R[11], 8 * rng.randrange(8))
            elif choice == 3:
                b.store(ra, R[11], 8 * rng.randrange(8))
            else:
                b.xor(rd, ra, rb)
        b.addi(R[10], R[10], -1)
        b.bne(R[10], R[0], "top")
        b.halt()
        return b.build()

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["inorder", "ooo", "ces", "casino", "fxa",
                            "ballerino"]))
    @settings(max_examples=20, deadline=None)
    def test_any_program_commits_fully_on_any_scheduler(self, seed, arch):
        rng = random.Random(seed)
        program = self.random_program(rng, length=rng.randrange(4, 16))
        trace = execute(program)
        result = simulate(trace, config_for(arch))
        assert result.stats.committed == len(trace)
        assert result.stats.issued >= result.stats.committed
        assert sum(result.stats.breakdown.counts.values()) == len(trace)
