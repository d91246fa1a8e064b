"""End-to-end pipeline behaviour on small hand-written programs."""

import pytest

from repro.core import SimulationDeadlock, config_for, simulate
from repro.core.pipeline import Pipeline
from repro.isa import F, R
from repro.workloads import ProgramBuilder, execute


def trace_of(build_fn, name="t", memory=None):
    b = ProgramBuilder(name)
    build_fn(b)
    b.halt()
    return execute(b.build(), memory=memory)


def straight_line_alu(n=40):
    """A loop of eight independent ALU ops per iteration (warm I-cache)."""
    iters = max(1, n // 10)

    def body(b):
        b.li(R[10], iters)
        b.label("top")
        for lane in range(8):
            b.addi(R[1 + lane], R[0], lane)  # independent ops
        b.addi(R[10], R[10], -1)
        b.bne(R[10], R[0], "top")

    return trace_of(body, "independent")


def serial_chain(n=40):
    """A loop whose body is one serial 8-op dependence chain."""
    iters = max(1, n // 10)

    def body(b):
        b.li(R[10], iters)
        b.label("top")
        for _ in range(8):
            b.addi(R[1], R[1], 1)  # fully serial
        b.addi(R[10], R[10], -1)
        b.bne(R[10], R[0], "top")

    return trace_of(body, "serial")


class TestBasicExecution:
    @pytest.mark.parametrize(
        "arch", ["inorder", "ooo", "ces", "casino", "fxa", "ballerino"]
    )
    def test_commits_whole_trace(self, arch):
        trace = straight_line_alu()
        result = simulate(trace, config_for(arch))
        assert result.stats.committed == len(trace)

    def test_independent_ops_run_parallel(self):
        result = simulate(straight_line_alu(3000), config_for("ooo"))
        # a 10-op loop body ending in a taken branch fetches in 3 groups,
        # so steady state approaches ~3.3 IPC; require most of it
        assert result.ipc > 2.0

    def test_serial_chain_slower_than_parallel(self):
        serial = simulate(serial_chain(600), config_for("ooo"))
        parallel = simulate(straight_line_alu(600), config_for("ooo"))
        # the 8-op serial body bounds each iteration to >= 8 cycles
        assert serial.cycles > parallel.cycles
        assert serial.ipc < 1.5

    def test_issue_count_at_least_commits(self):
        trace = straight_line_alu()
        result = simulate(trace, config_for("ooo"))
        assert result.stats.issued >= result.stats.committed


class TestMemoryBehaviour:
    def test_load_latency_visible(self):
        def body(b):
            b.li(R[1], 0x100000)
            b.load(R[2], R[1], 0)  # cold miss
            b.addi(R[3], R[2], 1)  # dependent

        result = simulate(trace_of(body), config_for("ooo"))
        # a cold DRAM miss costs >100 cycles on a ~6-op program
        assert result.cycles > 100

    def test_store_to_load_forwarding_fast_path(self):
        def body(b):
            b.li(R[1], 0x100000)
            b.li(R[2], 7)
            b.li(R[10], 50)
            b.label("top")
            b.store(R[2], R[1], 0)
            b.load(R[3], R[1], 0)  # forwards from the store queue
            b.addi(R[2], R[3], 1)
            b.addi(R[10], R[10], -1)
            b.bne(R[10], R[0], "top")

        result = simulate(trace_of(body), config_for("ooo"))
        # forwarding (plus MDP after at most one violation) keeps the loop
        # far faster than 50 round trips to DRAM would be
        assert result.stats.order_violations <= 3
        assert result.cycles < 0.2 * 50 * 250

    def test_memory_order_violation_detected_and_recovered(self):
        # a store whose address depends on a slow load, followed by a
        # load to the SAME address: OoO issues the young load early ->
        # violation -> squash -> refetch, still architecturally correct
        def body(b):
            b.li(R[1], 0x100000)  # pointer cell (cold: slow load)
            b.li(R[4], 0x200000)
            for _ in range(6):
                b.load(R[2], R[1], 0)    # slow address producer
                b.add(R[5], R[2], R[4])  # store address = f(load)
                b.store(R[1], R[5], 0)
                b.load(R[6], R[4], 0)    # may alias the store (r2 == 0)
                b.addi(R[4], R[4], 0)

        trace = trace_of(body)
        cfg = config_for("ooo")
        result = simulate(trace, cfg)
        assert result.stats.committed == len(trace)
        assert result.stats.order_violations >= 1
        assert result.stats.flushes >= 1

    def test_mdp_reduces_violations(self):
        from repro.workloads import build_trace

        trace = build_trace("histogram", target_ops=6000)
        with_mdp = simulate(trace, config_for("ooo"))
        import dataclasses

        no_mdp_cfg = dataclasses.replace(config_for("ooo"), mdp_enabled=False,
                                         name="ooo-nomdp")
        without = simulate(trace, no_mdp_cfg)
        assert with_mdp.stats.order_violations < without.stats.order_violations


class TestBranchBehaviour:
    def test_mispredict_costs_cycles(self):
        import random

        rng = random.Random(5)
        values = [rng.randrange(2) for i in range(200)]
        memory = {0x100000 + i * 8: v for i, v in enumerate(values)}

        def body(b):
            b.li(R[1], 0x100000)
            b.li(R[2], 0)
            b.li(R[3], 200)
            b.label("top")
            b.load(R[4], R[1], 0)
            b.beq(R[4], R[0], "skip")
            b.addi(R[5], R[5], 1)
            b.label("skip")
            b.addi(R[1], R[1], 8)
            b.addi(R[2], R[2], 1)
            b.blt(R[2], R[3], "top")

        trace = trace_of(body, memory=memory)
        result = simulate(trace, config_for("ooo"))
        assert result.stats.branch_mispredicts > 10  # random data

        predictable = {0x100000 + i * 8: 1 for i in range(200)}
        trace2 = trace_of(body, memory=predictable)
        result2 = simulate(trace2, config_for("ooo"))
        assert result2.stats.branch_mispredicts < result.stats.branch_mispredicts
        # same committed work, fewer mispredicts -> fewer cycles
        assert result2.cycles < result.cycles

    def test_loop_branch_predicted_after_warmup(self):
        def body(b):
            b.li(R[1], 100)
            b.label("top")
            b.addi(R[1], R[1], -1)
            b.bne(R[1], R[0], "top")

        result = simulate(trace_of(body), config_for("ooo"))
        assert result.stats.branch_mispredicts <= 5


class TestRobustness:
    def test_rob_bounded(self):
        trace = straight_line_alu(200)
        cfg = config_for("ooo")
        pipeline = Pipeline(trace, cfg)
        pipeline.run()
        assert pipeline.rob.max_occupancy <= cfg.rob_size

    def test_max_cycles_guard(self):
        trace = straight_line_alu(200)
        with pytest.raises(SimulationDeadlock):
            simulate(trace, config_for("ooo"), max_cycles=3)

    def test_deterministic_cycles(self):
        trace = straight_line_alu(100)
        a = simulate(trace, config_for("ballerino"))
        b = simulate(trace, config_for("ballerino"))
        assert a.cycles == b.cycles
        assert a.stats.energy_events == b.stats.energy_events

    def test_breakdown_counts_match_commits(self):
        trace = straight_line_alu(100)
        result = simulate(trace, config_for("ooo"))
        assert sum(result.stats.breakdown.counts.values()) == len(trace)

    def test_narrow_widths_run(self):
        trace = straight_line_alu(80)
        for width in (2, 4):
            result = simulate(trace, config_for("ooo", width=width))
            assert result.stats.committed == len(trace)

    def test_wider_is_not_slower(self):
        trace = straight_line_alu(200)
        two = simulate(trace, config_for("ooo", width=2))
        eight = simulate(trace, config_for("ooo", width=8))
        assert eight.cycles <= two.cycles


class TestRelease:
    """A finished pipeline is freed by reference counting alone."""

    @pytest.mark.parametrize("arch", ["inorder", "ooo", "ces", "casino",
                                      "fxa", "spq", "dnb", "ballerino"])
    def test_finished_pipeline_dies_without_the_cyclic_collector(self, arch):
        import gc
        import weakref

        from repro.telemetry import core_metrics

        trace = straight_line_alu(60)
        gc.disable()
        try:
            pipe = Pipeline(trace, config_for(arch))
            result = pipe.run()
            # post-run readers still work on the detached scheduler
            assert core_metrics(pipe).snapshot()
            assert pipe.scheduler.extra_stats() == result.stats.scheduler
            ref = weakref.ref(pipe)
            del pipe
            assert ref() is None
        finally:
            gc.enable()

    def test_sampled_window_pipelines_die_without_the_cyclic_collector(
            self, monkeypatch):
        import gc
        import weakref

        from repro.core.sampling import with_sampling

        built = []
        init = Pipeline.__init__

        def tracking_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(Pipeline, "__init__", tracking_init)
        trace = straight_line_alu(400)
        config = with_sampling(config_for("ooo"), period=150, window=40,
                               ff_warmup_ops=20)
        gc.disable()
        try:
            result = simulate(trace, config)
            assert result.sampling["windows"] >= 2
            assert len(built) >= 2
            assert [ref() for ref in built] == [None] * len(built)
        finally:
            gc.enable()
