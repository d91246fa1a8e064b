"""Tests for the differential fuzzer (repro.verify): generator, oracle,
shrinker, campaign driver, and the ``repro fuzz`` CLI command."""

import pytest

from repro.cli import main
from repro.verify.fuzz import run_fuzz
from repro.verify.genprog import (
    GenParams,
    PROFILES,
    assemble,
    generate_spec,
    render_source,
)
from repro.verify.oracle import (
    ReplayMismatch,
    replay_commits,
    run_reference,
    run_spec,
)
from repro.verify.shrink import ddmin
from repro.workloads.executor import execute


class TestGenerator:
    def test_deterministic(self):
        assert generate_spec(42) == generate_spec(42)

    def test_seeds_differ(self):
        assert generate_spec(1) != generate_spec(2)

    def test_profiles_rotate(self):
        # one seed per profile: specs must not collapse to one shape
        specs = [generate_spec(seed) for seed in range(len(PROFILES))]
        assert len({tuple(map(repr, spec)) for spec in specs}) == len(specs)

    @pytest.mark.parametrize("seed", range(12))
    def test_terminates_within_default_cap(self, seed):
        """Termination by construction, within the CLI's default --ops."""
        trace = execute(assemble(generate_spec(seed)), max_ops=10_000)
        assert trace[-1].opcode.name == "halt"

    def test_deep_nesting_terminates(self):
        params = GenParams(size=90, loop_depth=4, max_trip=5,
                           branch_frac=0.25)
        trace = execute(assemble(generate_spec(3, params)), max_ops=50_000)
        assert trace[-1].opcode.name == "halt"

    def test_assemble_repairs_dangling_targets(self):
        spec = generate_spec(5)
        # drop every label: all branch targets dangle
        stripped = [item for item in spec if item[0] != "label"]
        trace = execute(assemble(stripped), max_ops=50_000)
        assert trace[-1].opcode.name == "halt"

    def test_render_source_round_trips(self):
        spec = generate_spec(8)
        namespace = {}
        exec(render_source(spec), namespace)  # noqa: S102 - our own text
        rendered = namespace["program"]
        reference = assemble(spec)
        ref_trace = execute(reference, max_ops=50_000)
        got_trace = execute(rendered, max_ops=50_000)
        assert [op.pc for op in got_trace] == [op.pc for op in ref_trace]


class TestShrinker:
    @staticmethod
    def _contains(*needles):
        return lambda items: all(n in items for n in needles)

    def test_shrinks_to_minimal_core(self):
        items = list(range(40))
        assert sorted(ddmin(items, self._contains(3, 17))) == [3, 17]

    def test_single_item_core(self):
        items = list(range(33))
        assert ddmin(items, self._contains(20)) == [20]

    def test_respects_eval_budget(self):
        evals = []
        items = list(range(64))

        def predicate(candidate):
            evals.append(1)
            return 7 in candidate and 50 in candidate

        ddmin(items, predicate, max_evals=10)
        assert len(evals) <= 10


class TestOracle:
    def test_clean_program_on_sample_arches(self):
        spec = generate_spec(2)
        assert run_spec(spec, arches=("inorder", "ooo", "ballerino")) == []

    def test_replay_rejects_dropped_commit(self):
        spec = generate_spec(2)
        program, trace, _, _ = run_reference(spec)
        with pytest.raises(ReplayMismatch):
            replay_commits(program, trace[:10] + trace[11:])

    def test_replay_accepts_true_stream(self):
        spec = generate_spec(2)
        program, trace, ref_regs, ref_mem = run_reference(spec)
        regs, mem = replay_commits(program, trace)
        assert regs == ref_regs
        # executor memory may carry pre-seeded zeros; compare values
        for addr in set(ref_mem) | set(mem):
            assert ref_mem.get(addr, 0) == mem.get(addr, 0)


class TestCampaign:
    @pytest.mark.parametrize("seed, arches", [
        (0, ("inorder", "ooo", "ballerino")),
        # seed 12 is disjoint from the seeds the unit tests above burn
        # and generates short programs (~3k executed ops per batch), so
        # the per-cycle invariant checker stays affordable; its slice
        # covers the op-table paths of three scheduler families
        (12, ("ooo", "ces", "ballerino")),
    ], ids=["seed0", "seed12"])
    def test_small_campaign_clean(self, seed, arches):
        report = run_fuzz(programs=3, seed=seed, arches=arches)
        assert report.ok, report.full_report()
        assert "all clean" in report.summary()

    def test_failure_reporting_shape(self):
        # force a "failure" through the nonhalting path with a tiny cap
        report = run_fuzz(programs=1, seed=0, arches=("inorder",),
                          max_ops=50, shrink=True)
        assert not report.ok
        finding = report.findings[0]
        assert finding.failure.kind == "nonhalting"
        assert "repro" in finding.report() or "fuzz_seed" in finding.report()


class TestCLI:
    def test_fuzz_command_clean(self, capsys):
        code = main(["fuzz", "--programs", "1", "--seed", "0",
                     "--no-shrink", "--arches", "inorder", "ooo"])
        assert code == 0
        assert "all clean" in capsys.readouterr().out

    def test_fuzz_seed_flag_after_subcommand(self, capsys):
        # the issue's canonical invocation order must parse
        code = main(["fuzz", "--programs", "1", "--seed", "3",
                     "--no-shrink", "--arches", "inorder"])
        assert code == 0

    def test_fuzz_rejects_unknown_arch(self, capsys):
        code = main(["fuzz", "--programs", "1", "--arches", "nope"])
        assert code == 2

    def test_fuzz_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "fuzz.txt"
        code = main(["fuzz", "--programs", "1", "--seed", "0",
                     "--no-shrink", "--arches", "inorder",
                     "--out", str(out)])
        assert code == 0
        assert "all clean" in out.read_text()
