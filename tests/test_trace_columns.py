"""The decoded trace columns: each equals the op fact it stands for.

The core's hot stages read :class:`~repro.workloads.trace.TraceColumns`
instead of ``DynOp``/``Opcode`` properties, so every column is pinned
here against the property the stages used to call, over every op of
every kernel, a few generated programs and hand-written edge cases.
"""

import sys

import pytest

from repro.core.config import config_for
from repro.core.pipeline import simulate
from repro.core.sampling import with_sampling
from repro.isa import DynOp, F, R, ZERO, is_fp, opcode
from repro.isa.opcodes import OP_CLASSES
from repro.verify.genprog import assemble, generate_spec
from repro.workloads import KERNELS, Trace, build_trace
from repro.workloads.executor import execute
from repro.workloads.trace import (STOP_BRANCH, STOP_HALT, STOP_JMP,
                                   STOP_NONE)


def _edge_cases():
    """Ops the kernels never produce: an r0 destination and FP moves."""
    ops = [
        ("add", ZERO, (R[1], R[2])),
        ("fmov", F[3], (F[4],)),
        ("jmp", None, ()),
        ("div", R[5], (R[6], R[7])),
        ("halt", None, ()),
    ]
    return Trace("edges", tuple(
        DynOp(seq=seq, pc=seq, opcode=opcode(name), dest=dest, srcs=srcs)
        for seq, (name, dest, srcs) in enumerate(ops)))


@pytest.fixture(scope="module")
def corpus():
    traces = [build_trace(name, target_ops=1500, seed=7) for name in KERNELS]
    traces += [execute(assemble(generate_spec(seed)), max_ops=10_000)
               for seed in range(4)]
    return traces + [_edge_cases()]


def _stop(op):
    if op.is_branch:
        return STOP_JMP if op.opcode.name == "jmp" else STOP_BRANCH
    return STOP_HALT if op.opcode.name == "halt" else STOP_NONE


def test_every_column_equals_the_property_it_replaces(corpus):
    for trace in corpus:
        cols = trace.columns
        ops = trace.ops
        name = trace.name
        assert [OP_CLASSES[k] for k in cols.op_class] == [
            op.opcode.op_class for op in ops], name
        assert list(cols.latency) == [op.opcode.latency for op in ops], name
        assert list(cols.pipelined) == [
            op.opcode.pipelined for op in ops], name
        assert list(cols.is_load) == [op.is_load for op in ops], name
        assert list(cols.is_store) == [op.is_store for op in ops], name
        assert list(cols.is_branch) == [op.is_branch for op in ops], name
        assert list(cols.stop) == [_stop(op) for op in ops], name
        renamed = [None if op.dest in (None, ZERO) else op.dest for op in ops]
        assert [None if d < 0 else d for d in cols.dest] == renamed, name
        assert list(cols.dest_fp) == [d is not None and is_fp(d)
                                      for d in renamed], name
        assert [None if d < 0 else d for d in cols.raw_dest] == [
            op.dest for op in ops], name
        assert all(a is op.srcs for a, op in zip(cols.srcs, ops)), name


def test_the_corpus_reaches_every_decoded_case(corpus):
    stops = set()
    r0 = fp = unpipelined = 0
    for trace in corpus:
        cols = trace.columns
        stops.update(cols.stop)
        r0 += sum(1 for op in trace if op.dest == ZERO)
        fp += sum(cols.dest_fp)
        unpipelined += cols.pipelined.count(0)
    assert stops == {STOP_NONE, STOP_BRANCH, STOP_JMP, STOP_HALT}
    assert r0 and fp and unpipelined


def test_column_storage_is_at_most_32_bytes_per_op():
    trace = build_trace("matmul_tile", target_ops=4000, seed=7)
    cols = trace.columns
    size = sum(sys.getsizeof(getattr(cols, name)) for name in cols.__slots__)
    assert size / len(trace) <= 32


def test_decoded_once_and_kept_on_the_trace():
    trace = build_trace("histogram", target_ops=600, seed=7)
    assert "columns" not in trace.__dict__
    cols = trace.columns
    assert trace.columns is cols
    simulate(trace, config_for("ooo"))
    assert trace.columns is cols
    # the cache is not a field: equality and hashing ignore it
    fresh = build_trace("histogram", target_ops=600, seed=7)
    assert trace == fresh and hash(trace) == hash(fresh)


class TestSampledRunsDecodeOnlyWhatTheySimulate:
    def test_gapped_run_leaves_the_full_trace_undecoded(self):
        trace = build_trace("stream_triad", target_ops=12_000, seed=7)
        assert len(trace) >= 12_000
        config = with_sampling(config_for("ooo"), period=6_000, window=500)
        result = simulate(trace, config)
        assert result.sampled and result.sampling["windows"] >= 2
        assert "columns" not in trace.__dict__

    def test_exact_path_decodes_the_full_trace(self):
        trace = build_trace("stream_triad", target_ops=2_000, seed=7)
        config = with_sampling(config_for("ooo"), period=1_000,
                               window=len(trace))
        simulate(trace, config)
        assert "columns" in trace.__dict__
