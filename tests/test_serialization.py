"""Tests for trace save/load."""

import json
from dataclasses import replace

import pytest

from repro.workloads import (
    Trace,
    TraceFormatError,
    build_trace,
    load_trace,
    save_trace,
)


@pytest.fixture()
def trace():
    return build_trace("histogram", target_ops=800)


class TestRoundTrip:
    def test_identical_after_round_trip(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a.seq == b.seq
            assert a.pc == b.pc
            assert a.opcode is b.opcode  # interned via the opcode table
            assert a.dest == b.dest
            assert a.srcs == b.srcs
            assert a.mem_addr == b.mem_addr
            assert a.taken == b.taken
            assert a.target_pc == b.target_pc
            assert a.fallthrough_pc == b.fallthrough_pc

    def test_simulation_identical_on_loaded_trace(self, trace, tmp_path):
        from repro import config_for, simulate

        path = tmp_path / "t.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        original = simulate(trace, config_for("ballerino"))
        replayed = simulate(loaded, config_for("ballerino"))
        assert original.cycles == replayed.cycles
        assert original.stats.energy_events == replayed.stats.energy_events

    def test_accepts_str_path(self, trace, tmp_path):
        path = str(tmp_path / "t.trace")
        save_trace(trace, path)
        assert len(load_trace(path)) == len(trace)


class TestErrorHandling:
    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(TraceFormatError, match="not a repro-trace"):
            load_trace(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json at all\n")
        with pytest.raises(TraceFormatError, match="unreadable"):
            load_trace(path)

    def test_rejects_wrong_version(self, tmp_path, trace):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 999
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(path)

    def test_rejects_truncated_file(self, tmp_path, trace):
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)

    def test_rejects_seq_that_is_not_the_position(self, tmp_path, trace):
        # the core indexes a trace by seq: a shifted file used to load
        # and then wedge the front end until the deadlock watchdog fired
        path = tmp_path / "t.trace"
        save_trace(_shifted(trace, 1000), path)
        with pytest.raises(TraceFormatError, match="op 0 has seq 1000"):
            load_trace(path)

    def test_decoding_rejects_seq_that_is_not_the_position(self, trace):
        with pytest.raises(ValueError, match="op 0 has seq 1000"):
            _shifted(trace, 1000).columns


def _shifted(trace, offset):
    return Trace(trace.name,
                 tuple(replace(op, seq=op.seq + offset) for op in trace))
