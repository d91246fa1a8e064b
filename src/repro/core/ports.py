"""Issue ports and functional units.

The paper's baseline (Table I) is an 8-wide machine whose IQ issues through
eight ports, each with dedicated FUs:

* 4 int ALUs (P0, P1, P5, P6), 1 int DIV (P0), 1 int MUL (P1)
* 2 FP ADDs (P0, P1), 1 FP DIV (P0), 2 FP MULs (P0, P1)
* 4 AGUs (P2, P3, P4, P7), 2 branch units (P0, P6)

Each port issues at most one micro-op per cycle; a port is assigned to every
micro-op at dispatch using opcode class + load balancing (fewest in-flight
ops), exactly as §II-A describes.  Unpipelined units (divides) additionally
block their FU for the op's latency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..isa.opcodes import OpClass

#: port -> op classes with a functional unit on that port (8-wide, Table I)
PORT_MAP_8WIDE: Dict[int, Tuple[OpClass, ...]] = {
    0: (OpClass.INT_ALU, OpClass.INT_DIV, OpClass.FP_ADD, OpClass.FP_MUL,
        OpClass.FP_DIV, OpClass.BRANCH, OpClass.NOP),
    1: (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FP_ADD, OpClass.FP_MUL,
        OpClass.NOP),
    2: (OpClass.LOAD, OpClass.STORE),
    3: (OpClass.LOAD, OpClass.STORE),
    4: (OpClass.LOAD, OpClass.STORE),
    5: (OpClass.INT_ALU, OpClass.NOP),
    6: (OpClass.INT_ALU, OpClass.BRANCH, OpClass.NOP),
    7: (OpClass.LOAD, OpClass.STORE),
}

PORT_MAP_4WIDE: Dict[int, Tuple[OpClass, ...]] = {
    0: (OpClass.INT_ALU, OpClass.INT_DIV, OpClass.FP_ADD, OpClass.FP_MUL,
        OpClass.FP_DIV, OpClass.BRANCH, OpClass.NOP),
    1: (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FP_ADD, OpClass.FP_MUL,
        OpClass.NOP),
    2: (OpClass.LOAD, OpClass.STORE),
    3: (OpClass.LOAD, OpClass.STORE),
}

PORT_MAP_2WIDE: Dict[int, Tuple[OpClass, ...]] = {
    0: (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.INT_DIV, OpClass.FP_ADD,
        OpClass.FP_MUL, OpClass.FP_DIV, OpClass.BRANCH, OpClass.NOP),
    1: (OpClass.LOAD, OpClass.STORE, OpClass.INT_ALU, OpClass.NOP),
}

PORT_MAP_10WIDE: Dict[int, Tuple[OpClass, ...]] = dict(PORT_MAP_8WIDE)
PORT_MAP_10WIDE.update({
    8: (OpClass.INT_ALU, OpClass.FP_ADD, OpClass.NOP),
    9: (OpClass.LOAD, OpClass.STORE),
})

PORT_MAPS_BY_WIDTH: Dict[int, Dict[int, Tuple[OpClass, ...]]] = {
    2: PORT_MAP_2WIDE,
    4: PORT_MAP_4WIDE,
    8: PORT_MAP_8WIDE,
    10: PORT_MAP_10WIDE,
}


class PortFile:
    """Issue-port state: dispatch-time assignment + per-cycle arbitration."""

    def __init__(self, port_map: Dict[int, Tuple[OpClass, ...]]):
        self.port_map = port_map
        self.num_ports = len(port_map)
        self._by_class: Dict[OpClass, List[int]] = {}
        for port, classes in port_map.items():
            for klass in classes:
                self._by_class.setdefault(klass, []).append(port)
        for ports in self._by_class.values():
            ports.sort()
        #: dispatched-but-not-issued ops per port (load-balancing metric)
        self.inflight: List[int] = [0] * self.num_ports
        # per-cycle arbitration state
        self._granted_cycle = -1
        self._granted: List[bool] = [False] * self.num_ports
        # unpipelined FU busy-until, keyed by (port, op_class)
        self._fu_busy: Dict[Tuple[int, OpClass], int] = {}
        #: µops issued per port, counted by the pipeline at issue (an
        #: op that executes without a grant, e.g. in FXA's IXU, counts
        #: on the port it was assigned)
        self.issues: List[int] = [0] * self.num_ports

    # ------------------------------------------------------------------
    def ports_for(self, op_class: OpClass) -> Sequence[int]:
        try:
            return self._by_class[op_class]
        except KeyError:
            raise ValueError(f"no port hosts op class {op_class}") from None

    def assign(self, op_class: OpClass) -> int:
        """Dispatch-time port choice: least in-flight ops (paper §II-A)."""
        ports = self.ports_for(op_class)
        port = min(ports, key=lambda p: self.inflight[p])
        self.inflight[port] += 1
        return port

    def unassign(self, port: int) -> None:
        """Undo an assignment (op flushed before issue)."""
        self.inflight[port] -= 1

    # ------------------------------------------------------------------
    def _refresh(self, cycle: int) -> None:
        if cycle != self._granted_cycle:
            self._granted_cycle = cycle
            self._granted = [False] * self.num_ports

    def can_issue(self, port: int, op_class: OpClass, cycle: int) -> bool:
        """Would an issue request on ``port`` be granted this cycle?"""
        self._refresh(cycle)
        if self._granted[port]:
            return False
        busy_until = self._fu_busy.get((port, op_class), 0)
        return busy_until <= cycle

    def busy_until(self) -> List[int]:
        """Every unpipelined FU's busy-until cycle (some may be past)."""
        return list(self._fu_busy.values())

    def grant(self, port: int, op_class: OpClass, cycle: int,
              latency: int, pipelined: bool) -> None:
        """Consume the port for this cycle (and the FU if unpipelined)."""
        self._refresh(cycle)
        if self._granted[port]:
            raise RuntimeError(f"port {port} double-granted in cycle {cycle}")
        self._granted[port] = True
        self.inflight[port] -= 1
        if not pipelined:
            self._fu_busy[(port, op_class)] = cycle + latency
