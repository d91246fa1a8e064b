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

from ..isa.opcodes import OP_CLASSES, OpClass

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

_NUM_CLASSES = len(OP_CLASSES)


class PortFile:
    """Issue-port state: dispatch-time assignment + per-cycle arbitration.

    Keyed by port number and op-class id (``OpClass.id``, the int the
    decoded trace carries), so the per-µop calls hash no enum member.
    """

    def __init__(self, port_map: Dict[int, Tuple[OpClass, ...]]):
        self.port_map = port_map
        self.num_ports = len(port_map)
        by_class: List[List[int]] = [[] for _ in OP_CLASSES]
        for port, classes in port_map.items():
            for klass in classes:
                by_class[klass.id].append(port)
        #: class id -> the ports hosting that class, ascending
        self._by_class = [tuple(sorted(ports)) for ports in by_class]
        #: dispatched-but-not-issued ops per port (load-balancing metric)
        self.inflight: List[int] = [0] * self.num_ports
        #: per port, the last cycle it granted an issue
        self._granted: List[int] = [-1] * self.num_ports
        #: unpipelined FU busy-until, keyed by port * _NUM_CLASSES +
        #: class id
        self._fu_busy: Dict[int, int] = {}
        #: µops issued per port, counted by the pipeline at issue (an
        #: op that executes without a grant, e.g. in FXA's IXU, counts
        #: on the port it was assigned)
        self.issues: List[int] = [0] * self.num_ports

    # ------------------------------------------------------------------
    def ports_for(self, class_id: int) -> Sequence[int]:
        """The ports hosting op class ``class_id``, ascending."""
        return self._by_class[class_id]

    def assign(self, class_id: int) -> int:
        """Dispatch-time port choice: least in-flight ops (paper §II-A).

        Ties go to the lowest-numbered port.
        """
        try:
            port = min(self._by_class[class_id],
                       key=self.inflight.__getitem__)
        except ValueError:
            raise ValueError(
                f"no port hosts op class {OP_CLASSES[class_id]}") from None
        self.inflight[port] += 1
        return port

    def unassign(self, port: int) -> None:
        """Undo an assignment (op flushed before issue)."""
        self.inflight[port] -= 1

    # ------------------------------------------------------------------
    def grant(self, port: int, class_id: int, cycle: int, latency: int,
              pipelined: int) -> bool:
        """Request ``port`` for an op of class ``class_id`` this cycle.

        Granted (True) when the port has not issued yet this cycle and
        the class's FU on it is not busy; a grant consumes the port for
        the cycle, and an unpipelined op also holds its FU for
        ``latency`` cycles.  Refused requests change nothing.
        """
        if self._granted[port] == cycle:
            return False  # at most one grant per port per cycle
        fu_busy = self._fu_busy
        if fu_busy and fu_busy.get(port * _NUM_CLASSES + class_id, 0) > cycle:
            return False
        self._granted[port] = cycle
        self.inflight[port] -= 1
        if not pipelined:
            fu_busy[port * _NUM_CLASSES + class_id] = cycle + latency
        return True

    def busy_until(self) -> List[int]:
        """Every unpipelined FU's busy-until cycle (some may be past)."""
        return list(self._fu_busy.values())
