"""The per-cycle reference pipeline for the timing differential.

:class:`ReferencePipeline` is a :class:`~repro.core.pipeline.Pipeline`
whose quiet-stretch horizon is always the next cycle, so ``step()``
never jumps: it is the plain every-cycle loop that idle-cycle skipping
must reproduce field by field.  Only tests and the fuzz oracle's
``timing`` check (:func:`repro.verify.oracle.check_arch`) use it.
"""

from __future__ import annotations

from typing import Optional

from ..core.pipeline import Pipeline


class ReferencePipeline(Pipeline):
    """A pipeline that simulates every cycle (see the module docstring)."""

    def _horizon(self, since: int) -> int:
        return self.cycle


def first_difference(reference, fast, path: str = "") -> Optional[str]:
    """The first field where two JSON-shaped values differ, or None.

    Dicts are compared key by key in sorted order and lists item by
    item, so the message names the exact field, e.g.
    ``stats.energy_events.select_input: reference 5120, fast 5136``.
    """
    if isinstance(reference, dict) and isinstance(fast, dict):
        for key in sorted(set(reference) | set(fast), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in reference or key not in fast:
                side = "fast" if key not in fast else "reference"
                return f"{where}: missing from the {side} result"
            found = first_difference(reference[key], fast[key], where)
            if found is not None:
                return found
        return None
    if isinstance(reference, list) and isinstance(fast, list):
        if len(reference) != len(fast):
            return (f"{path}: reference has {len(reference)} entries, "
                    f"fast has {len(fast)}")
        for index, (ref_item, fast_item) in enumerate(zip(reference, fast)):
            found = first_difference(ref_item, fast_item, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if reference != fast or type(reference) is not type(fast):
        return f"{path}: reference {reference!r}, fast {fast!r}"
    return None
