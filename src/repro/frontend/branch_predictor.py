"""Branch prediction: TAGE direction predictor + set-associative BTB.

The paper's front end (Table I) uses a TAGE predictor with a 17-bit global
history register, one bimodal base table and four tagged tables (32 KiB
overall) plus a 512-set 4-way BTB.  This module implements that design point
faithfully at the algorithmic level: geometric history lengths, partial tags,
usefulness counters, and allocation on misprediction.

Only direction prediction matters for timing here — all branch targets in the
micro-op ISA are static, so the BTB models first-encounter target misses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple


class BranchPredictor:
    """Interface for direction predictors."""

    def predict(self, pc: int) -> bool:
        """Predict taken (True) / not taken (False) for the branch at ``pc``."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome."""
        raise NotImplementedError


class AlwaysTakenPredictor(BranchPredictor):
    """Trivial predictor, useful as a baseline in tests."""

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass


class BimodalPredictor(BranchPredictor):
    """Classic 2-bit saturating-counter table."""

    def __init__(self, entries: int = 4096):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._counters = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        return self._counters[pc & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = pc & self._mask
        c = self._counters[i]
        self._counters[i] = min(3, c + 1) if taken else max(0, c - 1)


class TagePredictor(BranchPredictor):
    """TAGE with a bimodal base and ``num_tables`` tagged components.

    Args:
        num_tables: Number of tagged tables (paper: 4).
        history_bits: Global history register length (paper: 17).
        table_entries: Entries per tagged table.
        tag_bits: Partial tag width.
        seed: Seed for the (rare) randomised allocation choice.
    """

    def __init__(
        self,
        num_tables: int = 4,
        history_bits: int = 17,
        table_entries: int = 1024,
        tag_bits: int = 9,
        seed: int = 1,
    ):
        self.history_bits = history_bits
        self._ghr = 0
        self._base = BimodalPredictor(4096)
        self._rng = random.Random(seed)
        self._tag_mask = (1 << tag_bits) - 1
        self._entry_mask = table_entries - 1
        # geometric history lengths capped at the GHR width
        self.history_lengths: List[int] = []
        length = 4
        for _ in range(num_tables):
            self.history_lengths.append(min(length, history_bits))
            length *= 2
        self.history_lengths[-1] = history_bits
        # each tagged table as three parallel int columns, so building a
        # predictor allocates no per-entry objects
        self._tags: List[List[int]] = [[0] * table_entries
                                       for _ in range(num_tables)]
        #: signed 3-bit: -4..3, >=0 means taken
        self._counters: List[List[int]] = [[0] * table_entries
                                           for _ in range(num_tables)]
        self._useful: List[List[int]] = [[0] * table_entries
                                         for _ in range(num_tables)]
        # transient state between predict() and update()
        self._last: Optional[Tuple[int, Optional[int], Optional[int], bool, bool]] = None

    # ------------------------------------------------------------------
    def _fold(self, length: int) -> int:
        """Fold the newest ``length`` history bits into an index-sized hash."""
        history = self._ghr & ((1 << length) - 1)
        folded = 0
        while history:
            folded ^= history & self._entry_mask
            history >>= self._entry_mask.bit_length()
        return folded

    def _index(self, pc: int, table: int) -> int:
        length = self.history_lengths[table]
        return (pc ^ (pc >> 4) ^ self._fold(length) ^ (table << 3)) & self._entry_mask

    def _tag(self, pc: int, table: int) -> int:
        length = self.history_lengths[table]
        return (pc ^ (pc >> 7) ^ (self._fold(length) << 1)) & self._tag_mask

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> bool:
        provider = None
        provider_index = None
        for table in reversed(range(len(self._tags))):
            index = self._index(pc, table)
            if self._tags[table][index] == self._tag(pc, table):
                provider = table
                provider_index = index
                break
        base_pred = self._base.predict(pc)
        if provider is None:
            prediction = base_pred
        else:
            prediction = self._counters[provider][provider_index] >= 0
        self._last = (pc, provider, provider_index, prediction, base_pred)
        return prediction

    def update(self, pc: int, taken: bool) -> None:
        if self._last is None or self._last[0] != pc:
            # prediction state lost (e.g. after a flush): fall back to a
            # fresh lookup so training still happens
            self.predict(pc)
        _, provider, provider_index, prediction, base_pred = self._last
        self._last = None

        mispredicted = prediction != taken
        if provider is not None:
            counters = self._counters[provider]
            counters[provider_index] = _sat_update(
                counters[provider_index], taken, lo=-4, hi=3)
            if prediction != base_pred:
                useful = self._useful[provider]
                useful[provider_index] = _sat_update(
                    useful[provider_index], prediction == taken, lo=0, hi=3)
        else:
            self._base.update(pc, taken)

        if mispredicted:
            self._allocate(pc, taken, provider)

        self._ghr = ((self._ghr << 1) | int(taken)) & ((1 << self.history_bits) - 1)

    def _allocate(self, pc: int, taken: bool, provider: Optional[int]) -> None:
        """Allocate an entry in a longer-history table on misprediction."""
        start = 0 if provider is None else provider + 1
        candidates = []
        for table in range(start, len(self._tags)):
            index = self._index(pc, table)
            if self._useful[table][index] == 0:
                candidates.append((table, index))
        if not candidates:
            # decay usefulness so future allocations can succeed
            for table in range(start, len(self._tags)):
                index = self._index(pc, table)
                useful = self._useful[table]
                useful[index] = max(0, useful[index] - 1)
            return
        table, index = candidates[0] if len(candidates) == 1 else self._rng.choice(
            candidates[:2]
        )
        self._tags[table][index] = self._tag(pc, table)
        self._counters[table][index] = 0 if taken else -1
        self._useful[table][index] = 0


def _sat_update(value: int, up: bool, lo: int, hi: int) -> int:
    return min(hi, value + 1) if up else max(lo, value - 1)


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement (paper: 512 sets, 4 ways)."""

    def __init__(self, sets: int = 512, ways: int = 4):
        if sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        self._set_mask = sets - 1
        self.ways = ways
        # each set: list of (tag, target), most recently used first
        self._sets: List[List[Tuple[int, int]]] = [[] for _ in range(sets)]

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target for ``pc`` or ``None`` on a BTB miss."""
        entries = self._sets[pc & self._set_mask]
        tag = pc >> self._set_mask.bit_length()
        for i, (entry_tag, target) in enumerate(entries):
            if entry_tag == tag:
                entries.insert(0, entries.pop(i))  # LRU bump
                return target
        return None

    def install(self, pc: int, target: int) -> None:
        """Record the resolved target of the branch at ``pc``."""
        entries = self._sets[pc & self._set_mask]
        tag = pc >> self._set_mask.bit_length()
        for i, (entry_tag, _) in enumerate(entries):
            if entry_tag == tag:
                entries.pop(i)
                break
        entries.insert(0, (tag, target))
        if len(entries) > self.ways:
            entries.pop()


@dataclass
class FrontEndPrediction:
    """Outcome of predicting one branch at fetch."""

    taken: bool
    target: Optional[int]
    btb_hit: bool


class FrontEnd:
    """Combined direction predictor + BTB with misprediction accounting."""

    def __init__(self, predictor: Optional[BranchPredictor] = None,
                 btb: Optional[BranchTargetBuffer] = None):
        self.predictor = predictor if predictor is not None else TagePredictor()
        self.btb = btb if btb is not None else BranchTargetBuffer()
        self.lookups = 0
        self.mispredictions = 0

    def predict_branch(self, pc: int, unconditional: bool) -> FrontEndPrediction:
        self.lookups += 1
        target = self.btb.lookup(pc)
        taken = True if unconditional else self.predictor.predict(pc)
        return FrontEndPrediction(taken=taken, target=target, btb_hit=target is not None)

    def resolve(
        self,
        pc: int,
        prediction: FrontEndPrediction,
        taken: bool,
        target: Optional[int],
        unconditional: bool,
    ) -> bool:
        """Train on the outcome; returns True if the fetch was redirected."""
        if not unconditional:
            self.predictor.update(pc, taken)
        if taken and target is not None:
            self.btb.install(pc, target)
        mispredicted = (prediction.taken != taken) or (
            taken and prediction.target != target
        )
        if mispredicted:
            self.mispredictions += 1
        return mispredicted

    @property
    def mispredict_rate(self) -> float:
        return self.mispredictions / self.lookups if self.lookups else 0.0
