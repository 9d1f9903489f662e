"""Stateful model-based testing of the hopscotch hash set.

A hypothesis rule-based state machine drives long interleaved sequences of
adds, discards, lookups, iterations and resizes against a Python-set model —
the strongest correctness net for open-addressing displacement logic.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, rule,
)
from hypothesis import strategies as st

from repro.intersect import HopscotchSet
from repro.intersect.hashset import H, _EMPTY


class HopscotchMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = HopscotchSet()
        self.model: set[int] = set()

    @rule(v=st.integers(0, 400))
    def add(self, v):
        assert self.real.add(v) == (v not in self.model)
        self.model.add(v)

    @rule(v=st.integers(0, 400))
    def discard(self, v):
        assert self.real.discard(v) == (v in self.model)
        self.model.discard(v)

    @rule(v=st.integers(0, 400))
    def contains(self, v):
        assert (v in self.real) == (v in self.model)

    @rule(vs=st.lists(st.integers(0, 10**9), max_size=100))
    def bulk_add(self, vs):
        for v in vs:
            self.real.add(v)
            self.model.add(v)

    @invariant()
    def sizes_match(self):
        assert len(self.real) == len(self.model)

    @invariant()
    def iteration_matches(self):
        assert set(self.real) == self.model

    @invariant()
    def hopscotch_structure(self):
        """Every stored element is within H-1 of its home and is flagged
        in the home bucket's hop mask."""
        table = self.real._table
        cap = self.real.capacity
        for slot in range(cap):
            v = int(table[slot])
            if v == _EMPTY:
                continue
            home = self.real._home(v)
            dist = (slot - home) % cap
            assert dist < H
            assert (int(self.real._hop[home]) >> dist) & 1


TestHopscotchMachine = HopscotchMachine.TestCase
TestHopscotchMachine.settings = settings(
    max_examples=25, stateful_step_count=60, deadline=None)
