"""Changepoints and stuttering successor/predecessor steps.

A position of a trace is a proper changepoint for a set of PLTL formulas if it
is the origin or some member formula flips truth value there.  When only
finitely many positions are proper changepoints, every later position counts
as a changepoint by convention, so successors are always defined.

Steps are lookups in per-(trace, gamma) tables owned by a StepTables object,
which the caller creates and keeps for as long as the tables should live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .pltl import pltl_eval, valuation_profile
from .traces import LassoTrace, PointedTrace

Gamma = frozenset  # of Pltl formulas


def is_proper_changepoint(trace: LassoTrace, gamma: Gamma, i: int) -> bool:
    """Origin, or some member of gamma flips truth value between i-1 and i."""
    if i == 0:
        return True
    return any(pltl_eval(trace, i, th) != pltl_eval(trace, i - 1, th) for th in gamma)


@dataclass(frozen=True)
class ChangepointProfile:
    """Finite description of the changepoints of a trace w.r.t. a gamma set.

    Below ``threshold`` flips are tabulated exactly; from there they repeat
    with ``period``.  ``tail_start`` is set when only finitely many proper
    changepoints exist: every position from there on is a changepoint by
    convention.
    """

    trace: LassoTrace
    gamma: Gamma
    threshold: int
    period: int
    flip_bits: tuple[bool, ...]
    tail_start: int | None

    def _flips(self, i: int) -> bool:
        if i < self.threshold:
            return self.flip_bits[i]
        return self.flip_bits[self.threshold + ((i - self.threshold) % self.period)]

    def is_changepoint(self, i: int) -> bool:
        if i == 0:
            return True
        if self.tail_start is not None and i >= self.tail_start:
            return True
        return self._flips(i)

    def proper_changepoints(self, horizon: int) -> list[int]:
        return [i for i in range(horizon) if i == 0 or self._flips(i)]


def changepoint_profile(trace: LassoTrace, gamma: Gamma,
                        memo: dict | None = None) -> ChangepointProfile:
    """The changepoints of trace w.r.t. gamma; memo is the trace's
    valuation-profile memo (see pltl.valuation_profile)."""
    if memo is None:
        memo = {}
    profiles = [valuation_profile(trace, th, memo) for th in gamma]
    threshold = max([p.threshold for p in profiles], default=0) + 1
    period = math.lcm(*[p.period for p in profiles]) if profiles else 1

    def flips(i: int) -> bool:
        return i > 0 and any(p.value(i) != p.value(i - 1) for p in profiles)

    flip_bits = tuple(flips(i) for i in range(threshold + period))
    tail_start: int | None = None
    if not any(flip_bits[threshold:]):
        last_proper = max((i for i in range(threshold) if flip_bits[i]), default=0)
        tail_start = last_proper + 1
    return ChangepointProfile(trace, gamma, threshold, period, flip_bits, tail_start)


class _StepTable:
    """Successor and predecessor of every position of one (trace, gamma).

    From ``threshold`` on the changepoints repeat with ``period`` (tail_start
    never exceeds the threshold) and every period holds at least one, so for
    positions at or past threshold + period both steps commute with a shift
    by whole periods.  The tables are built below threshold + 2 * period in
    one sweep each and grow by such shifts when a later position is asked.
    """

    def __init__(self, prof: ChangepointProfile):
        self.profile = prof
        trace, limit = prof.trace, prof.threshold + 2 * prof.period
        # one more period past the limit holds the successor of limit - 1
        pts = [PointedTrace(trace, i) for i in range(limit + prof.period)]
        succ: list = [None] * limit
        nxt = None
        for i in range(len(pts) - 1, -1, -1):
            if i < limit:
                succ[i] = nxt
            if prof.is_changepoint(i):
                nxt = pts[i]
        pred: list = []
        last = None
        for i in range(limit):
            pred.append(last)
            if prof.is_changepoint(i):
                last = pts[i]
        self.succ, self.pred = succ, pred

    def far(self, tab: list, pos: int) -> PointedTrace:
        """Entry pos of tab (succ or pred) at or past its end."""
        l = self.profile.period
        if pos < 2 * len(tab):
            trace = self.profile.trace
            while len(tab) <= pos:
                tab.append(PointedTrace(trace, tab[len(tab) - l].pos + l))
            return tab[pos]
        # far beyond the table: shift into its last period without growing it
        k = (pos - len(tab)) // l + 1
        return PointedTrace(self.profile.trace, tab[pos - k * l].pos + k * l)


class StepTables:
    """Owner of the step tables and valuation-profile memos of the traces
    it is asked about.

    Tables are keyed by (id(trace), id(gamma)) and memos by id(trace); both
    hold the objects whose ids they use, so the keys stay valid for the life
    of the owner.  An equal gamma of another identity gets its own table.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int], _StepTable] = {}
        self._memos: dict[int, tuple[LassoTrace, dict]] = {}

    def profile_memo(self, trace: LassoTrace) -> dict:
        """The valuation-profile memo of trace (see pltl.valuation_profile)."""
        hit = self._memos.get(id(trace))
        if hit is None:
            hit = self._memos[id(trace)] = (trace, {})
        return hit[1]

    def table(self, trace: LassoTrace, gamma: Gamma) -> _StepTable:
        key = (id(trace), id(gamma))
        hit = self._tables.get(key)
        if hit is None:
            prof = changepoint_profile(trace, gamma, self.profile_memo(trace))
            hit = self._tables[key] = _StepTable(prof)
        return hit

    def succ(self, pt: PointedTrace, gamma: Gamma) -> PointedTrace:
        tab = self._tables.get((id(pt.trace), id(gamma))) or self.table(pt.trace, gamma)
        succ = tab.succ
        return succ[pt.pos] if pt.pos < len(succ) else tab.far(succ, pt.pos)

    def pred(self, pt: PointedTrace, gamma: Gamma) -> PointedTrace | None:
        tab = self._tables.get((id(pt.trace), id(gamma))) or self.table(pt.trace, gamma)
        pred = tab.pred
        return pred[pt.pos] if pt.pos < len(pred) else tab.far(pred, pt.pos)


Assignment = Mapping[str, PointedTrace]


def _coordinates(c) -> None:
    """c must be nonempty; a coordinate missing from the assignment raises
    KeyError at its lookup (compiled closures fix theirs at compile time)."""
    if not c:
        raise ValueError("coordinate set must be nonempty")


def assign_succ(a: Assignment, gamma: Gamma, c: Iterable[str],
                steps: StepTables | None = None) -> dict[str, PointedTrace]:
    """Advance exactly the coordinates in c to their gamma-successors.

    steps owns the step tables; without it a throwaway owner is built.
    """
    _coordinates(c)
    steps = steps or StepTables()
    out = dict(a)
    for x in c:
        out[x] = steps.succ(a[x], gamma)
    return out


def assign_pred(a: Assignment, gamma: Gamma, c: Iterable[str],
                steps: StepTables | None = None) -> dict[str, PointedTrace] | None:
    """Move exactly the coordinates in c to their gamma-predecessors.

    Defined only when every coordinate in c has one (coordinates outside c do
    not matter); returns None otherwise, after the first coordinate, in the
    order of c, that has none.
    """
    _coordinates(c)
    steps = steps or StepTables()
    out = dict(a)
    for x in c:
        prev = steps.pred(a[x], gamma)
        if prev is None:
            return None
        out[x] = prev
    return out
