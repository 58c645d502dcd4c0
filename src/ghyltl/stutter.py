"""Changepoints and stuttering successor/predecessor steps.

A position of a trace is a proper changepoint for a set of PLTL formulas if it
is the origin or some member formula flips truth value there.  When only
finitely many positions are proper changepoints, every later position counts
as a changepoint by convention, so successors are always defined.  Proper and
conventional changepoints alike are the bits of one pltl.ValuationProfile.

Steps are lookups in per-gamma maps owned by a StepTables object, which also
owns the one pointed trace per (trace, position) that the maps are keyed by;
the caller creates the owner and keeps it for as long as the maps should live.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Mapping

from .pltl import ValuationProfile, unrolled, valuation_profile
from .traces import LassoTrace, PointedTrace

Gamma = frozenset  # of Pltl formulas

_MISS = object()  # a map lookup that found no entry; None means no predecessor


def changepoint_profile(trace: LassoTrace, gamma: Gamma,
                        memo: dict | None = None) -> ValuationProfile:
    """The changepoints of trace w.r.t. gamma as a profile of gamma: bit i is
    true when position i is a changepoint.  The flips repeat from the
    members' largest threshold plus one, with the lcm of their periods; memo
    is the trace's valuation-profile memo (see pltl.valuation_profile)."""
    if memo is None:
        memo = {}
    profiles = [valuation_profile(trace, th, memo) for th in gamma]
    threshold = max([p.threshold for p in profiles], default=0) + 1
    period = math.lcm(*[p.period for p in profiles]) if profiles else 1
    n = threshold + period
    # position i > 0 flips when the members' values at i differ from i - 1
    rows = list(zip(*[unrolled(p, n) for p in profiles])) or [()] * n
    bits = (True,) + tuple(map(operator.ne, rows[1:], rows))
    if not any(bits[threshold:]):
        # no flip from the threshold on: all after the last are changepoints
        last = max(i for i in range(threshold) if bits[i])
        bits = bits[:last + 1] + (True,) * (n - 1 - last)
    return ValuationProfile(gamma, trace, threshold, period, bits)


class StepTables:
    """Owner of the pointed traces, step maps and valuation-profile memos of
    the traces it is asked about.

    The owner hands out exactly one PointedTrace per (trace object,
    position): point(trace, pos) finds or makes it, and intern(pt) returns
    the owner's point at pt's position of the same trace object, adopting pt
    when there is none.  Every step returns an owner point, so among owner
    points id(point) names a (trace, position) as (id(trace), pos) does.

    Per gamma object the owner keeps one successor and one predecessor map,
    keyed by id(point) of owner points only; an entry is made when its step
    is first asked.  A miss reads one entry of the (trace, gamma)'s position
    table, built once from one changepoint_profile: the successor and the
    predecessor position of each position below limit = threshold + 2 *
    period.  From the threshold on the bits repeat with the period, and a
    period with no flip is all changepoints, so every run of period
    positions from the threshold on holds a changepoint.  A successor step
    thus commutes with whole-period shifts from the threshold on, and a
    predecessor step, which moves back at most a period there, from
    threshold + period on; so shifting a position past the table into its
    last period, [limit - period, limit), and the entry read there back, is
    sound for both.

    Invariant: the owner holds every object whose id it or a memo keyed on
    its points uses (traces, points, gammas), so no id is reused while a key
    can name it.  A point the owner does not hold is never a key; while it is
    alive its id is no owner point's, so a lookup misses and falls back to
    succ or pred, which intern it first.  A foreign point with an equal twin
    costs a miss, never a wrong answer.  An equal trace or gamma of another
    identity gets its own points and maps.  clear forgets them all at once,
    in place, so an owner can serve the calls of many universes; memos keyed
    on its points must be cleared with it (see semantics.EvalCache.clear).
    """

    def __init__(self) -> None:
        # id(trace) -> (trace, its points by position, its profile memo)
        self._traces: dict[int, tuple[LassoTrace, dict[int, PointedTrace], dict]] = {}
        # id(gamma) -> (successor map, predecessor map, gamma)
        self._maps: dict[int, tuple[dict, dict, Gamma]] = {}
        # (id(trace), id(gamma)) -> (successor positions, predecessor
        # positions, limit, period)
        self._tables: dict[tuple[int, int], tuple[list, list, int, int]] = {}

    def clear(self) -> None:
        """Forget every trace, point, step map and position table."""
        self._traces.clear()
        self._maps.clear()
        self._tables.clear()

    def _entry(self, trace: LassoTrace) -> tuple:
        hit = self._traces.get(id(trace))
        if hit is None:
            # first sight of this object: refuse it before the owner holds it
            if not isinstance(trace, LassoTrace):
                raise TypeError(f"not a lasso trace: {trace!r}")
            hit = self._traces[id(trace)] = (trace, {}, {})
        return hit

    def profile_memo(self, trace: LassoTrace) -> dict:
        """The valuation-profile memo of trace (see pltl.valuation_profile)."""
        return self._entry(trace)[2]

    def point(self, trace: LassoTrace, pos: int) -> PointedTrace:
        """The owner's point at position pos of trace."""
        known = (self._traces.get(id(trace)) or self._entry(trace))[1]
        return known.get(pos) or known.setdefault(pos, PointedTrace(trace, pos))

    def intern(self, pt: PointedTrace) -> PointedTrace:
        """The owner's point at pt's position of pt.trace; pt itself if new."""
        return self._entry(pt.trace)[1].setdefault(pt.pos, pt)

    def maps(self, gamma: Gamma) -> tuple[dict, dict, Gamma]:
        """(successor map, predecessor map, gamma): id(point) -> point, or
        None for a point without a predecessor; filled on demand."""
        hit = self._maps.get(id(gamma))
        if hit is None:
            hit = self._maps[id(gamma)] = ({}, {}, gamma)
        return hit

    def _table(self, trace: LassoTrace, gamma: Gamma) -> tuple[list, list, int, int]:
        key = (id(trace), id(gamma))
        hit = self._tables.get(key)
        if hit is None:
            prof = changepoint_profile(trace, gamma, self.profile_memo(trace))
            limit, period = prof.threshold + 2 * prof.period, prof.period
            # one more period past the limit holds the successor of limit - 1
            cps = [i for i, cp in enumerate(unrolled(prof, limit + period)) if cp]
            # between changepoints a < b, the positions a..b-1 step forward
            # to b and a+1..b step back to a; position 0 is a changepoint
            after, before = [], [None]
            for a, b in zip(cps, cps[1:]):
                after += [b] * (b - a)
                before += [a] * (b - a)
            hit = self._tables[key] = (after[:limit], before[:limit], limit, period)
        return hit

    def _step(self, pt: PointedTrace, gamma: Gamma, which: int) -> PointedTrace | None:
        pt = self.intern(pt)
        m = self.maps(gamma)[which]
        out = m.get(id(pt), _MISS)
        if out is _MISS:
            table = self._table(pt.trace, gamma)
            limit, period = table[2:]
            k = max(0, (pt.pos - limit) // period + 1)  # whole periods to shift by
            j = table[which][pt.pos - k * period]
            out = m[id(pt)] = None if j is None else self.point(pt.trace, j + k * period)
        return out

    def succ(self, pt: PointedTrace, gamma: Gamma) -> PointedTrace:
        return self._step(pt, gamma, 0)

    def pred(self, pt: PointedTrace, gamma: Gamma) -> PointedTrace | None:
        return self._step(pt, gamma, 1)


Assignment = Mapping[str, PointedTrace]


def _moves(which: int):
    """The one step loop of direction which (0 successor, 1 predecessor),
    under the name, signature and docstring of the stub it decorates."""
    def make(stub):
        def assign(a, gamma, c, steps=None):
            # a coordinate missing from a raises KeyError at its lookup
            # (compiled closures fix theirs at compile time)
            if not c:
                raise ValueError("coordinate set must be nonempty")
            steps = steps or StepTables()
            m = steps.maps(gamma)[which]
            out = dict(a)
            for x in c:
                pt = a[x]
                moved = m.get(id(pt), _MISS)
                if moved is _MISS:
                    moved = steps._step(pt, gamma, which)
                if moved is None:
                    return None
                out[x] = moved
            return out
        return functools.update_wrapper(assign, stub)
    return make


@_moves(0)
def assign_succ(a: Assignment, gamma: Gamma, c: Iterable[str],
                steps: StepTables | None = None) -> dict[str, PointedTrace]:
    """Advance exactly the coordinates in c to their gamma-successors.

    steps owns the step maps; without it a throwaway owner is built.  The
    moved coordinates get the owner's points.
    """


@_moves(1)
def assign_pred(a: Assignment, gamma: Gamma, c: Iterable[str],
                steps: StepTables | None = None) -> dict[str, PointedTrace] | None:
    """Move exactly the coordinates in c to their gamma-predecessors.

    Defined only when every coordinate in c has one (coordinates outside c do
    not matter); returns None otherwise, after the first coordinate, in the
    order of c, that has none.
    """
