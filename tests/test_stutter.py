import random

import pytest

from ghyltl import pltl as pl
from ghyltl.stutter import StepTables, assign_pred, assign_succ, changepoint_profile
from ghyltl.traces import PointedTrace, lasso, pointwise_union, spike_trace

from helpers import brute_changepoints, brute_proper_changepoints, gen_pltl, gen_trace

SPIKE = spike_trace((), "hash", 3)
MARK = frozenset({pl.Atom("hash")})


def test_zero_always_proper():
    rng = random.Random(1)
    for _ in range(20):
        t = gen_trace(rng, ("a", "b"), 3, 3)
        g = frozenset({gen_pltl(rng, ("a", "b"), 2)})
        assert brute_proper_changepoints(t, g, 1)[0] and changepoint_profile(t, g).value(0)


def test_proper_changepoints_of_spike():
    proper = brute_proper_changepoints(SPIKE, MARK, 5)
    assert proper[3] and proper[4] and not proper[2]


def test_empty_gamma_never_flips():
    rng = random.Random(2)
    for _ in range(20):
        t = gen_trace(rng, ("a",), 3, 3)
        assert not brute_proper_changepoints(t, frozenset(), 2)[1]


def _proper(trace, gamma, horizon):
    return [i for i, p in enumerate(brute_proper_changepoints(trace, gamma, horizon)) if p]


def test_profile_empty_gamma():
    t = lasso({"p"}, [], [{"p"}])
    prof = changepoint_profile(t, frozenset())
    assert _proper(t, frozenset(), 8) == [0]
    # by convention every position after the origin is a changepoint too
    assert prof.bits == (True, True)
    assert all(prof.value(i) for i in range(8))


def test_profile_spike():
    prof = changepoint_profile(SPIKE, MARK)
    assert _proper(SPIKE, MARK, 10) == [0, 3, 4]
    assert [prof.value(i) for i in range(10)] == [i in (0, 3, 4) or i >= 5 for i in range(10)]


def test_profile_alternating_is_periodic():
    t = lasso({"p"}, [], [{"p"}, set()])
    g = frozenset({pl.Atom("p")})
    prof = changepoint_profile(t, g)
    # every position is a proper changepoint, so the convention plays no part
    assert _proper(t, g, 12) == list(range(12))
    assert all(prof.value(i) for i in range(12))


def test_gamma_succ_examples():
    assert StepTables().succ(PointedTrace(SPIKE, 0), frozenset()).pos == 1
    assert StepTables().succ(PointedTrace(SPIKE, 0), MARK).pos == 3
    assert StepTables().succ(PointedTrace(SPIKE, 4), MARK).pos == 5


def test_gamma_pred_examples():
    assert StepTables().pred(PointedTrace(SPIKE, 0), MARK) is None
    assert StepTables().pred(PointedTrace(SPIKE, 5), frozenset()).pos == 4
    assert StepTables().pred(PointedTrace(SPIKE, 4), MARK).pos == 3


def test_disjoint_gamma_steps_by_one():
    rng = random.Random(3)
    for _ in range(60):
        t = gen_trace(rng, ("a", "b"), 4, 3)
        g = rng.choice([frozenset(), frozenset({gen_pltl(rng, ("c", "d"), 2)})])
        for i in range(20):
            assert StepTables().succ(PointedTrace(t, i), g).pos == i + 1
            if i > 0:
                assert StepTables().pred(PointedTrace(t, i), g).pos == i - 1


def test_monotone_and_roundtrip():
    rng = random.Random(4)
    for _ in range(60):
        t = gen_trace(rng, ("a", "b"), 4, 3)
        g = frozenset({gen_pltl(rng, ("a", "b"), 2)})
        prof = changepoint_profile(t, g)
        for i in range(15):
            nxt = StepTables().succ(PointedTrace(t, i), g)
            assert nxt.pos > i
            prev = StepTables().pred(PointedTrace(t, i), g)
            if i > 0:
                assert prev is not None and prev.pos < i
            if prof.value(i):
                assert StepTables().pred(nxt, g).pos == i


def test_assign_succ_single_coordinate():
    t = gen_trace(random.Random(5), ("a",), 2, 2)
    a = {"x": PointedTrace(t, 0), "y": PointedTrace(t, 7)}
    out = assign_succ(a, frozenset(), {"x"})
    assert out["x"].pos == 1 and out["y"].pos == 7


def test_assign_succ_all_coordinates():
    t = gen_trace(random.Random(6), ("a",), 2, 2)
    a = {"x": PointedTrace(t, 2), "y": PointedTrace(t, 5)}
    out = assign_succ(a, frozenset(), {"x", "y"})
    assert out["x"].pos == 3 and out["y"].pos == 6


def test_assign_succ_figure_step():
    # marker traces for 5 + 4 = 9 plus the union witness; stepping on the
    # y2-marker lands the y2-carrying traces on position 4, the rest on 1
    x1 = spike_trace((), "hy_y1", 5)
    x2 = spike_trace((), "hy_y2", 4)
    x3 = spike_trace((), "hy_y3", 9)
    w = pointwise_union(x2, x3)
    a = {"x_y1": PointedTrace(x1, 0), "x_y2": PointedTrace(x2, 0),
         "x_y3": PointedTrace(x3, 0), "x": PointedTrace(w, 0)}
    out = assign_succ(a, frozenset({pl.Atom("hy_y2")}), set(a))
    assert {k: v.pos for k, v in out.items()} == \
        {"x_y1": 1, "x_y2": 4, "x_y3": 1, "x": 4}


def test_assign_pred_footnote_semantics():
    t = gen_trace(random.Random(8), ("a",), 2, 2)
    a = {"x": PointedTrace(t, 0), "y": PointedTrace(t, 5)}
    # x at the origin only blocks when x is stepped
    assert assign_pred(a, frozenset(), {"x", "y"}) is None
    out = assign_pred(a, frozenset(), {"y"})
    assert out["y"].pos == 4 and out["x"].pos == 0


def test_assign_domain_errors():
    t = gen_trace(random.Random(9), ("a",), 1, 1)
    a = {"x": PointedTrace(t, 0)}
    with pytest.raises(KeyError):
        assign_succ(a, frozenset(), {"z"})
    with pytest.raises(ValueError):
        assign_succ(a, frozenset(), set())


def test_assign_pred_chain_terminates():
    rng = random.Random(10)
    for _ in range(40):
        t = gen_trace(rng, ("a", "b"), 3, 3)
        g = frozenset({gen_pltl(rng, ("a", "b"), 2)})
        start = rng.randint(0, 12)
        a = {"x": PointedTrace(t, start)}
        steps = 0
        while a is not None:
            a = assign_pred(a, g, {"x"})
            steps += 1
        assert steps <= start + 1


def test_step_tables_match_a_brute_changepoint_scan():
    rng = random.Random(12)
    horizon, last = 250, 120
    kinds = set()
    for case in range(80):
        t = gen_trace(rng, ("a", "b"), 5, 5)
        g = frozenset() if case % 8 == 0 else frozenset(
            gen_pltl(rng, ("a", "b"), rng.randint(0, 4)) for _ in range(rng.randint(1, 2)))
        cp = brute_changepoints(t, g, horizon)
        succ = [next(j for j in range(i + 1, horizon) if cp[j]) for i in range(last + 1)]
        pred = [max((j for j in range(i) if cp[j]), default=None) for i in range(last + 1)]
        prof = changepoint_profile(t, g)
        assert prof.threshold + 2 * prof.period < last
        # changepoints repeat with the loop from the threshold on, so the
        # convention holds when the last loop below horizon has no proper one
        kinds.add(any(brute_proper_changepoints(t, g, horizon)[horizon - len(t.loop):]))
        # one owner walked upward reads its position table below the limit
        # and shifts past it; a fresh owner asked from the top builds the
        # table on its first, shifted step
        for steps, order in ((StepTables(), range(last + 1)),
                             (StepTables(), range(last, -1, -1))):
            for i in order:
                nxt = steps.succ(PointedTrace(t, i), g)
                prev = steps.pred(PointedTrace(t, i), g)
                assert nxt.trace is t and nxt.pos == succ[i], (t, g, i)
                assert (None if prev is None else prev.pos) == pred[i], (t, g, i)
        assert StepTables().succ(PointedTrace(t, last), g).pos == succ[last]
        assert StepTables().pred(PointedTrace(t, 0), g) is None
    assert kinds == {True, False}  # periodic changepoints and the convention


def test_owner_hands_out_one_point_per_position():
    # successor and predecessor steps over different gammas, below and past
    # the filled positions, return the owner's one point at each position
    rng = random.Random(17)
    for case in range(60):
        t = gen_trace(rng, ("a", "b"), 4, 4)
        g1, g2 = (frozenset(gen_pltl(rng, ("a", "b"), rng.randint(0, 3))
                            for _ in range(rng.randint(0, 2))) for _ in range(2))
        steps = StepTables()
        seen = {}
        for i in rng.sample(range(80), 30):
            for out in (steps.succ(steps.point(t, i), g1), steps.pred(PointedTrace(t, i), g2),
                        steps.pred(steps.point(t, i), g1), steps.succ(PointedTrace(t, i), g2)):
                if out is not None:
                    assert out is seen.setdefault(out.pos, out) is steps.point(t, out.pos)
        fresh = PointedTrace(t, 500)
        assert steps.intern(fresh) is fresh and steps.point(t, 500) is fresh
        assert steps.intern(PointedTrace(t, 500)) is fresh
        # an equal trace of another identity gets points of its own
        twin = lasso(t.ap, t.prefix, t.loop)
        assert steps.point(twin, 500) is not fresh and steps.point(twin, 500) == fresh


def test_a_step_builds_only_the_points_it_returns():
    # changepoints 0, 30, 31, then two in each loop of three; the position table
    # covers positions below 38, so 95 is shifted into it
    t = lasso({"p"}, [set()] * 30 + [{"p"}], [set(), set(), {"p"}])
    g = frozenset({pl.Atom("p")})
    steps = StepTables()
    assert steps.succ(PointedTrace(t, 0), g).pos == 30
    assert steps.pred(PointedTrace(t, 95), g).pos == 94
    # the owner holds the two asked points, adopted, and the two returned
    held = [i for i in range(120) if (pt := PointedTrace(t, i)) is not steps.intern(pt)]
    assert held == [0, 30, 94, 95]
    succ, pred, _ = steps.maps(g)
    assert len(succ) + len(pred) == 2


def test_foreign_points_step_to_the_documented_positions():
    # fresh points, dropped after each step, so their ids are recycled: an
    # owner that keyed a map on one would answer a later point wrongly
    rng = random.Random(18)
    horizon = 90
    for case in range(40):
        t = gen_trace(rng, ("a", "b"), 5, 5)
        g = frozenset(gen_pltl(rng, ("a", "b"), rng.randint(0, 4))
                      for _ in range(rng.randint(0, 2)))
        cp = brute_changepoints(t, g, horizon)
        steps = StepTables()
        for i in [rng.randrange(horizon - 10) for _ in range(200)]:
            nxt = steps.succ(PointedTrace(t, i), g)
            assert nxt.pos == next(j for j in range(i + 1, horizon) if cp[j]), (t, g, i)
            prev = steps.pred(PointedTrace(t, i), g)
            assert (None if prev is None else prev.pos) == \
                max((j for j in range(i) if cp[j]), default=None), (t, g, i)
            a = assign_succ({"x": PointedTrace(t, i)}, g, ("x",), steps)
            assert a["x"] is nxt
