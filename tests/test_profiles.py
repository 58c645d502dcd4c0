"""Differential test of the tuple-at-a-time valuation and changepoint profiles
against a per-position builder (kept here as the reference) and the
brute-force tables of helpers.py."""

import math
import random

from ghyltl import pltl as pl
from ghyltl.pltl import ValuationProfile, render_pltl, valuation_profile
from ghyltl.stutter import changepoint_profile

from helpers import brute_changepoints, brute_pltl_horizon, brute_pltl_table, gen_pltl, gen_trace

AP = ("a", "b", "c")


# -- reference: one value(i) call per position ---------------------------------


def _make(trace, f, threshold, period, value):
    bits = tuple(bool(value(i)) for i in range(threshold + period))
    return ValuationProfile(f, trace, threshold, period, bits)


def ref_profile(trace, f, memo):
    hit = memo.get(id(f))
    if hit is None:
        hit = memo[id(f)] = _ref_compute(trace, f, memo)
    return hit


def _ref_compute(trace, f, memo):
    if isinstance(f, pl.Top):
        return ValuationProfile(f, trace, 0, 1, (True,))
    if isinstance(f, pl.Atom):
        return _make(trace, f, len(trace.prefix), len(trace.loop),
                     lambda i: f.name in trace.letter(i))
    if isinstance(f, (pl.Not, pl.Next, pl.Yesterday)):
        p = ref_profile(trace, f.sub, memo)
        if isinstance(f, pl.Not):
            return _make(trace, f, p.threshold, p.period, lambda i: not p.value(i))
        if isinstance(f, pl.Next):
            return _make(trace, f, max(p.threshold - 1, 0), p.period,
                         lambda i: p.value(i + 1))
        return _make(trace, f, p.threshold + 1, p.period, lambda i: i > 0 and p.value(i - 1))
    a = ref_profile(trace, f.left, memo)
    b = ref_profile(trace, f.right, memo)
    t = max(a.threshold, b.threshold)
    l = math.lcm(a.period, b.period)
    if isinstance(f, pl.Or):
        return _make(trace, f, t, l, lambda i: a.value(i) or b.value(i))
    if isinstance(f, pl.Until):
        # scan one full cycle ahead of each cycle position
        val = [False] * (t + l)
        for i in range(t, t + l):
            for j in range(l + 1):
                pos = t + ((i - t + j) % l)
                if b.value(pos):
                    val[i] = True
                    break
                if not a.value(pos):
                    break
        for i in range(t - 1, -1, -1):
            val[i] = b.value(i) or (a.value(i) and val[i + 1])
        return ValuationProfile(f, trace, t, l, tuple(val))
    assert isinstance(f, pl.Since)
    bits, seen, prev, i = [], {}, False, 0
    while True:
        cur = b.value(i) or (a.value(i) and prev)
        bits.append(cur)
        if i + 1 >= t:
            state = (t + (i + 1 - t) % l, cur)
            if state in seen:
                first = seen[state]
                return ValuationProfile(f, trace, first, i + 1 - first, tuple(bits))
            seen[state] = i + 1
        prev = cur
        i += 1


def ref_flips(trace, gamma):
    """(threshold, period, flip_bits, tail_start) of the per-position scan."""
    profiles = [ref_profile(trace, th, {}) for th in gamma]
    threshold = max([p.threshold for p in profiles], default=0) + 1
    period = math.lcm(*[p.period for p in profiles]) if profiles else 1
    flip_bits = tuple(i > 0 and any(p.value(i) != p.value(i - 1) for p in profiles)
                      for i in range(threshold + period))
    tail_start = None
    if not any(flip_bits[threshold:]):
        tail_start = max((i for i in range(threshold) if flip_bits[i]), default=0) + 1
    return threshold, period, flip_bits, tail_start


# -- the differential test -----------------------------------------------------


def test_profiles_match_the_per_position_builder_and_the_brute_tables():
    rng = random.Random(1414)
    shapes = set()
    for case in range(2000):
        t = gen_trace(rng, AP, 10, 8)
        f = gen_pltl(rng, AP, rng.randint(0, 6))
        memo, ref_memo = {}, {}
        prof = valuation_profile(t, f, memo)
        ref_profile(t, f, ref_memo)
        # every subformula's profile, not only the root's
        assert memo.keys() == ref_memo.keys()
        for k, p in memo.items():
            q = ref_memo[k]
            assert (p.threshold, p.period, p.bits) == (q.threshold, q.period, q.bits), \
                (t, render_pltl(p.formula))
            # the true below an F has period 1, so an Until over it takes
            # an lcm; a Yesterday or Since ends its threshold past the prefix
            shapes.add((p.period < len(t.loop), p.threshold > len(t.prefix)))
        table = brute_pltl_table(t, f)
        for i in range(brute_pltl_horizon(t, f)):
            assert prof.value(i) == table[i], (t, render_pltl(f), i)

        gamma = frozenset([f] + [gen_pltl(rng, AP, rng.randint(0, 6))
                                 for _ in range(rng.randint(0, 2))])
        cp = changepoint_profile(t, gamma)
        # the origin is a changepoint, and with no flip from the threshold
        # on so is every position from tail_start
        threshold, period, flip_bits, tail_start = ref_flips(t, gamma)
        bits = tuple(i == 0 or flip or (tail_start is not None and i >= tail_start)
                     for i, flip in enumerate(flip_bits))
        assert cp.formula is gamma and cp.trace is t
        assert (cp.threshold, cp.period, cp.bits) == (threshold, period, bits), \
            (t, sorted(map(render_pltl, gamma)))
        horizon = cp.threshold + 2 * cp.period + len(t.loop)
        brute = brute_changepoints(t, gamma, horizon)
        assert [cp.value(i) for i in range(horizon)] == brute, \
            (t, sorted(map(render_pltl, gamma)))
    assert shapes >= {(False, False), (False, True), (True, False)}
