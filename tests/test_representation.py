"""Representation invariance: a verdict must not depend on how a lasso is written.

Prefix u with loop v denotes the same infinite word as prefix u.v^k with loop
v^j, but the evaluator's thresholds, periods, step-map fills and Until cycle
keys all read the form.  This gate evaluates each case over several forms of
its universe and asks that all definite verdicts agree: a metamorphic test in
the sense of Chen, Cheung and Yiu (1998).  It shares no code with the cycle
keys and needs no cutoff, so it also checks the verdicts that only cycle
closing decides, an F that fails and a G that holds, which neither the
unroller nor helpers.ref_ghyltl settles at any horizon.
"""

import random

import pytest

from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.semantics import EvalConfig, check_traceset, parse_hyper
from ghyltl.traces import LassoTrace, lasso, normalize
from ghyltl.transform import pos_traces, prenexify

from helpers import (LEMMA1_AP, LEMMA1_SENTENCES, gen_sentence, gen_trace, lemma1_models,
                     ref_sentence)

AP = ("p", "q")


def unroller(universe, f) -> str:
    return check_traceset(universe, f, EvalConfig(until_cutoff=60,
                                                  use_cycle_detection=False)).status


def reference(universe, f) -> str:
    # the horizon of test_reference
    return ref_sentence(universe, f, 24)


def represent(t: LassoTrace, k: int, j: int) -> LassoTrace:
    """The word of t written with prefix u.v^k and loop v^j."""
    return LassoTrace(t.ap, t.prefix + t.loop * k, t.loop * j, t.name)


def _forms(universe, rng):
    # as given, normalized, and three seeded re-presentations, each trace
    # drawing its own k <= 3 and j <= 3
    yield list(universe)
    yield [normalize(t) for t in universe]
    for _ in range(3):
        yield [represent(t, rng.randint(0, 3), rng.randint(1, 3)) for t in universe]


def _disagreement(universe, f, rng, oracles=()):
    """None when the definite verdicts over the forms of universe agree, also
    with each oracle's (unroller, reference) on universe, else the case."""
    verdicts = [check_traceset(form, f).status for form in _forms(universe, rng)]
    verdicts += [oracle(universe, f) for oracle in oracles]
    if len({v for v in verdicts if v != "unknown"}) > 1:
        return hy.render_hyper(f), universe, verdicts
    return None


def _gate(cases, rng, oracles=()):
    bad = [d for d in (_disagreement(u, f, rng, oracles) for f, u in cases) if d]
    assert not bad, (len(bad), bad[:3])


def test_representation_on_random_sentences():
    # the 2000 cases of test_reference's gate, generated the same way
    rng = random.Random(2024)
    cases = []
    for i in range(2000):
        f = gen_sentence(rng, AP, rng.randint(1, 3), rng.randint(1, 4), stutter=True,
                         contexts=True, past=i % 2 == 1)
        cases.append((f, [gen_trace(rng, AP, 4, 4) for _ in range(rng.randint(1, 3))]))
    _gate(cases, random.Random(1))


def test_representation_on_prenexified_lemma1_sentences():
    positions = list(pos_traces(8).traces)
    cases = [(prenexify(parse_hyper(text, LEMMA1_AP), LEMMA1_AP), model + positions)
             for text in LEMMA1_SENTENCES for model in lemma1_models()]
    _gate(cases, random.Random(2))


def test_representation_on_the_criterion_11_corpus():
    # the 300 cases of test_acceptance's criterion 11, generated the same way
    rng = random.Random(10_011)
    cases = []
    for _ in range(300):
        universe = [gen_trace(rng, AP, 3, 2) for _ in range(rng.randint(1, 3))]
        cases.append((gen_sentence(rng, AP, rng.randint(1, 2), rng.randint(1, 4),
                                   stutter=True, contexts=True), universe))
    _gate(cases, random.Random(3), (reference,))


# -- an Until with a Since below (ROADMAP item 1) -----------------------------
#
# Its cycle keys are not known to be sound, and these cases show that they are
# not.  The xfails are strict, so the fix of item 1 turns them into
# regression tests.

# family (b), lockstep drift (test_semantics has more on it)
DRIFT_UNIVERSE = [lasso(AP, [{"q"}], [set()]),
                  lasso(AP, [{"p"}, {"p"}, set(), set()] * 5, [{"p"}, {"p"}, {"q"}, set()])]

SINCE_ROWS = [
    ("exists x. exists y. C{y} X[] X[] X[] X[] X[] (C{x} F[] (C{x,y} O[] q_y))",
     [lasso(AP, [], [set()]), lasso(AP, [{"q"}], [set()])]),
    ("forall x. forall y. C{x} X[] C{x} X[] C{x} X[] C{x} X[] C{x} X[p] C{x} X[F q] "
     "C{x} X[] C{x} X[] C{x} X[] C{y} F[p] (C{x,y} O[p] q_x | F[] q_x)",
     [lasso(AP, [{"q"}], [set(), set()])]),
    ("exists x. exists y. q_x & !p_x & p_y & F[p] O[] (q_x & q_y)", DRIFT_UNIVERSE),
    ("forall x. forall y. (q_x & !p_x & p_y) -> G[p] !O[] (q_x & q_y)", DRIFT_UNIVERSE),
]

_ITEM_1 = pytest.mark.xfail(strict=True, reason="an Until with a Since below closes cycles on "
                                                "keys not known to be sound (ROADMAP item 1)")


@_ITEM_1
@pytest.mark.parametrize("text,universe", SINCE_ROWS,
                         ids=["example-3", "past-guard-row", "drift-row", "drift-dual"])
def test_representation_on_the_since_rows(text, universe):
    _gate([(parse_hyper(text, AP), universe)], random.Random(4), (unroller, reference))


_TARGET_GAMMAS = [frozenset(), frozenset({pl.Atom("p")}), frozenset({pl.Atom("q")}),
                  frozenset({pl.eventually(pl.Atom("q"))})]


def _targeted_case(rng):
    """Q x. Q y. C{y} X[]^k C{x} F[g]|G[g] (C{x,y} P), k in 1..9, P one of
    O[g'] a, H[g'] a, b S[g'] a over atoms of x or y, sometimes negated; the
    universe is 1-2 lassos with prefix 0-6 and loop 1-3, all letters empty but
    1-2 marks."""
    def atom():
        return hy.Atom(rng.choice(AP), rng.choice("xy"))

    past = rng.choice("OHS")
    g = rng.choice(_TARGET_GAMMAS)
    if past == "O":
        p = hy.once(g, atom())
    elif past == "H":
        p = hy.hist(g, atom())
    else:
        p = hy.Since(g, atom(), atom())
    if rng.random() < 0.3:
        p = hy.Not(p)
    g = rng.choice(_TARGET_GAMMAS)
    f = (hy.ev if rng.random() < 0.5 else hy.alw)(g, hy.Context(frozenset("xy"), p))
    f = hy.Context(frozenset("x"), f)
    for _ in range(rng.randint(1, 9)):
        f = hy.Next(frozenset(), f)
    f = hy.Context(frozenset("y"), f)
    for v in "yx":
        f = (hy.Exists if rng.random() < 0.5 else hy.Forall)(v, f)

    universe = []
    for _ in range(rng.randint(1, 2)):
        plen, llen = rng.randint(0, 6), rng.randint(1, 3)
        letters = [set() for _ in range(plen + llen)]
        for _ in range(rng.randint(1, 2)):
            letters[rng.randrange(plen + llen)].add(rng.choice(AP))
        universe.append(lasso(AP, letters[:plen], letters[plen:]))
    return f, universe


@_ITEM_1
def test_representation_on_the_targeted_since_corpus():
    rng = random.Random(3)
    _gate([_targeted_case(rng) for _ in range(500)], random.Random(5), (unroller, reference))
