"""The library against the three-valued reference of helpers.ref_ghyltl.

Wherever the reference is definite, the library must print the same verdict
or unknown.  The reference shares no code with the evaluator, so this gate
also covers the shortcuts the unroller shares with it: memo keys, step
tables, changepoint profiles and the fused boolean chains.
"""

import random

import pytest

from ghyltl import semantics as hy
from ghyltl.semantics import EvalConfig, check_traceset, parse_hyper
from ghyltl.traces import lasso

from helpers import (LEMMA1_AP, LEMMA1_SENTENCES, gen_sentence, gen_trace, lemma1_models,
                     ref_sentence)

AP = ("p", "q")
HORIZON = 24


SHORT = EvalConfig(until_cutoff=6)


def _agrees(universe, f) -> bool | None:
    """None when the reference is undetermined, else whether the library
    gives its verdict or unknown, at the default cutoff and at a short one."""
    want = ref_sentence(universe, f, HORIZON)
    if want == "unknown":
        return None
    return all(check_traceset(universe, f, cfg).status in (want, "unknown")
               for cfg in (hy.DEFAULT_CONFIG, SHORT))


def test_reference_gate_on_random_sentences():
    # 2000 sentences with stutter gammas and contexts, half with hyper past,
    # over 1-3 lassos with prefix and loop up to 4
    rng = random.Random(2024)
    results = []
    for i in range(2000):
        f = gen_sentence(rng, AP, rng.randint(1, 3), rng.randint(1, 4), stutter=True,
                         contexts=True, past=i % 2 == 1)
        universe = [gen_trace(rng, AP, 4, 4) for _ in range(rng.randint(1, 3))]
        results.append((_agrees(universe, f), hy.render_hyper(f), universe))
    wrong = [(text, universe) for ok, text, universe in results if ok is False]
    assert not wrong, wrong[:3]
    assert sum(ok is not None for ok, _, _ in results) >= 1700


def test_reference_on_lemma1_sentences_as_written():
    decided = 0
    for text in LEMMA1_SENTENCES:
        f = parse_hyper(text, LEMMA1_AP)
        for universe in lemma1_models():
            ok = _agrees(universe, f)
            assert ok is not False, (text, universe)
            decided += ok is not None
    # 25 of the 110 need a walk past the horizon to fail an F (or an until)
    assert decided >= 85


Q_THEN_EMPTY = lasso(("q",), [{"q"}], [set()])
EMPTY = lasso(("q",), [], [set()])

# sentences on which Until cycle closing gave wrong verdicts (ROADMAP item 1).
# test_semantics checks the library on them: it agrees on the Yesterday
# chains, alone and beside a Since, and the third, a Since over coordinates
# the Until sets apart (family (a)), is a strict xfail.
CYCLE_CLOSING_EXAMPLES = [
    ("exists x. F[] Y[] Y[] Y[] Y[] Y[] q_x", [Q_THEN_EMPTY], "holds"),
    ("forall x. G[] !(Y[] Y[] Y[] Y[] Y[] q_x)", [Q_THEN_EMPTY], "fails"),
    ("exists x. exists y. C{y} X[] X[] X[] X[] X[] (C{x} F[] (C{x,y} O[] q_y))",
     [EMPTY, Q_THEN_EMPTY], "holds"),
    ("exists x. F[] (Y[] Y[] Y[] Y[] Y[] q_x & O[] q_x)", [Q_THEN_EMPTY], "holds"),
    ("exists x. exists y. F[] (Y[] Y[] Y[] Y[] Y[] q_x & O[] (q_x & q_y))", [Q_THEN_EMPTY],
     "holds"),
]


@pytest.mark.parametrize("text,universe,status", CYCLE_CLOSING_EXAMPLES,
                         ids=[t for t, _, _ in CYCLE_CLOSING_EXAMPLES])
def test_reference_on_the_cycle_closing_examples(text, universe, status):
    f = parse_hyper(text, ("q",))
    assert ref_sentence(universe, f, HORIZON) == status
    assert check_traceset(universe, f, EvalConfig(use_cycle_detection=False)).status == status
