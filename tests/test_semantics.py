import copy
import gc
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import weakref
from collections import Counter

import pytest

import ghyltl
import ghyltl.stutter
from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.arith import alpha_per_context
from ghyltl.semantics import (EvalConfig, bounded_sat, check_traceset,
                              check_ts, evaluate, fragment_of, parse_hyper,
                              render_hyper)
from ghyltl.traces import LassoTrace, PointedTrace, TransitionSystem, enumerate_lassos, lasso, \
    normalize, spike_trace

from helpers import gen_matrix, gen_sentence, gen_trace, ref_ghyltl, ref_hyperltl, ref_sentence
from test_representation import DRIFT_UNIVERSE, _disagreement

AP = ("p", "q")

NONINTERFERENCE = ("forall x. forall y. "
                   "(G[] (li_x <-> li_y)) -> (G[] (lo_x <-> lo_y))")


def cfg(**kw):
    return EvalConfig(**kw)


def test_eval_reaches_marker():
    t = spike_trace((), "hash", 3)
    f = parse_hyper("F[] hash_x", {"hash"})
    v = evaluate([t], {"x": PointedTrace(t, 0)}, {"x"}, f)
    assert v.is_holds


def test_quantifier_duality_basic():
    L = [lasso(AP, [], [{"p"}]), lasso(AP, [], [set()])]
    f = parse_hyper("forall x. F[] p_x", AP)
    g = parse_hyper("exists x. !F[] p_x", AP)
    assert check_traceset(L, f).is_fails
    assert check_traceset(L, g).is_holds


def test_figure_alpha_per_instance():
    # equal-period dollar traces satisfy the periodicity conjunction; a
    # mismatched pair does not
    per3 = lasso({"dlr"}, [], [{"dlr"}] * 3 + [set()] * 3)
    bad = lasso({"dlr"}, [], [{"dlr"}] * 3 + [set()] * 2)
    f = alpha_per_context("x", "xp")
    ctx = {"x", "xp"}
    a = {"x": PointedTrace(per3, 0), "xp": PointedTrace(per3, 0)}
    assert evaluate([], a, ctx, f).is_holds
    a_bad = {"x": PointedTrace(per3, 0), "xp": PointedTrace(bad, 0)}
    assert evaluate([], a_bad, ctx, f).is_fails


def test_noninterference_single_trace():
    ap = {"li", "lo"}
    f = parse_hyper(NONINTERFERENCE, ap)
    assert check_traceset([lasso(ap, [], [set()])], f).is_holds


def test_exists_atom_fails_on_empty_trace():
    f = parse_hyper("exists x. p_x", AP)
    assert check_traceset([lasso(AP, [], [set()])], f).is_fails


def test_two_trace_separation():
    L = [lasso(AP, [], [set()]), lasso(AP, [], [{"p"}])]
    f = parse_hyper("exists x. exists y. G[] (p_x & !p_y)", AP)
    assert check_traceset(L, f).is_holds


def test_sentence_required():
    f = parse_hyper("p_x", AP)
    with pytest.raises(ValueError):
        check_traceset([lasso(AP, [], [set()])], f)


def test_y_at_origin_fails():
    rng = random.Random(0)
    for _ in range(20):
        t = gen_trace(rng, AP, 3, 2)
        f = parse_hyper("forall x. Y[] (p_x | !p_x)", AP)
        assert check_traceset([t], f).is_fails


def test_yesterday_undefined_is_false_not_error():
    t = lasso(AP, [], [{"p"}])
    f = hy.Yesterday(hy.EMPTY_GAMMA, hy.Atom("p", "x"))
    assert evaluate([t], {"x": PointedTrace(t, 0)}, {"x"}, f).is_fails
    assert evaluate([t], {"x": PointedTrace(t, 2)}, {"x"}, f).is_holds


def test_empty_universe_quantifiers():
    f = parse_hyper("forall x. p_x", AP)
    assert check_traceset([], f).is_holds
    f = parse_hyper("exists x. p_x | !p_x", AP)
    assert check_traceset([], f).is_fails


@pytest.mark.parametrize("text", [
    "forall x. C{y} X[] p_x", "forall x. C{y} Y[] p_x",
    "forall x. C{y} (q_x U[] p_x)", "forall x. C{y} (q_x S[] p_x)",
])
def test_steps_that_move_no_coordinate(text):
    # C{y} moves no bound coordinate, so every step stays at position 0 and
    # only p_x there decides; both configurations agree
    unroller = cfg(until_cutoff=40, use_cycle_detection=False)
    at_zero = lasso(AP, [{"p"}], [set()])
    later = lasso(AP, [set(), {"q"}], [{"p"}])
    f = parse_hyper(text, AP)
    for c in (hy.DEFAULT_CONFIG, unroller):
        assert check_traceset([at_zero], f, c).is_holds
        assert check_traceset([later], f, c).is_fails
        assert check_traceset([at_zero, later], f, c).is_fails


def test_until_no_effective_context():
    # a context disjoint from every bound variable freezes time
    t = lasso(AP, [], [set(), {"p"}])
    f = parse_hyper("forall x. C{z} F[] p_x", AP)
    assert check_traceset([t], f).is_fails
    t2 = lasso(AP, [{"p"}], [set()])
    assert check_traceset([t2], f).is_holds


def test_synchronous_conformance_random():
    rng = random.Random(4242)
    for _ in range(200):
        universe = [gen_trace(rng, AP, 3, 2) for _ in range(rng.randint(1, 3))]
        sentence = gen_sentence(rng, AP, rng.randint(1, 3), rng.randint(1, 4))
        got = check_traceset(universe, sentence)
        assert not got.is_unknown
        assert got.is_holds == ref_hyperltl(universe, sentence)


def test_until_cycle_detection_vs_unroller():
    rng = random.Random(777)
    contradictions = 0
    for _ in range(150):
        universe = [gen_trace(rng, AP, 3, 2) for _ in range(rng.randint(1, 3))]
        sentence = gen_sentence(rng, AP, rng.randint(1, 2), rng.randint(1, 4),
                                stutter=True, contexts=True, past=True)
        with_cycles = check_traceset(universe, sentence, cfg())
        unrolled = check_traceset(universe, sentence,
                                  cfg(use_cycle_detection=False))
        if not unrolled.is_unknown:
            if with_cycles.status != unrolled.status:
                contradictions += 1
    assert contradictions == 0


def test_quantifier_duality_random():
    rng = random.Random(31)
    for _ in range(80):
        universe = [gen_trace(rng, AP, 2, 2) for _ in range(rng.randint(1, 2))]
        inner = gen_sentence(rng, AP, 1, 3, stutter=True)
        # inner = Q v0. m; build forall v0. m vs !exists v0. !m
        _, matrix = hy.strip_prefix(inner)
        lhs = hy.Forall("v0", matrix)
        rhs = hy.Not(hy.Exists("v0", hy.Not(matrix)))
        a, b = check_traceset(universe, lhs), check_traceset(universe, rhs)
        if not a.is_unknown and not b.is_unknown:
            assert a.status == b.status


def test_since_termination_step_bound():
    calls = []
    real = ghyltl.stutter.assign_pred

    def counting(a, gamma, c, steps=None):
        calls.append(1)
        return real(a, gamma, c, steps)

    t = lasso(AP, [], [{"p"}, set()])
    f = hy.Since(hy.EMPTY_GAMMA, hy.Atom("p", "x"), hy.Atom("q", "x"))
    a = {"x": PointedTrace(t, 9)}
    old = ghyltl.stutter.assign_pred
    ghyltl.stutter.assign_pred = counting
    try:
        evaluate([t], a, {"x"}, f)
    finally:
        ghyltl.stutter.assign_pred = old
    assert len(calls) <= 10


def test_context_discipline():
    stepped: set[str] = set()
    real = ghyltl.stutter.assign_succ

    def recording(a, gamma, c, steps=None):
        stepped.update(c)
        return real(a, gamma, c, steps)

    t = lasso(AP, [], [set(), {"p"}])
    f = parse_hyper("forall x. forall y. C{x} F[] p_x", AP)
    old = ghyltl.stutter.assign_succ
    ghyltl.stutter.assign_succ = recording
    try:
        check_traceset([t], f)
    finally:
        ghyltl.stutter.assign_succ = old
    assert stepped == {"x"}


def test_unroller_walks_to_the_cutoff(monkeypatch):
    # use_cycle_detection=False runs the same Until loop with cycle closing off
    steps = []
    real = ghyltl.stutter.assign_succ

    def counting(a, gamma, c, owner=None):
        steps.append(1)
        return real(a, gamma, c, owner)

    monkeypatch.setattr(ghyltl.stutter, "assign_succ", counting)
    t = lasso(AP, [], [{"p"}, set()])
    f = parse_hyper("forall x. F[] q_x", AP)
    assert check_traceset([t], f, cfg(until_cutoff=40, use_cycle_detection=False)) \
        == hy.Verdict.unknown("until-cutoff")
    assert len(steps) == 41
    steps.clear()
    assert check_traceset([t], f, cfg(until_cutoff=40)).is_fails
    assert 0 < len(steps) < 41


def test_tautology_guard_is_constant():
    # the F/G left operand true holds even where the body hits the cutoff
    t = lasso(AP, [set()], [{"p"}, set(), {"q"}])
    f = parse_hyper("exists v0. G[] G[X q] !p_v0", AP)
    assert check_traceset([t], f, cfg(until_cutoff=40, use_cycle_detection=False)).is_fails


def test_bounded_sat_compiles_once(monkeypatch):
    # one program and one check_traceset per search, then one run per
    # candidate set the shape leaves to try
    n = len({normalize(t) for t in enumerate_lassos({"p"}, 1, 1)})
    shapes = [
        # exists with one binder <= max_traces: the singletons, then one
        # run over every candidate
        ("exists x. p_x & !p_x", n + 1),
        # forall: the singletons only
        ("forall x. p_x & !p_x", n),
        # mixed: every set of up to two candidates
        ("(exists x. p_x & !p_x) & (forall y. p_y)", n + math.comb(n, 2)),
    ]
    real_program, real_check, real_run = hy._Program, hy.check_traceset, hy._Program.run
    for text, runs in shapes:
        programs, checks, run_calls = [], [], []

        def counting_program(*args):
            programs.append(1)
            return real_program(*args)

        def counting_check(*args, **kwargs):
            checks.append(1)
            return real_check(*args, **kwargs)

        def counting_run(self, *args):
            run_calls.append(1)
            return real_run(self, *args)

        with monkeypatch.context() as m:
            m.setattr(hy._Program, "run", counting_run)
            m.setattr(hy, "_Program", counting_program)
            m.setattr(hy, "check_traceset", counting_check)
            assert bounded_sat(parse_hyper(text, {"p"}), 2, 1, 1, {"p"}) is None
        assert (len(programs), len(checks), len(run_calls)) == (1, 1, runs), text


# Counts the changepoint profiles one bounded_sat builds; the last conjunct
# makes it try every candidate set.  The Or chain stops at !p_x, so only
# traces with p at the origin reach the Y[] as x, and C{y} X[q] has moved y
# off the origin.  The Y[] gives up at x, which has no predecessor; were y
# stepped first, every trace would get a table as y.
_PROFILE_COUNT = """
import ghyltl.stutter as st
from ghyltl.semantics import bounded_sat, parse_hyper
calls = []
real = st.changepoint_profile
def counting(*args):
    calls.append(1)
    return real(*args)
st.changepoint_profile = counting
f = parse_hyper("(forall x. forall y. !p_x | C{y} X[q] C{x,y} Y[] (q_x | q_y)) & (exists z. (p_z & !p_z))", ("p", "q"))
bounded_sat(f, 2, 1, 1, ("p", "q"))
print(len(calls))
"""


def test_stepping_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(ghyltl.__file__))
    counts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _PROFILE_COUNT], env=env,
                             capture_output=True, text=True, check=True)
        counts.append(int(out.stdout))
    assert counts[0] == counts[1]


# A quantifier under a temporal operator makes the temporal node's value
# depend on the universe; a temporal node inside a quantifier but with none
# below it does not.
_UNIVERSE_SENSITIVE = [
    "forall x. G[] (exists y. (p_x <-> p_y))",
    "exists x. F[] (forall y. (q_x -> q_y))",
    "forall x. (p_x U[] (exists y. (q_y & !q_x)))",
    "exists x. X[p] (forall y. (p_x | !p_y))",
    "exists x. Y[] (exists y. p_y)",
    "forall x. H[q] (forall y. (p_y -> O[] p_x))",
    "exists x. forall y. C{y} F[] (q_y & X[] (exists z. (p_z <-> q_x)))",
]


def test_memos_kept_across_candidates_are_sound():
    rng = random.Random(41)
    sentences = [parse_hyper(text, AP) for text in _UNIVERSE_SENSITIVE]
    sentences += [gen_sentence(rng, AP, rng.randint(1, 2), 3, stutter=True, contexts=True,
                               past=True) for _ in range(12)]
    candidates = sorted({normalize(t) for t in enumerate_lassos(AP, 1, 1)},
                        key=LassoTrace.sort_key)
    unroll = cfg(until_cutoff=40, use_cycle_detection=False)
    for f in sentences:
        for config in (hy.DEFAULT_CONFIG, unroll):
            shared = hy.EvalCache()
            for size in (1, 2):
                for combo in itertools.combinations(candidates, size):
                    universe = list(combo)
                    assert check_traceset(universe, f, config, cache=shared) == \
                        check_traceset(universe, f, config, cache=hy.EvalCache()), \
                        (render_hyper(f), universe)


def test_finished_program_freed_without_gc(monkeypatch):
    refs = []
    real = hy._Program

    def recording(*args):
        program = real(*args)
        refs.extend((weakref.ref(program), weakref.ref(program._root)))
        return program

    monkeypatch.setattr(hy, "_Program", recording)
    t = lasso(AP, [], [{"p"}, set()])
    f = parse_hyper("forall x. exists y. C{x} (p_x U[] q_y) & G[p] O[] p_y", AP)
    gc.disable()
    try:
        check_traceset([t, lasso(AP, [], [{"q"}])], f)
        assert len(refs) == 2 and refs[0]() is None and refs[1]() is None
    finally:
        gc.enable()


def test_chains_stop_at_the_first_decisive_operand(monkeypatch):
    steps = []
    real = ghyltl.stutter.assign_succ

    def counting(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(ghyltl.stutter, "assign_succ", counting)
    t = lasso(AP, [], [{"p"}, set()])
    unroll = cfg(until_cutoff=40, use_cycle_detection=False)
    assert check_traceset([t], parse_hyper("forall x. !p_x & F[] q_x & p_x", AP), unroll).is_fails
    assert check_traceset([t], parse_hyper("forall x. p_x | F[] q_x | !p_x", AP), unroll).is_holds
    assert steps == []
    # left to right: an earlier unknown operand is walked before the failing one
    assert check_traceset([t], parse_hyper("forall x. F[] q_x & !p_x & p_x", AP), unroll).is_fails
    assert len(steps) == 41


def _shared_or_tower():
    f = hy.Atom("p", "x")
    for _ in range(18):
        f = hy.Or(f, f)
    return hy.Forall("x", f)


def test_structural_queries_visit_shared_nodes_once(monkeypatch):
    calls, expanded = [], []
    real = hy.postorder

    def counting(n):
        out = real(n)
        calls.extend(map(id, out))
        return out

    class Operands(dict):
        def get(self, cls, default=None):
            expanded.append(cls)
            return super().get(cls, default)

    # the fold reads every node through the one walk, postorder, which looks
    # up each node's operand fields once; each query runs on its own
    # never-folded tower, and the formula keeps the fold for every later
    # query, which walks nothing
    monkeypatch.setattr(hy, "postorder", counting)
    monkeypatch.setattr(hy, "_OPERANDS", Operands(hy._OPERANDS))
    queries = [(hy.free_vars, frozenset()), (hy.quantifier_shape, "forall"),
               (hy.all_vars, {"x"}), (hy.is_prenex, True)]
    for query, expected in queries:
        f = _shared_or_tower()
        calls.clear()
        expanded.clear()
        assert query(f) == expected
        visits = Counter(calls)
        assert len(visits) == 20 and max(visits.values()) == 1
        assert len(expanded) == 20
        calls.clear()
        expanded.clear()
        for again, want in queries:
            assert again(f) == want
        assert calls == [] and expanded == []


def test_long_conjunction_is_depth_safe():
    f = hy.Forall("x", hy.h_all([hy.Atom("p", "x")] * 5000))
    assert hy.free_vars(f) == frozenset()
    assert hy.quantifier_shape(f) == "forall"
    assert fragment_of(f) == "HyperLTL"
    assert len(hy.postorder(f)) == 4 * 4999 + 2
    assert check_traceset([lasso(AP, [], [{"p"}])], f).is_holds
    assert check_traceset([lasso(AP, [], [{"p"}]), lasso(AP, [], [set()])], f).is_fails


def test_quantifier_free_independent_of_universe():
    t = lasso(AP, [], [{"p"}, set()])
    f = parse_hyper("p_x U[] q_x", AP)
    a = {"x": PointedTrace(t, 0)}
    v1 = evaluate([], a, {"x"}, f)
    v2 = evaluate([t, lasso(AP, [], [{"q"}])], a, {"x"}, f)
    assert v1.status == v2.status


# -- transition-system checking -----------------------------------------------


def _self_loop(label=frozenset()) -> TransitionSystem:
    return TransitionSystem(frozenset(AP), ("v",), frozenset({("v", "v")}),
                            frozenset({"v"}), {"v": frozenset(label)})


def test_check_ts_exact_universe_sound_forall():
    f = parse_hyper("forall x. G[] !p_x", AP)
    v = check_ts(_self_loop(), f, 0, 1)
    assert v.is_holds and v.reason is None


def test_check_ts_existential_sound():
    ts = TransitionSystem(frozenset({"p"}), ("a", "b"),
                          frozenset({("a", "a"), ("a", "b"), ("b", "b"), ("b", "a")}),
                          frozenset({"a", "b"}),
                          {"a": frozenset(), "b": frozenset({"p"})})
    f = parse_hyper("exists x. G[] !p_x", {"p"})
    v = check_ts(ts, f, 0, 1)
    assert v.is_holds and v.reason is None


def test_check_ts_universal_counterexample_sound():
    ts = TransitionSystem(frozenset({"p"}), ("a", "b"),
                          frozenset({("a", "a"), ("a", "b"), ("b", "b"), ("b", "a")}),
                          frozenset({"a", "b"}),
                          {"a": frozenset(), "b": frozenset({"p"})})
    f = parse_hyper("forall x. G[] !p_x", {"p"})
    v = check_ts(ts, f, 0, 1)
    assert v.is_fails and v.reason is None


def test_check_ts_boolean_nested_existential_sound():
    # quantifiers under conjunctions still certify holds when every
    # occurrence is existential after polarity
    ts = TransitionSystem(frozenset({"p"}), ("a", "b"),
                          frozenset({("a", "a"), ("a", "b"), ("b", "b"), ("b", "a")}),
                          frozenset({"a", "b"}),
                          {"a": frozenset(), "b": frozenset({"p"})})
    f = parse_hyper("exists x. (F[] p_x & (exists y. G[] !p_y))", {"p"})
    v = check_ts(ts, f, 1, 1)
    assert v.is_holds and v.reason is None
    g = parse_hyper("!(forall x. !(F[] p_x))", {"p"})
    assert hy.quantifier_shape(g) == "exists"
    v = check_ts(ts, g, 1, 1)
    assert v.is_holds and v.reason is None


def test_check_ts_lasso_beyond_the_bounds_is_not_exact():
    # a -> b -> b ..., b labelled {p}: the one run has a stem of length 1
    ts = TransitionSystem(frozenset({"p"}), ("a", "b"), frozenset({("a", "b"), ("b", "b")}),
                          frozenset({"a"}), {"a": frozenset(), "b": frozenset({"p"})})
    f = parse_hyper("forall x. G[] !p_x", ("p",))
    # max_prefix 0 enumerates no run at all, so the bounded holds is vacuous
    assert check_ts(ts, f, 0, 1) == hy.Verdict.unknown(
        "ts-universe-bound(max_prefix=0,max_loop=1);bounded-verdict=holds")
    assert check_ts(ts, f, 1, 1).is_fails


def test_check_ts_alternation_unknown():
    ts = TransitionSystem(frozenset({"p"}), ("a", "b"),
                          frozenset({("a", "a"), ("a", "b"), ("b", "b"), ("b", "a")}),
                          frozenset({"a", "b"}),
                          {"a": frozenset(), "b": frozenset({"p"})})
    f = parse_hyper("forall x. exists y. G[] (p_x <-> p_y)", {"p"})
    v = check_ts(ts, f, 1, 1)
    assert v.is_unknown and "bound" in v.reason


def test_check_ts_passes_an_until_cutoff_through():
    # an unknown from the bounded universe is returned as it is, not wrapped
    # as a universe bound
    f = parse_hyper("exists x. F[] p_x", AP)
    v = check_ts(_self_loop(), f, 0, 1, cfg(until_cutoff=3, use_cycle_detection=False))
    assert v == hy.Verdict.unknown("until-cutoff")


# -- fragments ----------------------------------------------------------------


def test_fragment_of():
    assert fragment_of(parse_hyper("forall x. forall y. G[] (p_x <-> p_y)", AP)) \
        == "HyperLTL"
    assert fragment_of(parse_hyper("forall x. G[p] p_x", AP)) == "HyperLTL_S"
    assert fragment_of(parse_hyper("forall x. C{x} F[] p_x", AP)) == "HyperLTL_C"
    assert fragment_of(parse_hyper("forall x. C{x} F[p] p_x", AP)) == "GHyLTL_S+C"
    assert fragment_of(parse_hyper("forall x. G[Y p] p_x", AP)) == "GHyLTL_S+C"
    assert fragment_of(parse_hyper("forall x. Y[] p_x", AP)) == "GHyLTL_S+C"
    assert fragment_of(parse_hyper("forall x. F[] (exists y. p_y)", AP)) \
        == "GHyLTL_S+C"
    # is_past_free through a Not, a Next and a binary operator
    assert fragment_of(parse_hyper("forall x. F[X p, !q] p_x", AP)) == "HyperLTL_S"
    assert fragment_of(parse_hyper("forall x. F[p U Y q] p_x", AP)) == "GHyLTL_S+C"


# -- bounded satisfiability ---------------------------------------------------


def test_bounded_sat_contradiction():
    f = parse_hyper("exists x. p_x & !p_x", {"p"})
    assert bounded_sat(f, 3, 3, 2, {"p"}) is None


def test_bounded_sat_smallest_model():
    f = parse_hyper("exists x. F[] p_x", {"p"})
    model = bounded_sat(f, 1, 0, 1, {"p"})
    assert model == [lasso({"p"}, [], [{"p"}])]


def test_bounded_sat_noninterference():
    ap = {"li", "lo"}
    f = parse_hyper(NONINTERFERENCE, ap)
    model = bounded_sat(f, 2, 1, 1, ap)
    assert model is not None and len(model) == 1


# -- concrete syntax ----------------------------------------------------------


def test_parse_atom_longest_prop():
    ap = {"hy", "hy_y3"}
    f = parse_hyper("hy_y3_x_y3", ap)
    assert f == hy.Atom("hy_y3", "x_y3")


def test_parse_gamma_brackets():
    f = parse_hyper("forall x. X[p, X q] p_x", AP)
    assert isinstance(f.sub, hy.Next)
    assert f.sub.gamma == frozenset({pl.Atom("p"), pl.Next(pl.Atom("q"))})


def test_parse_context_sets():
    f = parse_hyper("forall x. forall y. C{x,y} F[] p_x", AP)
    _, m = hy.strip_prefix(f)
    assert isinstance(m, hy.Context) and m.vars == {"x", "y"}


def test_render_parse_roundtrip_random():
    rng = random.Random(13)
    for _ in range(200):
        f = gen_sentence(rng, AP, rng.randint(1, 2), rng.randint(0, 4),
                         stutter=True, contexts=True, past=True)
        text = render_hyper(f)
        assert parse_hyper(text, AP) == f, text


@pytest.mark.parametrize("ap", [("true", "q"), ("q", "false"), ("p q",), ("q", "p,r"),
                                ("X", "q"), ("q", "U")])
def test_reserved_or_unreadable_proposition_names(ap):
    # with ap: true, q the text F[true] q_x would read the constant
    with pytest.raises(hy.ParseError, match="proposition name"):
        parse_hyper("exists x. F[true] q_x", ap)


def test_parse_error_position():
    with pytest.raises(hy.ParseError) as exc:
        parse_hyper("forall x.\n p_x &", AP)
    assert exc.value.line == 2


PX, QX, PY, QY = hy.Atom("p", "x"), hy.Atom("q", "x"), hy.Atom("p", "y"), hy.Atom("q", "y")
E = hy.EMPTY_GAMMA
G_PQ = frozenset({pl.Atom("q"), pl.p_and(pl.Atom("p"), pl.eventually(pl.Atom("q")))})

# exact text, so a change in the shared printer shows up as a byte diff
RENDER_GOLDEN = [
    (hy.ev(E, PX), "F[] p_x"),
    (hy.alw(frozenset({pl.Atom("p")}), hy.h_implies(PX, hy.ev(E, QY))), "G[p] (p_x -> F[] q_y)"),
    (hy.once(E, hy.hist(E, PX)), "O[] H[] p_x"),
    (hy.Next(G_PQ, PX), "X[p & F q, q] p_x"),
    (hy.Yesterday(E, hy.Or(PX, QX)), "Y[] (p_x | q_x)"),
    (hy.h_and(hy.Or(PX, PY), QX), "(p_x | p_y) & q_x"),
    (hy.Or(PX, hy.h_and(PY, QX)), "p_x | p_y & q_x"),
    (hy.h_implies(hy.h_implies(PX, PY), QX), "(p_x -> p_y) -> q_x"),
    (hy.h_iff(PX, hy.h_iff(PY, QX)), "p_x <-> (p_y <-> q_x)"),
    (hy.Until(E, PX, hy.Since(G_PQ, PY, QX)), "p_x U[] p_y S[p & F q, q] q_x"),
    (hy.Until(E, hy.Until(E, PX, PY), QX), "(p_x U[] p_y) U[] q_x"),
    (hy.Context(frozenset({"y", "x"}), hy.ev(E, PX)), "C{x,y} F[] p_x"),
    (hy.h_and(hy.Context(frozenset({"x"}), PX), QY), "C{x} p_x & q_y"),
    (hy.Context(frozenset({"x"}), hy.Or(PX, QY)), "C{x} (p_x | q_y)"),
    (hy.Exists("x", hy.Forall("y", hy.h_iff(PX, PY))), "exists x. forall y. p_x <-> p_y"),
    (hy.Forall("y", hy.Or(hy.Exists("x", PX), QY)), "forall y. (exists x. p_x) | q_y"),
    (hy.Forall("y", hy.h_implies(QY, hy.Exists("x", PX))), "forall y. q_y -> (exists x. p_x)"),
    (hy.Exists("x", hy.Not(hy.Exists("y", PY))), "exists x. !(exists y. p_y)"),
    (hy.h_and(pl.TRUE, hy.Not(pl.TRUE)), "true & !true"),
    (hy.Next(frozenset({pl.TRUE}), hy.Or(pl.TRUE, PX)), "X[true] (true | p_x)"),
    (hy.Until(E, hy.Or(QX, hy.Not(QX)), QX), "(q_x | !q_x) U[] q_x"),
]


@pytest.mark.parametrize("f,text", RENDER_GOLDEN, ids=[t for _, t in RENDER_GOLDEN])
def test_render_golden(f, text):
    assert render_hyper(f) == text
    assert parse_hyper(text, AP) == f


def test_true_and_false_in_both_families():
    assert parse_hyper("true", ()) is pl.TRUE
    assert parse_hyper("exists x. false", AP) == hy.Exists("x", hy.Not(pl.TRUE))
    assert render_hyper(pl.TRUE) == "true"
    assert parse_hyper("F[true, false] p_x", AP) == hy.ev(frozenset({pl.TRUE, pl.Not(pl.TRUE)}),
                                                         PX)
    t = lasso(AP, [], [set()])
    assert check_traceset([t], parse_hyper("forall x. G[] true & !F[] false", AP)).is_holds


def test_hyper_sugar_is_built_over_true():
    for make, node in ((hy.ev, hy.Until), (hy.once, hy.Since)):
        assert make(E, PX) == node(E, pl.TRUE, PX)
    for make, node in ((hy.alw, hy.Until), (hy.hist, hy.Since)):
        assert make(E, PX) == hy.Not(node(E, pl.TRUE, hy.Not(PX)))


def test_written_tautology_until_decides_as_f():
    # (q_x | !q_x) U[g] q_x is no longer read as sugar, and still means F[g] q_x
    rng = random.Random(21)
    for _ in range(60):
        gamma = rng.choice([E, frozenset({pl.Atom("p")})])
        universe = [gen_trace(rng, AP, 3, 3) for _ in range(rng.randint(1, 2))]
        for kind in (hy.Exists, hy.Forall):
            written = kind("x", hy.Until(gamma, hy.Or(QX, hy.Not(QX)), QX))
            assert check_traceset(universe, written) == \
                check_traceset(universe, kind("x", hy.ev(gamma, QX)))


# -- the Until cycle-key shortcut ---------------------------------------------
#
# The walk keys a configuration only once every stepped coordinate is past its
# threshold, and its key names no trace.  The cases below give each stepped
# coordinate its own prefix, period and start, so the coordinates cross their
# thresholds at different iterations, and step on gammas that jump several
# positions at once.


def _key_per_iteration(names, gammas, margin, canon, steps):
    # the key of the evaluator before the shortcut: built at every iteration,
    # with (id(trace), canonical position) per stepped coordinate
    def key(a):
        out = []
        for x in names:
            pt = a[x]
            trace, pos = pt.trace, pt.pos
            hit = canon.get(id(trace))
            if hit is None:
                memo = steps.profile_memo(trace)
                profs = [pl.valuation_profile(trace, th, memo) for th in gammas]
                base = max([len(trace.prefix)] + [p.threshold for p in profs])
                period = math.lcm(len(trace.loop), *[p.period for p in profs])
                hit = canon[id(trace)] = (base, period)
            base, l = hit
            t = base + margin * l
            out.append((id(trace), pos if pos < t else t + (pos - t) % l))
        return tuple(out)
    return key


def _walk_per_iteration(move, gamma, eff, steps, left, right, bound, config_key):
    guard = left is hy._holds

    def walk(a):
        result, prefix_ok = 0, 1
        seen = set()
        cur = a
        for _ in bound:
            if config_key is not None:
                key = config_key(cur)
                if key in seen:
                    return result
                seen.add(key)
            v2 = right(cur)
            if v2:
                if v2 == 1 and prefix_ok == 1:
                    return 1
                result = 2
            if not guard:
                v1 = left(cur)
                if v1 == 0:
                    return result
                if v1 == 2:
                    prefix_ok = 2
            cur = move(cur, gamma, eff, steps)
            if cur is None:
                return result
        return 2
    return walk


# p flips rarely on the traces below, so these gammas skip several positions
JUMPING_GAMMAS = [frozenset(), frozenset({pl.Atom("p")}), frozenset({pl.eventually(pl.Atom("q"))}),
                  frozenset({pl.Atom("p"), pl.Next(pl.Next(pl.Atom("q")))})]


def _desynchronized_walk(rng, k, past, since=True):
    def letter():
        return {a for a in AP if rng.random() < 0.3}
    traces = [lasso(AP, [letter() for _ in range(rng.randint(0, 5))],
                    [letter() for _ in range(rng.randint(1, 6))]) for _ in range(k)]
    scope = [f"v{i}" for i in range(k)]
    a = {x: PointedTrace(t, rng.randint(0, 9)) for x, t in zip(scope, traces)}
    gamma = rng.choice(JUMPING_GAMMAS)
    right = gen_matrix(rng, AP, scope, rng.randint(0, 2), stutter=True, contexts=True,
                       past=past, since=since)
    left = pl.TRUE if rng.random() < 0.5 else \
        gen_matrix(rng, AP, scope, rng.randint(0, 2), stutter=True, contexts=True, past=past,
                   since=since)
    return traces, a, hy.Not(hy.Until(gamma, left, right)) if rng.random() < 0.3 \
        else hy.Until(gamma, left, right)


def _verdict_and_steps(monkeypatch, traces, a, f, config):
    steps = []
    real = ghyltl.stutter.assign_succ

    def counting(a, gamma, c, owner=None):
        steps.append(1)
        return real(a, gamma, c, owner)

    with monkeypatch.context() as m:
        m.setattr(ghyltl.stutter, "assign_succ", counting)
        verdict = evaluate(traces, a, set(a), f, config)
    return verdict, len(steps)


@pytest.mark.parametrize("k", range(1, 8))
def test_cycle_key_shortcut_vs_per_iteration_key(monkeypatch, k):
    # the same verdicts and the same number of steps as a key built at every
    # iteration, past below the Until or not
    rng = random.Random(9100 + k)
    for i in range(40):
        traces, a, f = _desynchronized_walk(rng, k, past=i % 2 == 1)
        config = cfg(until_cutoff=rng.choice([6, 40, 200]))
        got = _verdict_and_steps(monkeypatch, traces, a, f, config)
        with monkeypatch.context() as m:
            m.setattr(hy, "_walk", _walk_per_iteration)
            m.setattr(hy, "_config_key", _key_per_iteration)
            assert _verdict_and_steps(monkeypatch, traces, a, f, config) == got


def _profiled(monkeypatch, traces, f):
    """check_traceset's verdict on f and the formulas whose valuation
    profiles it built, rendered."""
    built = []
    real = pl.valuation_profile

    def counting(trace, g, memo=None):
        if memo is None or id(g) not in memo:
            built.append(pl.render_pltl(g))
        return real(trace, g, memo)

    with monkeypatch.context() as m:
        m.setattr(pl, "valuation_profile", counting)
        m.setattr(ghyltl.stutter, "valuation_profile", counting)
        verdict = check_traceset(traces, f)
    return verdict, built


def test_cycle_key_thresholds_wait_for_the_first_step(monkeypatch):
    # the walk of F[q, X X p] p_x returns at its first iteration where p
    # holds at 0, so no threshold, and no profile of a gamma member, is read
    f = parse_hyper("forall x. F[q, X X p] p_x", AP)
    verdict, built = _profiled(monkeypatch, [lasso(AP, [{"p"}], [set()])], f)
    assert verdict.is_holds and built == []
    # one step later the walk steps: the thresholds read the members
    verdict, built = _profiled(monkeypatch, [lasso(AP, [set(), {"p"}], [set()])], f)
    assert verdict.is_holds and {"q", "X X p"} <= set(built)


@pytest.mark.parametrize("k", range(1, 8))
def test_cycle_key_shortcut_vs_unroller(k):
    # past-free bodies, and bodies that look back through Yesterday only
    rng = random.Random(9200 + k)
    decided = 0
    for i in range(40):
        traces, a, f = _desynchronized_walk(rng, k, past=i % 2 == 1, since=False)
        unrolled = evaluate(traces, a, set(a), f, cfg(use_cycle_detection=False))
        if not unrolled.is_unknown:
            decided += 1
            assert evaluate(traces, a, set(a), f) == unrolled
    assert decided >= 10


# -- Past-free nodes step only the coordinates they read ---------------------
#
# A Next or Until with no Yesterday or Since below steps the coordinates of
# c & dom that it reads, not all of them, and keys its Until cycles from base
# (margin 0).  The cases below name coordinates in contexts that the body
# never reads, nest Untils whose inner operands read coordinates that the
# outer ones do not, and start coordinates at and around base on traces whose
# changepoints sit at base.


def test_an_unread_coordinate_is_not_stepped(monkeypatch):
    # long prefixes and coprime loops (3 and 5): p turns up on x's lasso at 8
    tx = lasso(AP, [set()] * 7, [set(), {"p"}, set()])
    ty = lasso(AP, [{"q"}, set()] * 4, [{"p"}, set(), {"q"}, set(), set()])
    calls = []
    real = ghyltl.stutter.assign_succ

    def recording(a, gamma, c, owner=None):
        calls.append(tuple(c))
        return real(a, gamma, c, owner)

    monkeypatch.setattr(ghyltl.stutter, "assign_succ", recording)
    sentence = parse_hyper("exists x. exists y. C{x,y} F[] p_x", AP)
    assert check_traceset([tx, ty], sentence).is_holds
    assert calls and set(calls) == {("x",)}
    # y bound to a trace that x never ranges over: the owner never steps it
    calls.clear()
    cache = hy.EvalCache()
    a = {"x": PointedTrace(tx, 0), "y": PointedTrace(ty, 0)}
    assert evaluate([tx], a, {"x", "y"}, sentence.sub.sub, cache=cache).is_holds
    assert calls and set(calls) == {("x",)}
    points = cache.steps._traces[id(ty)][1]
    assert set(points) == {0}
    for succ, _, _ in cache.steps._maps.values():
        assert id(points[0]) not in succ


def _wide_build(real):
    """_Program._build under the rule before the narrowing: a past-free Next
    or Until steps all of c & dom and keys its Until cycles one period past
    base.  Every other node builds as real does."""
    def build(self, n, c, dom):
        if not isinstance(n, (hy.Next, hy.Until)) or self.facts[id(n)][1]:
            return real(self, n, c, dom)
        eff, move = tuple(sorted(c & dom)), ghyltl.stutter.assign_succ
        if isinstance(n, hy.Next):
            sub = self.compile(n.sub, c, dom)
            return self._memo(n, dom, lambda: hy._step(move, n.gamma, eff, self.steps, sub)) \
                if eff else sub
        right = self.compile(n.right, c, dom)
        if not eff:
            return right
        left = self.compile(n.left, c, dom)
        key = hy._config_key(eff, self.gammas, 1, self.canon, self.steps) \
            if self.cfg.use_cycle_detection else None
        return self._memo(n, dom, lambda: hy._walk(move, n.gamma, eff, self.steps, left, right,
                                                   range(self.cfg.until_cutoff + 1), key))
    return build


# one gamma per case, so that base is known: members that flip where the
# letters do, one that turns periodic a position late, and one that jumps
BASE_GAMMAS = [frozenset(), frozenset({pl.Atom("p")}), frozenset({pl.Yesterday(pl.Atom("p"))}),
               frozenset({pl.Atom("q"), pl.Next(pl.Next(pl.Atom("p")))})]


def _base(trace, gamma):
    return max([len(trace.prefix)] + [pl.valuation_profile(trace, th).threshold for th in gamma])


def _narrow_case(rng, past):
    """An X, U, F or G (or Y, with past) under a context of 2-4 coordinates
    whose body reads a strict subset of them; inside it, operands read
    subsets of their own, under contexts that may name any coordinate, with
    chains of up to three Y (no S) when past.  Each coordinate has its own
    lasso, whose first loop letter often flips p against the last prefix
    letter, and starts at 0, near base or anywhere; with past, unread
    coordinates start at 0 more often."""
    k = rng.randint(2, 4)
    scope = [f"v{i}" for i in range(k)]
    gamma = rng.choice(BASE_GAMMAS)

    def letter():
        return {x for x in AP if rng.random() < 0.4}

    def trace():
        prefix = [letter() for _ in range(rng.randint(0, 6))]
        loop = [letter() for _ in range(rng.randint(1, 5))]
        if prefix and rng.random() < 0.7 and ("p" in prefix[-1]) == ("p" in loop[0]):
            loop[0] ^= {"p"}
        return lasso(AP, prefix, loop)

    def body(vs, d):
        kinds = ["atom", "not", "or", "and", "next", "until", "ev", "alw", "ctx"]
        kind = rng.choice(kinds + ["yesterday"] * past) if d > 0 else "atom"

        def sub():
            return body(rng.sample(vs, rng.randint(1, len(vs))), d - 1)

        if kind == "atom":
            return hy.Atom(rng.choice(AP), rng.choice(vs))
        if kind == "not":
            return hy.Not(sub())
        if kind in ("or", "and"):
            return (hy.Or if kind == "or" else hy.h_and)(sub(), sub())
        if kind == "next":
            return hy.Next(gamma, sub())
        if kind == "until":
            return hy.Until(gamma, sub(), sub())
        if kind in ("ev", "alw"):
            return (hy.ev if kind == "ev" else hy.alw)(gamma, sub())
        if kind == "ctx":
            return hy.Context(frozenset(rng.sample(scope, rng.randint(1, k))), sub())
        f = sub()
        for _ in range(rng.randint(1, 3)):
            f = hy.Yesterday(gamma, f)
        return f

    traces = [trace() for _ in scope]
    read = rng.sample(scope, rng.randint(1, k - 1))
    a = {}
    for x, t in zip(scope, traces):
        b = _base(t, gamma)
        # with past, an unread coordinate at 0 ends every Y step over it
        start = 0 if past and x not in read and rng.random() < 0.4 else \
            rng.choice([0, max(b - 1, 0), b, b + 1, rng.randint(0, 9)])
        a[x] = PointedTrace(t, start)

    def inner():
        return body(rng.sample(read, rng.randint(1, len(read))), rng.randint(0, 3))

    kind = rng.choice("XUFGY" if past else "XUFG")
    f = hy.Until(gamma, inner(), inner()) if kind == "U" else \
        hy.ev(gamma, inner()) if kind == "F" else hy.alw(gamma, inner()) if kind == "G" else \
        (hy.Next if kind == "X" else hy.Yesterday)(gamma, inner())
    f = hy.Context(frozenset(scope), f)
    return traces, a, hy.Not(f) if rng.random() < 0.3 else f, gamma


def _narrow_corpus(monkeypatch, seed, past):
    rng = random.Random(seed)
    unroller = cfg(until_cutoff=60, use_cycle_detection=False)
    counts = Counter()
    for _ in range(400):
        traces, a, f, gamma = _narrow_case(rng, past)
        config = cfg(until_cutoff=rng.choice([3, 8, 40, 200]))
        got = evaluate(traces, a, set(a), f, config)
        with monkeypatch.context() as m:
            m.setattr(hy._Program, "_build", _wide_build(hy._Program._build))
            wide = evaluate(traces, a, set(a), f, config)
        case = (render_hyper(f), traces, a, config)
        if not wide.is_unknown:
            assert got == wide, case
        counts["gained"] += wide.is_unknown and not got.is_unknown
        if not got.is_unknown:
            unrolled = evaluate(traces, a, set(a), f, unroller)
            if not unrolled.is_unknown:
                counts["unroller"] += 1
                assert got == unrolled, case
            ref = ref_ghyltl(traces, a, set(a), f, 12)
            if ref is not None:
                counts["reference"] += 1
                assert got.is_holds == ref, case
        # a coordinate that starts at base, where a changepoint sits
        counts["at base"] += any(pt.pos == _base(pt.trace, gamma) and pl.unrolled(
            ghyltl.stutter.changepoint_profile(pt.trace, gamma), pt.pos + 1)[pt.pos]
            for pt in a.values())
    return counts


@pytest.mark.parametrize("seed,past", [(5100, False), (5101, True)])
def test_narrowed_walks_vs_the_wide_rule_the_unroller_and_the_reference(monkeypatch, seed,
                                                                        past):
    # every definite verdict of the wide rule is kept, and the narrowed walks
    # reach their cycles within cutoffs where the wide ones do not
    counts = _narrow_corpus(monkeypatch, seed, past)
    assert counts["unroller"] >= 250 and counts["reference"] >= 150, counts
    assert counts["gained"] >= 5 and counts["at base"] >= 50, counts


X_THEN_Q = lasso(AP, [set(), set()], [{"q"}, set()])


@pytest.mark.parametrize("text,a,status", [
    # a Y steps every coordinate of its context: y at 0 has no predecessor
    ("C{x,y} Y[] p_x", {"x": (lasso(AP, [{"p"}], [set()]), 1), "y": (X_THEN_Q, 0)}, "fails"),
    # an Until steps the coordinates of both operands: y leaves its p
    ("C{x,y} p_y U[] q_x", {"x": (X_THEN_Q, 0), "y": (lasso(AP, [{"p"}], [set()]), 0)},
     "fails"),
    # Y q holds at 3, 5, ... and not at base 1, where it reads the prefix: a
    # key from base would close the walk at 3 on base's value
    ("F[] Y[] q_x", {"x": (lasso(AP, [set()], [set(), {"q"}]), 1)}, "holds"),
])
def test_the_narrowing_and_margin_rules_on_rows(text, a, status):
    a = {x: PointedTrace(t, pos) for x, (t, pos) in a.items()}
    f = parse_hyper(text, AP)
    traces = [pt.trace for pt in a.values()]
    assert ref_ghyltl(traces, a, set(a), f, 12) == (status == "holds")
    assert evaluate(traces, a, set(a), f, cfg(use_cycle_detection=False)).status == status
    assert evaluate(traces, a, set(a), f).status == status


# -- Until cycle keys over bodies that look back -----------------------------
#
# An Until builds keys only from h + 1 periods past the point where the trace
# and every gamma turn periodic, for the past horizon h of its body: the
# heaviest path below it, a Yesterday weighing 1 and a Since 2.  A chain of k
# Yesterday steps reads positions up to k changepoints back; a Since beside it
# adds to the chain's h, and does not hide it.

Q_THEN_EMPTY = [lasso(("q",), [{"q"}], [set()])]


@pytest.mark.parametrize("text,status", [
    ("exists x. F[] Y[] Y[] Y[] Y[] Y[] q_x", "holds"),
    ("forall x. G[] !(Y[] Y[] Y[] Y[] Y[] q_x)", "fails"),
    ("exists x. F[] (Y[] Y[] Y[] Y[] Y[] q_x & O[] q_x)", "holds"),
    ("forall x. G[] !(Y[] Y[] Y[] Y[] Y[] q_x & O[] q_x)", "fails"),
    ("exists x. exists y. F[] (Y[] Y[] Y[] Y[] Y[] q_x & O[] (q_x & q_y))", "holds"),
    ("forall x. forall y. G[] !(Y[] Y[] Y[] Y[] Y[] q_x & O[] (q_x & q_y))", "fails"),
])
def test_yesterday_chain_longer_than_three_periods(text, status):
    f = parse_hyper(text, ("q",))
    assert check_traceset(Q_THEN_EMPTY, f).status == status
    assert check_traceset(Q_THEN_EMPTY, f, cfg(use_cycle_detection=False)).status == status


# A Since over two coordinates weighs 2, so its Until keeps three periods:
# with a weight of 1 the library prints holds on all four, which the unroller
# and the reference of test_reference refute.  Checked as given only; some of
# them still disagree under re-presentation (ROADMAP item 1, family (a)).
@pytest.mark.parametrize("text,universe", [
    ("exists x. exists y. C{y} X[] X[] X[] X[] X[] X[] C{x} G[F q] C{x,y} O[] q_x",
     [lasso(AP, [{"q"}], [set(), set()]), lasso(AP, [set(), {"q"}], [set(), set()])]),
    ("exists x. forall y. C{y} X[] X[] X[] X[] X[] X[] C{x} G[] C{x,y} O[p] q_x",
     [lasso(AP, [{"q"}, set(), set(), set()], [set()])]),
    ("exists x. forall y. C{y} X[] X[] X[] C{x} G[F q] C{x,y} !H[] p_x",
     [lasso(AP, [set()], [{"p", "q"}]), lasso(AP, [], [{"p"}])]),
    ("forall x. forall y. C{y} X[] X[] X[] X[] X[] X[] X[] X[] C{x} G[p] C{x,y} !O[] p_y",
     [lasso(AP, [{"p"}], [set(), set()])]),
])
def test_a_lone_joint_since_keeps_three_periods(text, universe):
    f = parse_hyper(text, AP)
    assert ref_sentence(universe, f, 24) == "fails"
    assert check_traceset(universe, f, cfg(until_cutoff=60, use_cycle_detection=False)).is_fails
    assert check_traceset(universe, f).is_fails


# A Yesterday below a joint Since adds to its two units.  As given, the first
# sentence needs margin 4 and the second 5 (6 under re-presentation), so a
# Since that only lifts h to 2, ignoring the chain below it, closes too soon
# on both.  The first is checked as given only: its normalized form still
# disagrees (family (a)).
@pytest.mark.parametrize("text,universe", [
    ("forall x. forall y. C{y} X[] X[] X[] X[] X[] X[] X[] X[] X[] C{x} F[q] C{x,y} "
     "O[F q] Y[] q_y", [lasso(AP, [{"q"}], [set()] * 3), lasso(AP, [{"q"}], [set()] * 2)]),
    ("forall x. exists y. C{y} X[] X[] X[] X[] X[] X[] X[] X[] X[] C{x} F[] C{x,y} "
     "O[q] Y[] Y[] Y[q] q_y", [lasso(AP, [set(), {"q"}, set()], [set()])]),
])
def test_a_yesterday_below_a_joint_since_adds_to_its_weight(text, universe):
    f = parse_hyper(text, AP)
    assert ref_sentence(universe, f, 24) == "holds"
    assert check_traceset(universe, f, cfg(until_cutoff=60, use_cycle_detection=False)).is_holds
    assert check_traceset(universe, f).is_holds


@pytest.mark.xfail(strict=True, reason="an Until with a Since below still closes cycles on keys "
                                       "not known to be sound (ROADMAP item 1(a)); the unroller "
                                       "and the reference of test_reference say holds")
def test_since_below_an_until_over_desynchronized_coordinates():
    universe = [lasso(("q",), [], [set()]), Q_THEN_EMPTY[0]]
    f = parse_hyper("exists x. exists y. C{y} X[] X[] X[] X[] X[] (C{x} F[] (C{x,y} O[] q_y))",
                    ("q",))
    assert check_traceset(universe, f, cfg(use_cycle_detection=False)).is_holds
    assert check_traceset(universe, f).is_holds


# Family (b) of ROADMAP item 1, lockstep drift: F[p] and G[p] step both
# coordinates, y two positions per step and x one, so the offset that the
# joint O[] reads grows by one per step, while the Until's key repeats every
# two steps.
_FAMILY_B = pytest.mark.xfail(strict=True, reason="an Until with a joint Since below closes "
                                                  "cycles on keys that miss a growing offset "
                                                  "(ROADMAP item 1(b), lockstep drift)")
DRIFT_ROWS = [
    ("exists x. exists y. q_x & !p_x & p_y & F[p] O[] (q_x & q_y)", "holds"),
    ("forall x. forall y. (q_x & !p_x & p_y) -> G[p] !O[] (q_x & q_y)", "fails"),
]


@_FAMILY_B
@pytest.mark.parametrize("text,status", DRIFT_ROWS, ids=["drift-row", "drift-dual"])
def test_since_below_an_until_over_drifting_coordinates(text, status):
    f = parse_hyper(text, AP)
    assert check_traceset(DRIFT_UNIVERSE, f, cfg(until_cutoff=60,
                                                  use_cycle_detection=False)).status == status
    assert ref_sentence(DRIFT_UNIVERSE, f, 40) == status
    assert check_traceset(DRIFT_UNIVERSE, f).status == status


def _drift_case(rng):
    """Q x. Q y. (!p_x & p_y) &/-> F|G[p] P, with & under exists and -> under
    forall; P is O[] (q_x & q_y), H[] (!q_x | !q_y) or !q_v S[] (q_x & q_y),
    sometimes negated.  x is a p-free lasso with 1-2 q marks; y is made of
    blocks of b in {2, 3} letters with p and b without, a q-free prefix of
    1-6 blocks and a loop of one block with 1-2 q marks."""
    qx, qy = hy.Atom("q", "x"), hy.Atom("q", "y")
    kind = rng.choice("OHS")
    if kind == "O":
        past = hy.once(frozenset(), hy.h_and(qx, qy))
    elif kind == "H":
        past = hy.hist(frozenset(), hy.Or(hy.Not(qx), hy.Not(qy)))
    else:
        past = hy.Since(frozenset(), hy.Not(hy.Atom("q", rng.choice("xy"))), hy.h_and(qx, qy))
    if rng.random() < 0.3:
        past = hy.Not(past)
    walk = (hy.ev if rng.random() < 0.5 else hy.alw)(frozenset({pl.Atom("p")}), past)
    guard = hy.h_and(hy.Not(hy.Atom("p", "x")), hy.Atom("p", "y"))
    exists = rng.random() < 0.5
    f = hy.h_and(guard, walk) if exists else hy.Or(hy.Not(guard), walk)
    for v in "yx":
        f = (hy.Exists if exists else hy.Forall)(v, f)

    plen, llen = rng.randint(0, 3), rng.randint(1, 3)
    x = [set() for _ in range(plen + llen)]
    for _ in range(rng.randint(1, 2)):
        x[rng.randrange(plen + llen)].add("q")
    b = rng.choice((2, 3))
    block = [{"p"}] * b + [set()] * b
    loop = [set(s) for s in block]
    for _ in range(rng.randint(1, 2)):
        loop[rng.randrange(2 * b)].add("q")
    return f, [lasso(AP, x[:plen], x[plen:]), lasso(AP, block * rng.randint(1, 6), loop)]


@_FAMILY_B
def test_drift_corpus_vs_unroller():
    # seed 4: 8 of the 200 verdicts contradict the unroller before item 1(b)
    rng = random.Random(4)
    unroller = cfg(until_cutoff=60, use_cycle_detection=False)
    wrong = []
    for _ in range(200):
        f, universe = _drift_case(rng)
        got, want = check_traceset(universe, f), check_traceset(universe, f, unroller)
        if not got.is_unknown and not want.is_unknown and got.status != want.status:
            wrong.append((render_hyper(f), universe))
    assert not wrong, (len(wrong), wrong[:3])


def _y_chain_sentence(rng, scope, since=False):
    # F, G or U over chains of up to 8 Yesterday steps on jumping gammas,
    # joint contexts on the chain and C{v} X[]^m prefixes that set the
    # coordinates apart; with since, each chain is joined by & or | to a
    # C{v} O|H|S[g] over atoms of one variable v, sometimes negated and
    # sometimes under a Y (the draws without since are unchanged)
    def ctx(f):
        return hy.Context(frozenset(rng.sample(scope, rng.randint(1, len(scope)))), f)

    def chain():
        f = hy.Atom(rng.choice(AP), rng.choice(scope))
        for _ in range(rng.randint(0, 8)):
            f = hy.Yesterday(rng.choice(JUMPING_GAMMAS), f)
            if rng.random() < 0.25:
                f = ctx(f)
        if since:
            f = (hy.h_and if rng.random() < 0.5 else hy.Or)(f, lone_since())
        return f

    def lone_since():
        v, g, kind = rng.choice(scope), rng.choice(JUMPING_GAMMAS), rng.choice("OHS")
        a = hy.Atom(rng.choice(AP), v)
        f = hy.once(g, a) if kind == "O" else hy.hist(g, a) if kind == "H" \
            else hy.Since(g, hy.Atom(rng.choice(AP), v), a)
        if rng.random() < 0.3:
            f = hy.Not(f)
        if rng.random() < 0.3:
            f = hy.Yesterday(rng.choice(JUMPING_GAMMAS), f)
        return hy.Context(frozenset({v}), f)

    kind, gamma = rng.choice("FGU"), rng.choice(JUMPING_GAMMAS)
    f = hy.ev(gamma, chain()) if kind == "F" else hy.alw(gamma, chain()) if kind == "G" \
        else hy.Until(gamma, hy.Not(chain()), chain())
    if rng.random() < 0.5:
        f = ctx(f)
    for v in scope:
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 5)):
                f = hy.Next(frozenset(), f)
            f = hy.Context(frozenset({v}), f)
    for v in reversed(scope):
        f = (hy.Exists if rng.random() < 0.5 else hy.Forall)(v, f)
    return f


def _y_chain_corpus_vs_unroller(seed, since):
    rng, forms = random.Random(seed), random.Random(seed + 1)
    unroller = cfg(until_cutoff=60, use_cycle_detection=False)
    decided = 0
    for _ in range(600):
        scope = [f"v{j}" for j in range(rng.randint(1, 3))]
        universe = [gen_trace(rng, AP, 3, 3) for _ in range(rng.randint(1, 3))]
        f = _y_chain_sentence(rng, scope, since)
        got = check_traceset(universe, f)
        assert not got.is_unknown
        unrolled = check_traceset(universe, f, unroller)
        if not unrolled.is_unknown:
            decided += 1
            assert got == unrolled, (render_hyper(f), universe)
        if since:
            assert _disagreement(universe, f, forms) is None
    assert decided >= 400


def test_yesterday_chain_corpus_vs_unroller():
    _y_chain_corpus_vs_unroller(11, since=False)


def test_yesterday_chain_beside_a_since_corpus_vs_unroller():
    # a one-coordinate Since beside each chain, checked also under
    # re-presentation
    _y_chain_corpus_vs_unroller(12, since=True)


def test_fold_matches_the_separate_walks():
    from ghyltl.arith import gadget_formula

    def ref_free(n, memo):
        if id(n) not in memo:
            out = set().union(*(ref_free(c, memo) for c in hy.children(n)))
            if isinstance(n, hy.Atom):
                out.add(n.var)
            if isinstance(n, (hy.Exists, hy.Forall)):
                out.discard(n.var)
            memo[id(n)] = out
        return memo[id(n)]

    rng = random.Random(5150)
    corpus = [gen_sentence(rng, AP, rng.randint(1, 3), rng.randint(1, 5), stutter=True,
                           contexts=True, past=True) for _ in range(400)]
    corpus += [gadget_formula(rel, enc, strict) for rel in ("add", "mul")
               for enc in ("stutter", "context") for strict in (False, True)]
    for f in corpus:
        nodes, names, gammas, contexts = hy._facts(f)
        walk = hy.postorder(f)
        ref_names = set()
        for n in walk:
            if isinstance(n, (hy.Atom, hy.Exists, hy.Forall)):
                ref_names.add(n.var)
            elif isinstance(n, hy.Context):
                ref_names |= n.vars
        assert names == ref_names
        assert gammas == {th for n in walk if isinstance(n, (hy.Next, hy.Until, hy.Yesterday,
                                                             hy.Since)) for th in n.gamma}
        assert contexts == any(isinstance(n, hy.Context) for n in walk)
        memo = {}
        for n in walk:
            assert nodes[id(n)][0] == tuple(sorted(ref_free(n, memo)))


_COPY_TEXT = "forall x. exists y. C{x,y} F[p] (p_x & X[] q_y) | !(O[q] p_x & G[] (exists z. q_z))"


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copy_of_a_folded_formula_folds_itself(copier):
    # the fold names nodes by id, so a copy that kept its original's would
    # read ids of the original's nodes, dropped and reused below
    universe = [lasso(AP, [{"p"}], [{"q"}, set()]), lasso(AP, [], [{"p", "q"}])]
    queries = [hy.free_vars, hy.quantifier_shape, fragment_of,
               lambda g: check_traceset(universe, g)]
    f = parse_hyper(_COPY_TEXT, AP)
    folded = [query(f) for query in queries]
    copies = [copier(f) for _ in range(3)]
    del f
    garbage = [parse_hyper(_COPY_TEXT, AP) for _ in range(20)]
    gc.collect()
    fresh = parse_hyper(_COPY_TEXT, AP)
    want = [query(fresh) for query in queries]
    assert want == folded
    for g in copies:
        assert g == fresh
        assert [query(g) for query in queries] == want
    del garbage


# -- interned pointed traces --------------------------------------------------
#
# Memos and step maps are keyed by id(point), which is sound because the
# step-table owner hands out one point per (trace, position) and a run interns
# its assignment.  The calls below build new PointedTrace objects and drop
# them, so their ids are recycled: a key on a point the owner does not hold
# would give a later call another point's value.


def _interning_cases(rng):
    for _ in range(50):
        scope = [f"v{i}" for i in range(rng.randint(1, 3))]
        universe = [gen_trace(rng, AP, 3, 3) for _ in range(rng.randint(1, 3))]
        f = gen_matrix(rng, AP, scope, rng.randint(1, 4), stutter=True, contexts=True,
                       past=True)
        if rng.random() < 0.3:
            inner = gen_matrix(rng, AP, scope + ["w"], 2, stutter=True, contexts=True, past=True)
            f = hy.Or(f, (hy.Exists if rng.random() < 0.5 else hy.Forall)("w", inner))
        spots = [[(rng.randrange(len(universe)), rng.randint(0, 5)) for _ in scope]
                 for _ in range(40)]
        yield universe, scope, f, spots


def test_interned_assignments_vs_fresh_cache():
    rng = random.Random(9300)
    config = cfg(until_cutoff=40)
    cases = list(_interning_cases(rng))
    # the fresh-cache verdicts first, so that the shared calls run back to back
    want = [[evaluate(universe, {x: PointedTrace(universe[t], i) for x, (t, i) in zip(scope, s)},
                      scope, f, config) for s in spots]
            for universe, scope, f, spots in cases]
    shared = hy.EvalCache()
    calls = 0
    for (universe, scope, f, spots), verdicts in zip(cases, want):
        for s, verdict in zip(spots, verdicts):
            a = {x: PointedTrace(universe[t], i) for x, (t, i) in zip(scope, s)}
            assert evaluate(universe, a, scope, f, config, cache=shared) == verdict, \
                (render_hyper(f), universe, s)
            del a
            calls += 1
    assert calls >= 2000


# -- one memo per compiled closure --------------------------------------------


def _shared_node_cases(rng):
    """(sentence with one subformula object g at two places, the same sentence
    with a copy of g at the second): g under two assignment domains, or under
    two contexts over one domain."""
    p_y, q_x, q_y = hy.Atom("p", "y"), hy.Atom("q", "x"), hy.Atom("q", "y")
    xy = frozenset({"x", "y"})

    def two_domains(g, second, ctx=xy, outer=hy.Forall, inner=hy.Exists):
        return outer("x", hy.h_and(g, inner("y", hy.Context(ctx, hy.Or(second, p_y)))))

    def two_contexts(g, second, ctxs=(frozenset({"x"}), xy)):
        return hy.Exists("x", hy.Exists("y", hy.h_and(
            hy.Context(ctxs[0], g), hy.Not(hy.Context(ctxs[1], second)))))

    fixed = [hy.ev(E, q_x), hy.once(E, q_x), hy.Yesterday(E, q_x),
             hy.ev(E, hy.once(E, q_x))]
    for g in fixed:
        yield two_domains, g, {}
    both = hy.ev(E, hy.h_and(hy.Atom("p", "x"), q_y))
    yield two_contexts, both, {}
    yield two_contexts, hy.once(E, hy.Or(q_y, hy.Atom("p", "x"))), {}
    contexts = [frozenset({"x"}), frozenset({"y"}), xy]
    for _ in range(40):
        g = gen_matrix(rng, AP, ["x"], rng.randint(1, 3), stutter=True, contexts=True, past=True)
        yield two_domains, g, {"ctx": rng.choice(contexts),
                               "outer": rng.choice((hy.Exists, hy.Forall)),
                               "inner": rng.choice((hy.Exists, hy.Forall))}
        g = gen_matrix(rng, AP, ["x", "y"], rng.randint(1, 3), stutter=True, past=True)
        yield two_contexts, g, {"ctxs": rng.sample(contexts, 2)}


def test_a_node_shared_under_two_domains_or_contexts():
    # compile builds one closure per (node, context, domain), and each owns
    # its memo; a copy of the shared node gives the same verdicts
    rng = random.Random(2600)
    unroll = cfg(until_cutoff=40, use_cycle_detection=False)
    # x's p at 2 and y's q at 0 only: F[] (p_x & q_y) holds stepping x alone
    # and fails stepping both
    universes = [[lasso(AP, [set(), set(), {"p"}], [set()]), lasso(AP, [{"q"}], [set()])]]
    universes += [[gen_trace(rng, AP, 3, 3) for _ in range(rng.randint(1, 3))]
                  for _ in range(6)]
    for make, g, kw in _shared_node_cases(rng):
        shared_f = make(g, g, **kw)
        unshared = make(g, copy.deepcopy(g), **kw)
        cache = hy.EvalCache()
        for universe in universes:
            got = check_traceset(universe, shared_f, cache=cache)
            assert got == check_traceset(universe, unshared) == \
                check_traceset(universe, shared_f), (render_hyper(shared_f), universe)
            unrolled = check_traceset(universe, unshared, unroll)
            assert unrolled.is_unknown or unrolled == got, (render_hyper(shared_f), universe)


class _LetterAtZeroOnly(LassoTrace):
    """A lasso trace with a letter at position 0 and none after it."""

    def letter(self, pos):
        if pos:
            raise LookupError(pos)
        return frozenset()


@pytest.mark.parametrize("bad", ["not a trace", _LetterAtZeroOnly(frozenset(AP), (), ((),))],
                         ids=["raises-on-its-start", "raises-on-its-first-step"])
def test_a_run_that_raises_leaves_no_state(bad):
    # the raising run quantifies over only_p first: a start of it left behind
    # would make exists y. p_y hold over only_q, and so would a memo of that
    # quantifier, filled before bad raises
    f = parse_hyper("exists x. ((exists y. p_y) & F[] q_x)", AP)
    only_p, only_q = lasso(AP, [], [{"p"}]), lasso(AP, [], [{"q"}])
    cache = hy.EvalCache()
    with pytest.raises((TypeError, LookupError)):
        check_traceset([only_p, bad], f, cache=cache)
    for _ in range(2):
        assert check_traceset([only_q], f, cache=cache) == check_traceset([only_q], f) \
            == hy.FAILS
    assert check_traceset([only_p, only_q], f, cache=cache).is_holds


@pytest.mark.parametrize("call,message", [
    (lambda: hy.Context(frozenset(), pl.TRUE), "context sets must be nonempty"),
    (lambda: hy.h_all([]), "empty conjunction"),
    (lambda: hy.h_any([]), "empty disjunction"),
    (lambda: EvalConfig(until_cutoff=0), "until_cutoff must be >= 1"),
    (lambda: bounded_sat(parse_hyper("exists x. p_x", AP), 0, 1, 1, AP),
     "max_traces must be >= 1"),
    (lambda: check_traceset([lasso(AP, [], [set()])], parse_hyper("true", AP)),
     "mentions no trace variables"),
    (lambda: evaluate([], {}, {"x"}, parse_hyper("F[] p_x", AP)),
     r"free variables without bindings: \['x'\]"),
    (lambda: ghyltl.verify_gadget("add", 1, -1, 0, "stutter"), "must be nonnegative"),
    (lambda: ghyltl.pos_traces(-1), "bound must be nonnegative"),
    (lambda: PointedTrace(lasso(AP, [], [set()]), -1), "position must be nonnegative"),
    (lambda: TransitionSystem(frozenset(AP), (), frozenset(), frozenset(), {}),
     "needs at least one vertex"),
    (lambda: TransitionSystem(frozenset(AP), ("v",), {("v", "w")}, {"v"}, {"v": set()}),
     r"edge \(v,w\) mentions unknown vertex"),
    (lambda: TransitionSystem(frozenset(AP), ("v",), {("v", "v")}, {"w"}, {"v": set()}),
     "initial vertices must be vertices"),
    (lambda: TransitionSystem(frozenset(AP), ("v",), {("v", "v")}, {"v"}, {"v": {"r"}}),
     "label of v outside ap"),
], ids=["empty-context", "empty-h_all", "empty-h_any", "zero-cutoff", "zero-max-traces",
        "no-variables", "unbound-variable", "negative-gadget-argument", "negative-pos-bound",
        "negative-position", "no-vertex", "unknown-edge-end", "initial-not-a-vertex",
        "label-outside-ap"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class _Junk:
    """Not a trace, and nothing of one."""


def test_a_non_trace_is_refused_and_not_held():
    # the universe member is refused on first sight, before the step-table
    # owner holds it; an assignment value before the run starts
    f = parse_hyper("exists x. ((exists y. p_y) & F[] q_x)", AP)
    t = lasso(AP, [], [{"q"}])
    cache = hy.EvalCache()
    junk = _Junk()
    gone = weakref.ref(junk)
    try:
        check_traceset([t, junk], f, cache=cache)
    except TypeError as e:
        assert str(e).startswith("not a lasso trace: <")
    else:
        pytest.fail("a non-trace universe member was accepted")
    del junk
    gc.collect()
    assert gone() is None
    assert check_traceset([t], f, cache=cache) == check_traceset([t], f) == hy.FAILS
    with pytest.raises(TypeError, match="^assignment value of 'x' is not a pointed trace: 'junk'$"):
        evaluate([t], {"x": "junk"}, {"x"}, parse_hyper("F[] q_x", AP))
