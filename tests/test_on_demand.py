"""On-demand bodies: a memoized closure (a temporal step or walk, or a
quantifier) builds its body at its first memo miss (see semantics._memoized),
so a run builds only the closures it calls.

Every status must be the one of the eager rule, where each body is built
with its wrapper, `unknown` included: _eager patches that rule back in.
"""

import itertools
import random
import types
import weakref
from collections import Counter

import pytest

import ghyltl.stutter
from ghyltl import arith
from ghyltl import semantics as hy
from ghyltl.semantics import DEFAULT_CONFIG, check_traceset, parse_hyper, render_hyper
from ghyltl.traces import LassoTrace, enumerate_lassos, lasso, normalize
from ghyltl.transform import pos_traces, prenexify

from helpers import LEMMA1_AP, LEMMA1_SENTENCES, gen_gamma, gen_matrix, gen_trace, lemma1_models
from test_scoping import AP, CONFIGS, _block


def _head_memoized(raw, names, memo):
    """_memoized of the eager rule: raw is the built closure."""
    if len(names) == 1:
        (x,) = names

        def one(a):
            key = id(a[x])
            v = memo.get(key)
            if v is None:
                v = memo[key] = raw(a)
            return v
        return one

    def many(a):
        key = tuple([id(a[x]) for x in names])
        v = memo.get(key)
        if v is None:
            v = memo[key] = raw(a)
        return v
    return many


def _eager_memoized(make, names, memo):
    """_memoized under the eager rule: the body is built with its wrapper."""
    return _head_memoized(make(), names, memo)


def _both(monkeypatch, universe, f, config, caches=None):
    """(on-demand, eager) statuses of the sentence f; caches, when given, is
    a pair of EvalCaches shared with other calls, one per rule."""
    caches = caches or (hy.EvalCache(), hy.EvalCache())
    lazy = check_traceset(universe, f, config, cache=caches[0]).status
    with monkeypatch.context() as m:
        m.setattr(hy, "_memoized", _eager_memoized)
        eager = check_traceset(universe, f, config, cache=caches[1]).status
    return lazy, eager


def _program(cache, f, config=DEFAULT_CONFIG):
    return cache.program(f, config, cache.sentence_context(f), frozenset())


# -- the differential corpora --------------------------------------------------


@pytest.mark.parametrize("seed", [3200, 3201])
def test_on_demand_vs_the_eager_rule_on_scoped_blocks(monkeypatch, seed):
    # 500 sentences under three configs per seed, 3000 cases in all, over
    # universes of 0 to 3 traces
    rng = random.Random(seed)
    counts = Counter()
    for _ in range(500):
        f = _block(rng, [], 2)
        universe = [gen_trace(rng, AP, 2, 2) for _ in range(rng.randint(0, 3))]
        for config in CONFIGS:
            lazy, eager = _both(monkeypatch, universe, f, config)
            assert lazy == eager, (render_hyper(f), universe, config)
            counts[lazy] += 1
    assert sum(counts.values()) == 1500
    assert min(counts["holds"], counts["fails"]) >= 300 and counts["unknown"] >= 5, counts


def test_on_demand_vs_the_eager_rule_on_the_prenexified_lemma1_corpus(monkeypatch):
    counts = Counter()
    for text in LEMMA1_SENTENCES:
        f = prenexify(parse_hyper(text, LEMMA1_AP), LEMMA1_AP)
        for model, bound in itertools.product(lemma1_models(), (1, 3)):
            universe = list(model) + list(pos_traces(bound).traces)
            for config in CONFIGS:
                lazy, eager = _both(monkeypatch, universe, f, config)
                assert lazy == eager, (text, model, bound, config)
                counts[lazy] += 1
    assert min(counts.values()) >= 50 and len(counts) == 3, counts


def _sat_sentences(rng, n):
    p_v0 = hy.Atom("p", "v0")
    for i in range(n):
        scope = [f"v{k}" for k in range(1 + i % 3)]
        trap = hy.h_and(hy.ev(gen_gamma(rng, AP), p_v0),
                        hy.Context(frozenset({"v0"}), hy.alw(frozenset(), hy.Not(p_v0))))
        f = hy.h_and(gen_matrix(rng, AP, scope, 3, stutter=True, contexts=True, past=True), trap)
        for v in reversed(scope):
            f = rng.choice((hy.Exists, hy.Forall))(v, f)
        yield f


CANDIDATE_SETS = [list(s) for size in (1, 2) for s in itertools.combinations(
    sorted({normalize(t) for t in enumerate_lassos(AP, 1, 1)}, key=LassoTrace.sort_key), size)]


def test_on_demand_vs_the_eager_rule_on_sat_sweep_sentences(monkeypatch):
    # matrix & trap sentences as bounded_sat checks them: every candidate
    # set of up to two lassos, memos shared across the sets of one search
    counts = Counter()
    for f in _sat_sentences(random.Random(3202), 6):
        for config in CONFIGS:
            caches = (hy.EvalCache(), hy.EvalCache())
            for universe in CANDIDATE_SETS:
                lazy, eager = _both(monkeypatch, universe, f, config, caches)
                assert lazy == eager, (render_hyper(f), universe, config)
                counts[lazy] += 1
    assert counts["holds"] == 0 and counts["fails"] >= 1000, counts


# -- what a run builds -----------------------------------------------------------


def test_a_short_circuiting_run_builds_only_what_it_calls(monkeypatch):
    # p_x decides the Or where p holds at 0, so G[] F[] q_x is never walked
    # and its F[] never built
    f = parse_hyper("exists x. p_x | G[] F[] q_x", AP)
    sizes = []
    for universe in ([lasso(AP, [{"p"}], [{"q"}])], [lasso(AP, [set()], [{"q"}, set()])]):
        cache = hy.EvalCache()
        status = check_traceset(universe, f, cache=cache).status
        sizes.append(len(_program(cache, f).built))
        assert (status,) * 2 == _both(monkeypatch, universe, f, DEFAULT_CONFIG)
    assert sizes[0] < sizes[1]


def test_memos_made_during_a_run_are_cleared_when_it_ends(monkeypatch):
    # the X[] and the F[] over a quantifier are built during the first run,
    # inside x's binder; their memos must not carry the y range of one
    # candidate set into the next, which shares the traces and so the points
    sentences = ["forall x. X[] (exists y. p_y & q_x)", "exists x. F[] (forall y. p_y | q_x)",
                 "forall x. p_x | X[] (exists y. p_y & q_x)"]
    counts = Counter()
    for text in sentences:
        f = parse_hyper(text, AP)
        shared = hy.EvalCache()
        for universe in CANDIDATE_SETS:
            got = check_traceset(universe, f, cache=shared)
            assert got == check_traceset(universe, f, cache=hy.EvalCache()), (text, universe)
            counts[got.status] += 1
    assert min(counts["holds"], counts["fails"]) >= 20, counts


def test_a_step_wrapper_patched_after_the_build_sees_none_of_its_steps(monkeypatch):
    # the program reads the move functions once, when it is built; the
    # bodies built during the run use that copy
    f = parse_hyper("forall x. X[] F[] q_x", AP)
    universe = [lasso(AP, [set(), set()], [{"q"}, set()])]
    steps = []
    real = ghyltl.stutter.assign_succ

    def counting(*args):
        steps.append(1)
        return real(*args)

    cache = hy.EvalCache()
    _program(cache, f)
    monkeypatch.setattr(ghyltl.stutter, "assign_succ", counting)
    assert check_traceset(universe, f, cache=cache).is_holds
    assert steps == []
    assert check_traceset(universe, f).is_holds  # a program built after the patch
    assert steps


def test_a_run_that_raises_in_an_on_demand_build_leaves_the_program_usable(monkeypatch):
    f = parse_hyper("exists x. forall y. X[] (p_x | F[] (q_x & p_y))", AP)
    universes = [[lasso(AP, [set()], [{"q"}, {"p"}])],
                 [lasso(AP, [], [{"p", "q"}]), lasso(AP, [set()], [set()])]]
    cache = hy.EvalCache()
    real = hy._Program._build

    def failing(self, n, c, dom):
        if type(n) is hy.Until:
            raise RuntimeError("build failed")
        return real(self, n, c, dom)

    with monkeypatch.context() as m:
        m.setattr(hy._Program, "_build", failing)
        with pytest.raises(RuntimeError, match="build failed"):
            check_traceset(universes[0], f, cache=cache)
    for universe in universes * 2:
        assert check_traceset(universe, f, cache=cache) == \
            check_traceset(universe, f, cache=hy.EvalCache()), universe


def test_an_arithmetic_atom_no_run_reaches_is_refused_before_the_run(monkeypatch):
    # the X[] body is never built (p_x holds), yet its atom is refused
    runs = []
    monkeypatch.setattr(hy._Program, "run", lambda self, *args: runs.append(1))
    body = hy.h_and(hy.Atom("q", "x"), arith.Add("a", "b", "c"))
    f = hy.Forall("x", hy.Or(hy.Atom("p", "x"), hy.Next(frozenset(), body)))
    with pytest.raises(TypeError, match="not a hyper formula node"):
        check_traceset([lasso(AP, [], [{"p"}])], f)
    with pytest.raises(TypeError, match="not a hyper formula node"):
        hy.EvalCache().program(f, DEFAULT_CONFIG, frozenset({"x"}), frozenset())
    assert runs == []


# -- what closures hold ------------------------------------------------------------


def _reachable_programs(program):
    """_Program objects held strongly by the closures of program.built, or
    by anything those closures reach through their cells: functions, bound
    methods, tuples and lists.  A weak reference is not followed."""
    out, seen = [], set()
    stack = list(program.built.values())
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, hy._Program):
            out.append(x)
        elif isinstance(x, types.FunctionType):
            stack += [cell.cell_contents for cell in x.__closure__ or ()]
        elif isinstance(x, types.MethodType):
            stack += [x.__self__, x.__func__]
        elif isinstance(x, (tuple, list)):
            stack += x
    return out


def test_no_closure_holds_the_program():
    f = parse_hyper("forall x. exists y. C{x} (p_x U[] q_y) & G[p] O[] p_y "
                    "& (p_x | X[q] Y[] (exists z. q_z S[] p_x))", AP)
    universe = [lasso(AP, [], [{"p"}, set()]), lasso(AP, [{"q"}], [{"p", "q"}])]
    cache = hy.EvalCache()
    assert not check_traceset(universe, f, cache=cache).is_unknown
    program = _program(cache, f)
    assert len(program.built) >= 8
    assert _reachable_programs(program) == []
    cells = [c.cell_contents for fn in program.built.values() for c in fn.__closure__ or ()]
    assert any(isinstance(x, types.FunctionType) for x in cells)  # the walk goes somewhere


def test_program_with_unbuilt_bodies_freed_without_gc(monkeypatch):
    # p_x holds on every trace, so the X[] body is never built and its
    # builder, which reaches the program weakly, is still held
    import gc
    refs = []
    real = hy._Program

    def recording(*args):
        program = real(*args)
        refs.append(weakref.ref(program))
        return program

    monkeypatch.setattr(hy, "_Program", recording)
    f = parse_hyper("forall x. p_x | X[] F[] (q_x & (exists y. p_y U[] q_x))", AP)
    gc.disable()
    try:
        assert check_traceset([lasso(AP, [], [{"p"}])], f).is_holds
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
