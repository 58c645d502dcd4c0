"""Binder scoping: a quantifier block is compiled so that each binder ranges
only over the operands of its matrix that read it (see semantics._Program).

Every status must be the one of the rule before scoping, where each binder
ranges over its whole body, `unknown` included: the test-local
_unscoped_build patches that rule back in.
"""

import itertools
import random
import threading
from collections import Counter

import pytest

import ghyltl.stutter
from ghyltl import semantics as hy
from ghyltl.semantics import EvalConfig, check_traceset, parse_hyper, render_hyper
from ghyltl.traces import LassoTrace, enumerate_lassos, lasso, normalize
from ghyltl.transform import pos_traces, prenexify

from helpers import LEMMA1_AP, LEMMA1_SENTENCES, gen_gamma, gen_matrix, gen_trace, lemma1_models

AP = ("p", "q")
VARS = ("x", "y", "z", "w")
CONFIGS = [hy.DEFAULT_CONFIG, EvalConfig(until_cutoff=40, use_cycle_detection=False),
           EvalConfig(until_cutoff=6)]


def _unscoped_build(real):
    """_Program._build under the binder rule before scoping: each binder
    ranges over its whole body.  Every other node builds as real does."""
    def build(self, n, c, dom):
        if not isinstance(n, (hy.Exists, hy.Forall)):
            return real(self, n, c, dom)
        sub = self.compile(n.sub, c, dom | {n.var})
        return self._memo(n, dom, lambda: hy._quant(n.var, sub, self.starts,
                                                    int(isinstance(n, hy.Exists))))
    return build


def _both(monkeypatch, universe, f, config, caches=None):
    """(scoped, unscoped) statuses of the sentence f; caches, when given, is
    a pair of EvalCaches shared with other calls, one per rule."""
    caches = caches or (hy.EvalCache(), hy.EvalCache())
    scoped = check_traceset(universe, f, config, cache=caches[0]).status
    with monkeypatch.context() as m:
        m.setattr(hy._Program, "_build", _unscoped_build(hy._Program._build))
        unscoped = check_traceset(universe, f, config, cache=caches[1]).status
    return scoped, unscoped


def _block(rng, scope, depth):
    """A block of 1-3 binders of one kind (names may repeat and shadow) over
    the h_and or Or chain of 1-4 operands.  Each operand reads a random
    subset of the variables in scope, some only outer ones; some are nested
    blocks, some have past below, some sit under a context or Not(Not(.))."""
    kind = rng.choice((hy.Exists, hy.Forall))
    names = [rng.choice(VARS) for _ in range(rng.randint(1, 3))]
    inner = sorted(set(scope) | set(names))
    ops = []
    for _ in range(rng.randint(1, 4)):
        if depth and rng.random() < 0.3:
            op = _block(rng, inner, depth - 1)
        else:
            reads = rng.sample(inner, rng.randint(1, min(2, len(inner))))
            op = gen_matrix(rng, AP, reads, rng.randint(0, 2), stutter=True, contexts=True,
                            past=rng.random() < 0.3)
        if rng.random() < 0.2:
            op = hy.Context(frozenset(rng.sample(inner, rng.randint(1, len(inner)))), op)
        if rng.random() < 0.1:
            op = hy.Not(hy.Not(op))
        ops.append(op)
    matrix = (hy.h_all if rng.random() < 0.5 else hy.h_any)(ops)
    if rng.random() < 0.2:
        matrix = hy.Context(frozenset(rng.sample(inner, rng.randint(1, len(inner)))), matrix)
    for v in reversed(names):
        matrix = kind(v, matrix)
    return matrix


def _corpus(monkeypatch, seed, n):
    rng = random.Random(seed)
    counts = Counter()
    for _ in range(n):
        f = _block(rng, [], 2)
        universe = [gen_trace(rng, AP, 2, 2) for _ in range(rng.randint(0, 3))]
        for config in CONFIGS:
            scoped, unscoped = _both(monkeypatch, universe, f, config)
            assert scoped == unscoped, (render_hyper(f), universe, config)
            counts[scoped] += 1
    return counts


@pytest.mark.parametrize("seed", [2900, 2901])
def test_scoped_blocks_vs_the_unscoped_rule(monkeypatch, seed):
    # 500 sentences under three configs, over universes of 0 to 3 traces
    counts = _corpus(monkeypatch, seed, 500)
    assert sum(counts.values()) == 1500
    assert min(counts["holds"], counts["fails"]) >= 300 and counts["unknown"] >= 5, counts


def test_prenexified_lemma1_corpus_vs_the_unscoped_rule(monkeypatch):
    # the Lemma-1 output puts past guards that read only outer variables
    # under every hoisted binder
    for text in LEMMA1_SENTENCES:
        f = prenexify(parse_hyper(text, LEMMA1_AP), LEMMA1_AP)
        for model, bound in itertools.product(lemma1_models(), (1, 3)):
            universe = list(model) + list(pos_traces(bound).traces)
            for config in CONFIGS:
                scoped, unscoped = _both(monkeypatch, universe, f, config)
                assert scoped == unscoped, (text, model, bound, config)


def test_sat_sweep_sentences_over_candidate_sets_vs_the_unscoped_rule(monkeypatch):
    # matrix & trap sentences as bounded_sat checks them: every candidate
    # set of up to two lassos, memos shared across the sets of one search
    rng = random.Random(2902)
    candidates = sorted({normalize(t) for t in enumerate_lassos(AP, 1, 1)},
                        key=LassoTrace.sort_key)
    sets = [list(s) for size in (1, 2) for s in itertools.combinations(candidates, size)]
    counts = Counter()
    for i in range(6):
        scope = [f"v{k}" for k in range(1 + i % 3)]
        p_v0 = hy.Atom("p", "v0")
        trap = hy.h_and(hy.ev(gen_gamma(rng, AP), p_v0),
                        hy.Context(frozenset({"v0"}), hy.alw(frozenset(), hy.Not(p_v0))))
        f = hy.h_and(gen_matrix(rng, AP, scope, 3, stutter=True, contexts=True, past=True), trap)
        for v in reversed(scope):
            f = rng.choice((hy.Exists, hy.Forall))(v, f)
        for config in CONFIGS:
            caches = (hy.EvalCache(), hy.EvalCache())
            for universe in sets:
                scoped, unscoped = _both(monkeypatch, universe, f, config, caches)
                assert scoped == unscoped, (render_hyper(f), universe, config)
                counts[scoped] += 1
    assert counts["holds"] == 0 and counts["fails"] >= 1000, counts


@pytest.mark.parametrize("text,universe,status", [
    # a memo keyed on the block's own variables would let b's quantifier
    # answer for one position of a from another
    (prenexify(parse_hyper("forall a. p_a U[q] (forall b. q_b -> p_a)", AP), AP),
     [lasso(AP, [], [set(), {"p", "q"}])] + list(pos_traces(1).traces), "holds"),
    # Y[] reads y's definedness: placed by its free variables (none) it
    # would leave y's binder and step x alone
    ("exists x. C{x} X[] (exists y. C{x,y} Y[] true)", [lasso(AP, [], [set()])], "fails"),
    # over no traces a block answers as its kind does, before it evaluates
    # anything: a binder nothing reads does not go away there
    ("exists y. forall z. p_z", [], "fails"),
    ("forall y. exists z. p_z", [], "holds"),
], ids=["memo-key-names-outer-variables", "past-operand-keeps-its-binders",
        "empty-universe-exists", "empty-universe-forall"])
def test_the_scoping_rules_on_rows(monkeypatch, text, universe, status):
    # the status under the default config; the other configs agree with
    # the unscoped rule, whatever they give
    f = text if isinstance(text, hy.Hyper) else parse_hyper(text, AP)
    assert _both(monkeypatch, universe, f, hy.DEFAULT_CONFIG) == (status, status)
    for config in CONFIGS[1:]:
        scoped, unscoped = _both(monkeypatch, universe, f, config)
        assert scoped == unscoped, config


def test_an_operand_runs_before_the_binders_it_does_not_read(monkeypatch):
    # F[] q_x moves out of y's binder and runs first: it fails for every x,
    # so the walk of both coordinates never runs, where the unscoped rule
    # runs it first, for every pair
    walked = []
    real = ghyltl.stutter.assign_succ

    def counting(a, gamma, c, owner=None):
        walked.append(c)
        return real(a, gamma, c, owner)

    monkeypatch.setattr(ghyltl.stutter, "assign_succ", counting)
    universe = [lasso(AP, [set()], [{"p"}]), lasso(AP, [set(), set()], [{"p"}])]
    f = parse_hyper("exists x. exists y. F[] (p_x & p_y) & F[] q_x", AP)
    assert check_traceset(universe, f).is_fails
    assert walked and set(walked) == {("x",)}
    walked.clear()
    with monkeypatch.context() as m:
        m.setattr(hy._Program, "_build", _unscoped_build(hy._Program._build))
        assert check_traceset(universe, f).is_fails
    assert walked[0] == ("x", "y")


@pytest.mark.parametrize("shape", ["alternating", "alternating-two-inner", "one-kind"])
def test_nested_blocks_as_deep_as_the_unscoped_rule(shape):
    # 180 levels, each binder over an atom of the binder above (which
    # moves out) and the next level; the rule before scoping evaluates 197
    # of these levels at the default recursion limit on CPython 3.11
    n = 180
    f = hy.Atom("p", f"x{n}")
    for i in reversed(range(1, n + 1)):
        kind = hy.Exists if i % 2 or shape == "one-kind" else hy.Forall
        own = hy.h_and(hy.Atom("p", f"x{i}"), f) if shape == "alternating-two-inner" else f
        f = kind(f"x{i}", hy.h_and(hy.Atom("q", f"x{i - 1}"), own))
    f = hy.Exists("x0", f)
    out = []
    thread = threading.Thread(target=lambda: out.append(
        check_traceset([lasso(AP, [], [{"p", "q"}])], f).status))
    thread.start()
    thread.join()
    assert out == ["holds"]
