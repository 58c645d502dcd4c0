"""The pruned bounded_sat search (see semantics.bounded_sat): every search
tries the singletons first; when none holds, a forall-shaped sentence ends
there, and an exists-shaped one with at most max_traces binders runs once
over the set of all candidates before it tries larger sets.  Every set after
the first is one run of the cached program.

Every result must be the one of the unpruned search, which checks every
candidate set in order: _unpruned is a copy of it.  The cost rows count
_Program.run calls, not times.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from ghyltl import semantics as hy
from ghyltl.cli import main
from ghyltl.semantics import EvalConfig, bounded_sat, check_traceset, parse_hyper, \
    quantifier_shape, render_hyper
from ghyltl.traces import LassoTrace, enumerate_lassos, normalize

from helpers import gen_gamma, gen_matrix

AP = ("p", "q")
VARS = ("x", "y", "z")
CONFIGS = [hy.DEFAULT_CONFIG, EvalConfig(until_cutoff=4)]


def _unpruned(f, max_traces, max_prefix, max_loop, ap, cfg, statuses):
    """bounded_sat without pruning: every candidate set, by size, then
    lexicographic, each through check_traceset; statuses tallies them."""
    seen, candidates = set(), []
    for t in enumerate_lassos(ap, max_prefix, max_loop):
        n = normalize(t)
        if n not in seen:
            seen.add(n)
            candidates.append(n)
    candidates.sort(key=LassoTrace.sort_key)
    cache = hy.EvalCache()
    for size in range(1, max_traces + 1):
        for combo in itertools.combinations(candidates, size):
            verdict = check_traceset(list(combo), f, cfg, cache=cache)
            statuses[verdict.status] += 1
            if verdict.is_holds:
                return list(combo)
    return None


def _walk(rng, scope):
    """G[] (O[] m | !O[] m): it holds unless the walk hits the cutoff, and
    over a past body its cycle keys wait periods past the threshold."""
    m = gen_matrix(rng, AP, scope, 1, stutter=True, past=True)
    return hy.alw(frozenset(), hy.Or(hy.once(frozenset(), m), hy.Not(hy.once(frozenset(), m))))


def _body(rng, scope, depth, polarity, mode):
    """A formula over the bound variables scope with quantifiers under
    temporal operators, Not, contexts and past.  mode 'exists' or 'forall'
    picks each binder's kind so that, after the polarity of the Nots above
    it, it has that kind; 'mixed' picks kinds at random."""
    kind = rng.choice(["atom", "matrix", "not", "or", "and", "next", "until", "ev", "alw",
                       "ctx", "yesterday", "since", "quant", "quant", "walk"]) if depth else "atom"
    if kind == "atom":
        return hy.Atom(rng.choice(AP), rng.choice(scope))
    if kind == "walk":
        return _walk(rng, scope)
    if kind == "matrix":
        return gen_matrix(rng, AP, scope, rng.randint(0, 2), stutter=True, contexts=True,
                          past=True)
    if kind == "quant":
        v = rng.choice(VARS)  # may shadow
        cls = _kind(rng, mode)
        if not polarity:
            cls = hy.Forall if cls is hy.Exists else hy.Exists
        return cls(v, _body(rng, sorted({*scope, v}), depth - 1, polarity, mode))

    def sub(p=polarity):
        return _body(rng, scope, depth - 1, p, mode)

    gamma = gen_gamma(rng, AP) if rng.random() < 0.5 else frozenset()
    if kind == "not":
        return hy.Not(sub(not polarity))
    if kind == "or":
        return hy.Or(sub(), sub())
    if kind == "and":
        return hy.h_and(sub(), sub())
    if kind == "next":
        return hy.Next(gamma, sub())
    if kind == "until":
        return hy.Until(gamma, sub(), sub())
    if kind == "ev":
        return hy.ev(gamma, sub())
    if kind == "alw":
        return hy.alw(gamma, sub())
    if kind == "ctx":
        return hy.Context(frozenset(rng.sample(scope, rng.randint(1, len(scope)))), sub())
    if kind == "yesterday":
        return hy.Yesterday(gamma, sub())
    return hy.Since(gamma, sub(), sub())


def _kind(rng, mode):
    if mode == "mixed":
        return rng.choice((hy.Exists, hy.Forall))
    return hy.Exists if mode == "exists" else hy.Forall


def _sentence(rng, mode):
    """A prefix of one or two binders over a body, which may be joined to a
    _walk so that unknowns occur under a low cutoff.  A third of them conjoin
    F[g] p_v (or F[g] O[] p_v) & C{v} G[] !p_v, true under no assignment,
    so they are unsatisfiable and the search runs to the end, through
    unknowns under a low cutoff.  A quarter are wrapped in
    !!, or written as !(Q v. !body) with Q the dual of the binder's kind.
    One in four is instead a conjunction of two or three sentences of one
    binder each; an existential one fixes p at its origin, so the first
    model often needs a trace per sign."""
    if rng.random() < 0.25:
        parts = []
        for v in rng.sample(VARS, rng.randint(2, 3)):
            cls = _kind(rng, mode)
            matrix = gen_matrix(rng, AP, [v], rng.randint(0, 2), stutter=True, contexts=True,
                                past=True)
            if cls is hy.Exists:
                p_v = hy.Atom("p", v)
                matrix = hy.h_and(rng.choice((p_v, hy.Not(p_v))), matrix)
            parts.append(cls(v, matrix))
        return hy.h_all(parts)
    names = rng.sample(VARS, rng.randint(1, 2))
    body = _body(rng, names, 3, True, mode)
    if rng.random() < 0.3:
        body = hy.Or(_walk(rng, names), body)
    if rng.random() < 1 / 3:
        v, p_v = names[0], hy.Atom("p", names[0])
        seen = rng.choice((p_v, hy.once(frozenset(), p_v)))
        trap = hy.h_and(hy.ev(gen_gamma(rng, AP), seen),
                        hy.Context(frozenset({v}), hy.alw(frozenset(), hy.Not(p_v))))
        body = hy.h_and(body, trap)
    for v in reversed(names):
        cls = _kind(rng, mode)
        if rng.random() < 0.25:
            dual = hy.Forall if cls is hy.Exists else hy.Exists
            body = hy.Not(dual(v, hy.Not(body)))
        else:
            body = cls(v, body)
    return hy.Not(hy.Not(body)) if rng.random() < 0.25 else body


@pytest.mark.parametrize("seed", [3300, 3301])
def test_pruned_search_vs_the_unpruned_one(seed):
    # 400 sentences per seed, a third of each shape, each searched under
    # two configs: 1600 searches over both seeds, unknowns included
    rng = random.Random(seed)
    results, unknowns = Counter(), 0
    for i in range(400):
        shape = ("exists", "forall", "mixed")[i % 3]
        f = _sentence(rng, shape)
        while quantifier_shape(f) != shape:
            f = _sentence(rng, shape)
        max_traces = rng.choice((1, 2, 2))
        for cfg in CONFIGS:
            statuses = Counter()
            want = _unpruned(f, max_traces, 1, 1, AP, cfg, statuses)
            unknowns += statuses["unknown"] > 0
            got = bounded_sat(f, max_traces, 1, 1, AP, cfg)
            assert got == want, (render_hyper(f), max_traces, cfg)
            results[shape, 0 if got is None else len(got)] += 1
    # searches that met an unknown set; no model and one-trace models of
    # every shape, and two-trace models, where no singleton holds
    assert unknowns >= 30, unknowns
    assert min(results[s, n] for s in ("exists", "forall", "mixed") for n in (0, 1)) >= 10, \
        results
    assert min(results["exists", 2], results["mixed", 2]) >= 2, results


@pytest.mark.parametrize("text,model", [
    # exists-shaped through negation polarity, and needs two traces
    ("!(forall x. !p_x) & !(forall y. p_y)", 2),
    # forall-shaped through negation polarity: the singleton of no p
    ("!(exists x. p_x)", 1),
    # mixed, and needs two traces
    ("(exists x. p_x) & (exists y. !p_y) & (forall z. p_z | !p_z)", 2),
    # exists-shaped with quantifiers under F[] and !
    ("exists x. F[] !(forall y. X[] (p_y -> q_x))", 1),
])
def test_pruned_search_finds_the_first_model(text, model):
    f = parse_hyper(text, AP)
    for cfg in CONFIGS:
        want = _unpruned(f, 2, 1, 1, AP, cfg, Counter())
        assert want is not None and len(want) == model
        assert bounded_sat(f, 2, 1, 1, AP, cfg) == want


# -- cost rows: _Program.run calls, and the layers a search reaches ---------------


@pytest.fixture
def runs(monkeypatch):
    """The universe size of every _Program.run call."""
    sizes = []
    real = hy._Program.run

    def counting(self, universe, a):
        universe = list(universe)
        sizes.append(len(universe))
        return real(self, universe, a)

    monkeypatch.setattr(hy._Program, "run", counting)
    return sizes


THREE_EXISTS = ("exists x. exists y. exists z. G[] (p_x <-> p_y) & G[] (p_y <-> p_z) "
                "& F[] (p_x & !p_z)")


def _sat(tmp_path, capsys, text, *options):
    path = tmp_path / "f.ghyltl"
    path.write_text(text, encoding="utf-8")
    code = main(["sat", str(path), *options])
    return code, capsys.readouterr().out


def test_three_binders_over_one_trace_do_no_full_check(tmp_path, capsys, runs):
    # 3 binders > --max-traces 1: the check over all candidates would try
    # up to N**3 assignments, the search only N
    code, out = _sat(tmp_path, capsys, "ap: p\n" + THREE_EXISTS, "--max-traces", "1")
    assert code == 2 and "reason: sat-bound(max_traces=1,max_prefix=3,max_loop=2)" in out
    n = len({normalize(t) for t in enumerate_lassos(("p",), 3, 2)})
    assert runs == [1] * n


def test_three_binders_over_two_traces_do_no_full_check(runs):
    # 3 binders > max_traces 2: the singletons, then every pair
    f = parse_hyper(THREE_EXISTS, ("p",))
    assert bounded_sat(f, 2, 1, 1, ("p",)) is None
    n = len({normalize(t) for t in enumerate_lassos(("p",), 1, 1)})
    assert runs == [1] * n + [2] * math.comb(n, 2)


def test_three_binders_within_max_traces_do_one_full_check(runs):
    # no singleton holds, and neither does the set of all candidates
    f = parse_hyper(THREE_EXISTS, ("p",))
    assert bounded_sat(f, 3, 1, 1, ("p",)) is None
    n = len({normalize(t) for t in enumerate_lassos(("p",), 1, 1)})
    assert runs == [1] * n + [n]


def _checks(f, max_traces):
    """The unpruned search's model and its number of checks."""
    statuses = Counter()
    model = _unpruned(f, max_traces, 1, 1, AP, hy.DEFAULT_CONFIG, statuses)
    return model, sum(statuses.values())


def test_satisfiable_exists_with_a_one_trace_model_runs_no_full_check(runs):
    # as many runs as the unpruned search makes checks, each over one trace
    f = parse_hyper("exists x. q_x & !p_x & X[] p_x", AP)
    model, checks = _checks(f, 2)
    assert len(model) == 1 and checks > 1
    runs.clear()
    assert bounded_sat(f, 2, 1, 1, AP) == model
    assert runs == [1] * checks


def test_satisfiable_exists_with_a_two_trace_model_runs_one_full_check(runs):
    # one run over all n candidates more than the unpruned search's checks
    f = parse_hyper("(exists x. p_x & X[] q_x) & (exists y. !p_y)", AP)
    model, checks = _checks(f, 2)
    n = len({normalize(t) for t in enumerate_lassos(AP, 1, 1)})
    assert len(model) == 2 and checks > n + 1
    runs.clear()
    assert bounded_sat(f, 2, 1, 1, AP) == model
    assert runs == [1] * n + [n] + [2] * (checks - n)


def test_forall_contradiction_runs_once_per_candidate(tmp_path, capsys, runs):
    code, out = _sat(tmp_path, capsys, "ap: p, q\nforall x. p_x & !p_x")
    assert code == 2 and "reason: sat-bound(max_traces=3,max_prefix=3,max_loop=2)" in out
    assert runs == [1] * 1024


@pytest.mark.parametrize("text", [
    "exists x. p_x & !p_x", "forall x. p_x & !p_x", THREE_EXISTS,
    "(exists x. p_x & !p_x) & (forall y. p_y)",
])
def test_a_search_reaches_every_traced_layer(monkeypatch, text):
    # a per-layer tracer wraps these functions where the search looks them up
    calls = Counter()
    for name in ("check_traceset", "evaluate", "enumerate_lassos", "normalize"):
        def counting(*args, _name=name, _real=getattr(hy, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(hy, name, counting)
    assert bounded_sat(parse_hyper(text, AP), 2, 1, 1, AP) is None
    assert calls["check_traceset"] == calls["evaluate"] == calls["enumerate_lassos"] == 1
    assert calls["normalize"] == len(enumerate_lassos(AP, 1, 1))
