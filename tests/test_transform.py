import random

import pytest

from ghyltl import semantics as hy
from ghyltl.pltl import parse_pltl
from ghyltl.semantics import check_traceset, evaluate, parse_hyper
from ghyltl.stutter import assign_pred
from ghyltl.traces import PointedTrace, lasso
from ghyltl.transform import (AT_ORIGIN, MARK, alpha_unique, hoist_prenex, pos_shape,
                              pos_traces, prenexify, purity)

from helpers import (CONTEXT_CAPTURE_SENTENCES, LEMMA1_AP, LEMMA1_SENTENCES, gen_sentence,
                     gen_trace, lemma1_models, stable_pos_verdict)


def test_pos_traces_shapes():
    fam = pos_traces(2)
    assert fam.bound == 2 and len(fam.traces) == 3
    for i, t in enumerate(fam.traces):
        assert len(t.prefix) == i + 1 and t.loop == (frozenset(),)
        assert t.letter(i) == {MARK}
    fam0 = pos_traces(0)
    assert fam0.traces[0].letter(0) == {MARK}


def test_pos_traces_satisfy_singleton_shape():
    from ghyltl.pltl import pltl_eval
    shape = parse_pltl("(!hash) U (hash & X G !hash)", {MARK})
    for t in pos_traces(4).traces:
        assert pltl_eval(t, 0, shape)


def test_pos_shape_over_the_marker_alone():
    # with ap = {mark} there is nothing for the purity conjunct to exclude
    f = hy.Forall("x", pos_shape("x", MARK, {MARK}))
    assert hy.h_and(purity("x", MARK, {MARK, "p"}), f.sub) == pos_shape("x", MARK, {MARK, "p"})
    assert check_traceset(list(pos_traces(3).traces), f).is_holds
    twice = lasso({MARK}, [{MARK}, set()], [{MARK}])
    assert check_traceset([twice], f).is_fails


def test_origin_marker():
    t = lasso(("p",), [{"p"}], [set()])
    assert evaluate([t], {"x": PointedTrace(t, 0)}, {"x"}, AT_ORIGIN).is_holds
    assert evaluate([t], {"x": PointedTrace(t, 3)}, {"x"}, AT_ORIGIN).is_fails


def test_origin_marker_reached_by_pred_iteration():
    for i in range(4):
        t = pos_traces(4).traces[i]
        a = {"x": PointedTrace(t, i)}
        steps = 0
        while not evaluate([t], a, {"x"}, AT_ORIGIN).is_holds:
            a = assign_pred(a, frozenset(), {"x"})
            steps += 1
        assert steps == i


def test_identity_on_prenex():
    f = parse_hyper("forall x. exists y. G[] (p_x <-> p_y)", LEMMA1_AP)
    assert prenexify(f, LEMMA1_AP) is f


def test_rejects_open_formulas_and_reserved_mark():
    with pytest.raises(ValueError):
        prenexify(parse_hyper("p_x", LEMMA1_AP), LEMMA1_AP)
    with pytest.raises(ValueError, match=r"^not a sentence; free variables \['x', 'y'\]$"):
        prenexify(parse_hyper("p_y & F[] (exists a. q_x)", LEMMA1_AP), LEMMA1_AP)
    f = parse_hyper("exists a. F[] (exists b. hash_b)", {"hash"})
    with pytest.raises(ValueError):
        prenexify(f, {"hash"})


def test_output_prenex_and_fresh():
    for text in LEMMA1_SENTENCES:
        f = parse_hyper(text, LEMMA1_AP)
        fp = prenexify(f, LEMMA1_AP)
        assert hy.is_prenex(fp)
        prefix, matrix = hy.strip_prefix(fp)
        bound = {v for _, v in prefix}
        assert hy.all_vars(f) <= bound | hy.all_vars(matrix)
        fresh = bound - hy.all_vars(f)
        assert all(v.startswith("pv") for v in fresh)


def test_extraction_pattern_shape():
    # the schematic rewrite: a quantifier under an always becomes a walk to
    # the marked position inside an extended context
    f = parse_hyper("exists x. G[p] (exists b. (p_x <-> p_b))", LEMMA1_AP)
    fp = prenexify(f, LEMMA1_AP)
    text = hy.render_hyper(fp)
    assert "F[p] (hash_pv0" in text or "F[p] (hash_pv" in text
    assert "C{" in text


def test_lemma1_corpus_equivalence():
    models = lemma1_models()
    for text in LEMMA1_SENTENCES:
        f = parse_hyper(text, LEMMA1_AP)
        fp = prenexify(f, LEMMA1_AP)
        for L in models:
            want = check_traceset(L, f)
            got = stable_pos_verdict(L, fp, 8)
            assert not want.is_unknown
            assert got.status == want.status, (text, L)


def test_random_differential_equivalence():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        f = gen_sentence(rng, LEMMA1_AP, rng.randint(1, 2), rng.randint(2, 4),
                         stutter=True, contexts=True, past=True)
        # push a quantifier inside: wrap the matrix quantifier under an op when
        # the generator produced a prenex sentence
        if hy.is_prenex(f):
            prefix, matrix = hy.strip_prefix(f)
            if not prefix:
                continue
            kind, var = prefix[-1]
            inner = (hy.Exists if kind == "exists" else hy.Forall)(var, matrix)
            f = hy.ev(frozenset(), inner)
            for k, v in reversed(prefix[:-1]):
                f = (hy.Exists if k == "exists" else hy.Forall)(v, f)
            if hy.free_vars(f):
                continue
        fp = prenexify(f, LEMMA1_AP)
        L = [gen_trace(rng, LEMMA1_AP, 3, 2) for _ in range(rng.randint(1, 2))]
        want = check_traceset(L, f)
        got = check_traceset(list(L) + list(pos_traces(8).traces), fp)
        if want.is_unknown or got.is_unknown:
            continue
        checked += 1
        assert got.status == want.status, hy.render_hyper(f)


def test_alpha_unique_renames_rebinding():
    f = parse_hyper("exists a. (p_a & (exists a. q_a))", LEMMA1_AP)
    g = alpha_unique(f)
    prefix_vars = []

    def collect(n):
        if isinstance(n, (hy.Exists, hy.Forall)):
            prefix_vars.append(n.var)
        for c in hy.children(n):
            collect(c)

    collect(g)
    assert prefix_vars == ["a", "a0"]  # the repeated binder takes a fresh_names name


def test_hoist_prenex_boolean_only():
    f = parse_hyper("(exists a. p_a) | !(exists b. q_b)", LEMMA1_AP)
    g = hoist_prenex(f)
    assert hy.is_prenex(g)
    prefix, _ = hy.strip_prefix(g)
    assert [k for k, _ in prefix] == ["exists", "forall"]
    L = [lasso(LEMMA1_AP, [], [{"p"}])]
    assert check_traceset(L, f).status == check_traceset(L, g).status
    # a quantifier under a context under a boolean still hoists
    f = parse_hyper("(exists a. p_a) | !C{a} (exists b. q_b)", LEMMA1_AP)
    g = hoist_prenex(f)
    assert hy.is_prenex(g)
    prefix, _ = hy.strip_prefix(g)
    assert [k for k, _ in prefix] == ["exists", "forall"]
    for L in ([lasso(LEMMA1_AP, [], [{"q"}])], [lasso(LEMMA1_AP, [], [set()])],
              [lasso(LEMMA1_AP, [], [{"p"}]), lasso(LEMMA1_AP, [], [{"q"}])]):
        assert check_traceset(L, f).status == check_traceset(L, g).status


def test_hoist_prenex_rejects_temporal_nesting():
    # the second has a context between the temporal operator and the quantifier
    for text in ("exists a. F[] (exists b. p_b)", "exists a. F[] C{a} (exists b. p_b)"):
        with pytest.raises(ValueError):
            hoist_prenex(parse_hyper(text, LEMMA1_AP))


def test_hoist_prenex_preserves_verdicts_random():
    rng = random.Random(5)
    for _ in range(60):
        # boolean combinations of small prenex sentences
        f1 = gen_sentence(rng, LEMMA1_AP, 1, 2)
        f2 = gen_sentence(rng, LEMMA1_AP, 1, 2)
        f = hy.Or(hy.Not(f1), f2)
        g = hoist_prenex(f)
        assert hy.is_prenex(g)
        L = [gen_trace(rng, LEMMA1_AP, 2, 2) for _ in range(rng.randint(1, 2))]
        assert check_traceset(L, f).status == check_traceset(L, g).status


def test_hoist_prenex_preserves_verdicts_with_contexts():
    rng = random.Random(18)
    for _ in range(600):
        f1, f2 = (gen_sentence(rng, LEMMA1_AP, rng.randint(1, 2), rng.randint(1, 3),
                               stutter=True, contexts=True, past=True) for _ in range(2))
        f = hy.Or(hy.Not(f1), f2)
        g = hoist_prenex(f)
        assert hy.is_prenex(g)
        L = [gen_trace(rng, LEMMA1_AP, 2, 2) for _ in range(rng.randint(1, 2))]
        assert check_traceset(L, f) == check_traceset(L, g), hy.render_hyper(f)


_TEMPORAL = ("X[]", "F[]", "G[]", "Y[]", "O[]", "H[]", "F[p]", "G[q]")


def _context_matrix(rng, depth):
    """Text of a matrix over a and b with contexts C{a}, C{b}, C{a,b}."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return f"{rng.choice('pq')}_{rng.choice('ab')}"
    if r < 0.4:
        op = rng.choice("&|")
        return f"({_context_matrix(rng, depth - 1)} {op} {_context_matrix(rng, depth - 1)})"
    if r < 0.5:
        return f"!({_context_matrix(rng, depth - 1)})"
    if r < 0.7:
        return f"C{{{rng.choice(['a', 'b', 'a,b'])}}} ({_context_matrix(rng, depth - 1)})"
    return f"{rng.choice(_TEMPORAL)} ({_context_matrix(rng, depth - 1)})"


def test_prenexify_preserves_verdicts_with_contexts():
    rng = random.Random(18)
    positions = list(pos_traces(8).traces)
    for _ in range(400):
        q1, q2 = (rng.choice(["exists", "forall"]) for _ in range(2))
        ctx = rng.choice(["", "C{a} "])
        text = f"{q1} a. {ctx}{rng.choice(_TEMPORAL)} ({q2} b. {_context_matrix(rng, 2)})"
        f = parse_hyper(text, LEMMA1_AP)
        fp = prenexify(f, LEMMA1_AP)
        L = [gen_trace(rng, LEMMA1_AP, 2, 2) for _ in range(rng.randint(1, 2))]
        assert check_traceset(L, f) == check_traceset(L + positions, fp), text


def test_prenexify_steps_a_renamed_binder():
    # the inner a is renamed a0, which the top context must step as it
    # stepped the inner a
    rng = random.Random(7)
    positions = list(pos_traces(8).traces)
    for _ in range(60):
        q1, q2 = (rng.choice(["exists", "forall"]) for _ in range(2))
        t1, t2 = (rng.choice(_TEMPORAL) for _ in range(2))
        text = f"{q1} a. {t1} ({q2} a. {t2} ({rng.choice('pq')}_a))"
        f = parse_hyper(text, LEMMA1_AP)
        fp = prenexify(f, LEMMA1_AP)
        L = [gen_trace(rng, LEMMA1_AP, 2, 2) for _ in range(rng.randint(1, 2))]
        assert check_traceset(L, f) == check_traceset(L + positions, fp), text


@pytest.mark.parametrize("text", CONTEXT_CAPTURE_SENTENCES)
def test_transforms_refuse_a_context_outside_its_binder(text):
    f = parse_hyper(text, LEMMA1_AP)
    for transform in (alpha_unique, hoist_prenex, lambda g: prenexify(g, LEMMA1_AP)):
        with pytest.raises(ValueError, match="^context set names bound variable"):
            transform(f)


# Rows where the operand matrix must be read under C{ctx & scope}: read
# under the walk's own context, its past operators step the position
# variable too, and each row flips from holds to fails.
_MATRIX_CONTEXT_ROWS = [
    ("exists a. H[] F[] Y[] (Y[] Y[] p_a & (exists b. (p_b | q_a)))",
     [([{"p"}, set()], [{"q"}, {"q"}]), ([set()], [{"p", "q"}])]),
    ("forall a. F[] Y[q] (Y[] Y[] p_a & (forall b. p_b))",
     [([{"p", "q"}, {"q"}, {"q"}], [{"q"}, {"q"}])]),
    ("exists a. X[p] O[] (Y[] q_a & (forall b. q_b))",
     [([{"p", "q"}, {"q"}, {"p", "q"}], [{"p"}, set()]), ([{"q"}], [{"p", "q"}, {"q"}])]),
]


@pytest.mark.parametrize("text,words", _MATRIX_CONTEXT_ROWS, ids=["H-F-Y", "F-Yq", "Xp-O"])
def test_prenexify_reads_the_matrix_in_its_original_context(text, words):
    f = parse_hyper(text, LEMMA1_AP)
    L = [lasso(LEMMA1_AP, prefix, loop) for prefix, loop in words]
    assert check_traceset(L, f).is_holds
    assert check_traceset(L, f, hy.EvalConfig(use_cycle_detection=False)).is_holds
    assert check_traceset(L + list(pos_traces(8).traces), prenexify(f, LEMMA1_AP)).is_holds


def _past_over_a(rng):
    atom = f"{rng.choice('pq')}_a"
    return rng.choice([f"Y[] {atom}", f"Y[] Y[] {atom}", f"O[] {atom}", f"H[] {atom}",
                       f"({rng.choice('pq')}_a S[] {atom})"])


def test_prenexify_matrix_context_random():
    # q1 a. [C{a}] T ... T (PAST & (q2 b. M)): the past conjunct and M's
    # temporal operators are read where the last T put them
    rng = random.Random(5)
    positions = list(pos_traces(8).traces)
    for _ in range(400):
        q1, q2 = (rng.choice(["exists", "forall"]) for _ in range(2))
        ops = " ".join(f"{rng.choice('XYFGOH')}[{rng.choice(['', 'p', 'q'])}]"
                       for _ in range(rng.randint(1, 3)))
        m = rng.choice(["p_b", "q_b", "(p_b | q_a)", "F[] (p_b & q_a)"])
        ctx = rng.choice(["", "C{a} "])
        text = f"{q1} a. {ctx}{ops} ({_past_over_a(rng)} & ({q2} b. {m}))"
        f = parse_hyper(text, LEMMA1_AP)
        L = [gen_trace(rng, LEMMA1_AP, 3, 2) for _ in range(rng.randint(1, 2))]
        assert check_traceset(L, f) == check_traceset(L + positions, prenexify(f, LEMMA1_AP)), \
            (text, L)
