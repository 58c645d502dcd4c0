import random

import pytest

from ghyltl import pltl as pl
from ghyltl.pltl import (ParseError, parse_pltl, pltl_eval, render_pltl,
                         valuation_profile)
from ghyltl.traces import lasso, spike_trace

from helpers import brute_pltl_horizon, brute_pltl_table, depth, gen_pltl, gen_trace

AP = ("a", "b")


def test_singleton_shape_formula():
    # empty^3 {#} empty^w encodes a singleton set
    t = spike_trace((), "hash", 3)
    f = parse_pltl("(!hash) U (hash & X G !hash)", {"hash"})
    assert pltl_eval(t, 0, f)
    two_marks = lasso({"hash"}, [set(), {"hash"}, {"hash"}], [set()])
    assert not pltl_eval(two_marks, 0, f)


def test_yesterday_false_at_origin():
    rng = random.Random(0)
    for _ in range(20):
        t = gen_trace(rng, AP, 3, 3)
        assert not pltl_eval(t, 0, pl.Yesterday(pl.TRUE))


def test_since_chain_broken():
    t = lasso({"p"}, [], [{"p"}, set()])
    f = parse_pltl("p S (p & !Y true)", {"p"})
    assert pltl_eval(t, 0, f)
    assert not pltl_eval(t, 4, f)


def test_profile_atom():
    t = lasso({"p"}, [], [{"p"}, set()])
    prof = valuation_profile(t, pl.Atom("p"))
    assert prof.threshold == 0 and prof.period == 2
    assert prof.bits == (True, False)


def test_profile_always_not_mark():
    t = spike_trace((), "hash", 3)
    prof = valuation_profile(t, pl.always(pl.Not(pl.Atom("hash"))))
    assert [prof.value(i) for i in range(6)] == [False, False, False, False, True, True]


def test_profile_once_mark():
    t = spike_trace((), "hash", 3)
    prof = valuation_profile(t, pl.once(pl.Atom("hash")))
    assert [prof.value(i) for i in range(6)] == [False, False, False, True, True, True]


def test_profile_soundness_random():
    rng = random.Random(42)
    for _ in range(300):
        t = gen_trace(rng, AP, 4, 3)
        f = gen_pltl(rng, AP, rng.randint(0, 4))
        prof = valuation_profile(t, f)
        for i in range(prof.threshold + 3 * prof.period + 1):
            assert prof.value(i) == pltl_eval(t, i, f)


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    for _ in range(400):
        t = gen_trace(rng, AP, 6, 4)
        f = gen_pltl(rng, AP, rng.randint(0, 4))
        table = brute_pltl_table(t, f)
        for i in range(brute_pltl_horizon(t, f)):
            assert pltl_eval(t, i, f) == table[i], (t, render_pltl(f), i)


def test_until_release_duality():
    rng = random.Random(77)
    for _ in range(150):
        t = gen_trace(rng, AP, 6, 4)
        f = gen_pltl(rng, AP, 2)
        g = gen_pltl(rng, AP, 2)
        lhs = pl.Not(pl.Until(f, g))
        # release dual: !(f U g) == (!g) weak-until stays: !g U (!f & !g) | G !g
        alw_ng = pl.always(pl.Not(g))
        rhs = pl.Or(pl.Until(pl.Not(g), pl.p_and(pl.Not(f), pl.Not(g))), alw_ng)
        for i in range(12):
            assert pltl_eval(t, i, lhs) == pltl_eval(t, i, rhs)


def test_eval_on_disjoint_alphabet():
    # evaluation must tolerate formulas over propositions the trace never uses
    t = lasso({"p"}, [], [{"p"}])
    assert not pltl_eval(t, 0, pl.Atom("q"))
    assert pltl_eval(t, 3, pl.always(pl.Not(pl.Atom("q"))))


def test_parse_precedence_and_sugar():
    ap = {"a", "b", "c"}
    f = parse_pltl("a U b & c", ap)
    assert f == pl.p_and(pl.Until(pl.Atom("a"), pl.Atom("b")), pl.Atom("c"))
    f = parse_pltl("!a U b", ap)
    assert f == pl.Until(pl.Not(pl.Atom("a")), pl.Atom("b"))
    f = parse_pltl("a -> b -> c", ap)
    assert f == pl.p_implies(pl.Atom("a"), pl.p_implies(pl.Atom("b"), pl.Atom("c")))
    assert parse_pltl("F a", ap) == pl.eventually(pl.Atom("a"))
    assert parse_pltl("G a", ap) == pl.always(pl.Atom("a"))
    assert parse_pltl("O a", ap) == pl.once(pl.Atom("a"))
    assert parse_pltl("H a", ap) == pl.historically(pl.Atom("a"))
    assert parse_pltl("true", ap) == pl.TRUE
    assert parse_pltl("false", ap) == pl.Not(pl.TRUE)


def test_true_needs_no_propositions():
    assert parse_pltl("true", set()) is pl.TRUE
    assert parse_pltl("G (false -> true)", set()) == pl.always(pl.p_implies(pl.Not(pl.TRUE),
                                                                             pl.TRUE))
    assert render_pltl(pl.TRUE) == "true" and render_pltl(pl.Not(pl.TRUE)) == "!true"


def test_profile_of_true():
    t = lasso({"p"}, [{"p"}, set()], [{"p"}, set(), set()])
    prof = valuation_profile(t, pl.TRUE)
    assert (prof.threshold, prof.period, prof.bits) == (0, 1, (True,))
    assert depth(pl.TRUE) == 0 and pl.is_past_free(pl.TRUE)


def test_sugar_is_built_over_true():
    a = pl.Atom("a")
    for make, node in ((pl.eventually, pl.Until), (pl.once, pl.Since)):
        assert make(a) == node(pl.TRUE, a)
    for make, node in ((pl.always, pl.Until), (pl.historically, pl.Since)):
        assert make(a) == pl.Not(node(pl.TRUE, pl.Not(a)))


def test_written_tautology_is_not_sugar():
    # an until guarded by a | !a prints as written and evaluates as F a
    rng = random.Random(4)
    a = pl.Atom("a")
    f = parse_pltl("(a | !a) U a", {"a"})
    assert f == pl.Until(pl.Or(a, pl.Not(a)), a)
    assert render_pltl(f) == "(a | !a) U a"
    for _ in range(20):
        t = gen_trace(rng, ("a",), 3, 3)
        assert [pltl_eval(t, i, f) for i in range(8)] == \
            [pltl_eval(t, i, pl.eventually(a)) for i in range(8)]


@pytest.mark.parametrize("name,problem", [
    ("true", "is reserved for a constant"), ("false", "is reserved for a constant"),
    ("p q", "is not a single identifier"), ("p-q", "is not a single identifier"),
    ("", "is not a single identifier"), ("(", "is not a single identifier"),
] + [(op, "is reserved for an operator") for op in "XYFGOHUS"])
def test_reserved_or_unreadable_proposition_names(name, problem):
    # an atom could not read these names: true and false are the constants,
    # X Y F G O H U S the operators
    with pytest.raises(ParseError, match=problem):
        parse_pltl("a", {"a", name})
    with pytest.raises(ParseError, match=problem):
        pl.check_prop(name, 3, 7)


def test_check_prop_accepts_the_names_that_tokenize_to_themselves(monkeypatch):
    # a name is readable when it tokenizes to the one identifier name;
    # check_prop decides that without running the tokenizer
    names = ["a", "a_1", "_b", "2", "\u00e9t\u00e9", "\u03b1\u03b2", "\u2115", "x\u0301",
             "ab cd", " a", "a ", "a\n", "a\t", "", "(", "a-b", "a.b", "\u2200", "a\u200b", "X1"]
    readable = {}
    for name in names:
        try:
            toks = pl.tokenize(name)
        except ParseError:
            toks = []
        readable[name] = [t[:2] for t in toks] == [("id", name)]
    assert 0 < sum(readable.values()) < len(names)

    def no_tokenizer(*args):
        raise AssertionError("check_prop ran the tokenizer")

    monkeypatch.setattr(pl, "tokenize", no_tokenizer)
    for name in names:
        if readable[name]:
            pl.check_prop(name)
        else:
            with pytest.raises(ParseError, match="is not a single identifier"):
                pl.check_prop(name, 2, 5)
    for name in (5, None, b"p", ("p",)):
        with pytest.raises(ParseError, match="is not a single identifier") as exc:
            pl.check_prop(name, 2, 5)
        assert (exc.value.line, exc.value.col) == (2, 5)


def test_any_identifier_is_a_proposition_name():
    assert parse_pltl("a_1 & _b & 2", {"a_1", "_b", "2"}) == \
        pl.p_and(pl.p_and(pl.Atom("a_1"), pl.Atom("_b")), pl.Atom("2"))


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_pltl("a &\n& b", {"a", "b"})
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_pltl("unknown", {"a"})


def test_render_parse_roundtrip():
    rng = random.Random(9)
    ap = ("a", "b")
    for _ in range(300):
        f = gen_pltl(rng, ap, rng.randint(0, 4))
        assert parse_pltl(render_pltl(f), set(ap)) == f


A, B, C = pl.Atom("a"), pl.Atom("b"), pl.Atom("c")

# exact text, so a change in the shared printer shows up as a byte diff
RENDER_GOLDEN = [
    (pl.eventually(A), "F a"),
    (pl.always(pl.p_implies(A, pl.eventually(B))), "G (a -> F b)"),
    (pl.once(pl.historically(A)), "O H a"),
    (pl.Not(pl.always(A)), "!G a"),
    (pl.Or(A, pl.Not(A)), "a | !a"),
    (pl.TRUE, "true"),
    (pl.p_and(pl.Or(A, B), C), "(a | b) & c"),
    (pl.Or(A, pl.p_and(B, C)), "a | b & c"),
    (pl.Not(pl.p_and(A, B)), "!(a & b)"),
    (pl.p_implies(A, pl.p_implies(B, C)), "a -> b -> c"),
    (pl.p_implies(pl.p_implies(A, B), C), "(a -> b) -> c"),
    (pl.p_iff(pl.p_iff(A, B), C), "a <-> b <-> c"),
    (pl.p_iff(A, pl.p_iff(B, C)), "a <-> (b <-> c)"),
    (pl.p_iff(pl.p_implies(A, B), pl.Or(B, C)), "a -> b <-> b | c"),
    (pl.Until(A, pl.Until(B, C)), "a U b U c"),
    (pl.Until(pl.Until(A, B), C), "(a U b) U c"),
    (pl.Since(A, pl.Until(B, C)), "a S b U c"),
    (pl.p_and(pl.Since(A, B), C), "a S b & c"),
    (pl.Until(pl.Not(A), pl.Or(B, C)), "!a U (b | c)"),
    (pl.Next(pl.Yesterday(pl.Or(A, B))), "X Y (a | b)"),
]


@pytest.mark.parametrize("f,text", RENDER_GOLDEN, ids=[t for _, t in RENDER_GOLDEN])
def test_render_golden(f, text):
    assert render_pltl(f) == text
    assert parse_pltl(text, {"a", "b", "c"}) == f


def _parse_hyper_pq(text):
    from ghyltl.semantics import parse_hyper
    return parse_hyper(text, ("p", "q"))


def _parse_arith(text):
    from ghyltl.arith import parse_arith
    return parse_arith(text)


def _parse_pltl_ab(text):
    return parse_pltl(text, {"a", "b"})


# (parser, text, line, column, message) over the three front ends
PARSE_ERRORS = [
    (_parse_pltl_ab, "a &\n& b", 2, 1, "expected a formula, found '&'"),
    (_parse_pltl_ab, "unknown", 1, 1, "unknown proposition 'unknown', found 'unknown'"),
    (_parse_pltl_ab, "(a | b", 1, 6, "expected ')' at end of input"),
    (_parse_pltl_ab, "a b", 1, 3, "trailing input after formula, found 'b'"),
    (_parse_pltl_ab, "", 1, 1, "expected a formula"),
    (_parse_pltl_ab, "a $ b", 1, 3, "unexpected character '$'"),
    (_parse_hyper_pq, "forall x.\n p_x &", 2, 6, "expected a formula at end of input"),
    (_parse_hyper_pq, "exists x p_x", 1, 10, "expected '.', found 'p_x'"),
    (_parse_hyper_pq, "exists x. X p_x", 1, 13, "expected '[', found 'p_x'"),
    (_parse_hyper_pq, "exists x. C{} p_x", 1, 13, "expected context variable, found '}'"),
    (_parse_hyper_pq, "exists x. r_x", 1, 11,
     "expected an atom of the form prop_var over ap ['p', 'q'], found 'r_x'"),
    (_parse_hyper_pq, "exists x. p_x)", 1, 14, "trailing input after formula, found ')'"),
    (_parse_hyper_pq, "forall x. p_", 1, 11,
     "expected a trace variable after the underscore, found 'p_'"),
    (_parse_hyper_pq, "exists x. F[a] p_x", 1, 13, "unknown proposition 'a', found 'a'"),
    (_parse_arith, "exists a. a <", 1, 13, "expected a term at end of input"),
    (_parse_arith, "exists 1. 1 = 1", 1, 8, "expected a variable name, found '1'"),
    (_parse_arith, "exists a. a = a)", 1, 16, "trailing input after formula, found ')'"),
    (_parse_arith, "exists a. a in b", 1, 16,
     "expected a second-order (upper-case) variable after 'in', found 'b'"),
    (_parse_arith, "exists a. a", 1, 11, "expected '=', '<' or 'in' after a term at end of input"),
    (_parse_arith, "exists a. X + a = a", 1, 11,
     "second-order variable 'X' cannot appear in a term, found 'X'"),
    (_parse_arith, "exists a. (a = a", 1, 16, "expected ')' at end of input"),
    (_parse_arith, "exists a. (a + 1 = 2", 1, 20, "expected ')' at end of input"),
]


@pytest.mark.parametrize("parse,text,line,col,message", PARSE_ERRORS,
                         ids=[f"{p.__name__}:{t!r}" for p, t, *_ in PARSE_ERRORS])
def test_parse_errors_table(parse, text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"{message} (line {line}, column {col})"
