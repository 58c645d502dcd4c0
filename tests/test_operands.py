"""The operand vocabulary: semantics.children names a node's operands and
semantics.rebuild is its inverse, for every formula family.

Every structural query walks with children and every rewrite rebuilds with
rebuild, so these two functions are the only place the operand layout of a
node class is written down.  Arithmetic's comparison leaves are leaves to
both; arith._mentions reads their term variables itself.
"""

import random

import pytest

from ghyltl import arith
from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.arith import RawAtom, TConst, TPlus, TTimes, TVar
from ghyltl.semantics import TRUE, Atom, Context, Exists, Forall, Next, Not, Or, Since, \
    Until, Yesterday, children, rebuild
from ghyltl.transform import alpha_unique, hoist_prenex, prenexify

from helpers import gen_arith

P, Q = Atom("p", "x"), Atom("q", "y")
GAMMA = frozenset({pl.Atom("p")})

# one node of every class with operands, shared by the hyper, PLTL-index and
# arithmetic families
INNER = [
    Not(P), Or(P, Q), Context(frozenset({"x", "y"}), P),
    Next(GAMMA, P), Yesterday(GAMMA, Q), Until(GAMMA, P, Q), Since(frozenset(), Q, P),
    Exists("x", P), Forall("y", Q),
]

# every class that is a leaf to children: hyper atoms and true, the PLTL
# nodes of a temporal index, and arithmetic's atoms, comparisons and terms
LEAVES = [
    P, TRUE, pl.Atom("p"), pl.Next(pl.Atom("p")), pl.Yesterday(pl.Atom("p")),
    pl.Until(pl.Atom("p"), TRUE), pl.Since(TRUE, pl.Atom("q")),
    arith.Add("a", "b", "c"), arith.Mul("a", "b", "c"), arith.Less("a", "b"),
    arith.Member("a", "A"), RawAtom("<", TVar("a"), TPlus(TVar("b"), TConst(1))),
    TVar("a"), TConst(2), TPlus(TVar("a"), TVar("b")), TTimes(TVar("a"), TConst(3)),
]

_FIELDS = ("gamma", "vars", "var")


@pytest.mark.parametrize("n", INNER, ids=lambda n: type(n).__name__)
def test_rebuild_inverts_children(n):
    ops = tuple(Atom("r", f"z{i}") for i in range(len(children(n))))
    out = rebuild(n, ops)
    assert type(out) is type(n) and children(out) == ops
    assert all(a is b for a, b in zip(children(out), ops))
    same = rebuild(n, children(n))
    assert same == n and type(same) is type(n) and same is not n
    for field in _FIELDS:
        assert getattr(out, field, None) == getattr(n, field, None)
        assert getattr(same, field, None) == getattr(n, field, None)


@pytest.mark.parametrize("n", LEAVES, ids=lambda n: type(n).__name__)
def test_leaves_come_back_unchanged(n):
    assert children(n) == ()
    assert rebuild(n, ()) is n


# a PLTL Next is a gamma member, never a hyper node: the rewrites and the
# structural queries reject it wherever it sits, also in a prenex formula
# that prenexify would return unchanged
@pytest.mark.parametrize("place", [
    lambda x: Or(Exists("a", Atom("p", "a")), Exists("b", x)),
    lambda x: Not(Forall("a", Context(frozenset({"a"}), Or(Atom("p", "a"), x)))),
    lambda x: Exists("a", Until(frozenset(), x, Exists("b", Atom("q", "b")))),
    lambda x: Exists("a", Yesterday(frozenset(), Forall("b", hy.h_and(x, Atom("q", "b"))))),
    lambda x: Exists("a", Or(Atom("p", "a"), x)),
], ids=["or", "context", "until", "yesterday", "prenex"])
@pytest.mark.parametrize("rewrite", [
    alpha_unique, hoist_prenex, lambda f: prenexify(f, ("p", "q")), hy.fragment_of,
    hy.free_vars, hy.quantifier_shape, lambda f: hy.check_traceset([], f),
], ids=["alpha_unique", "hoist_prenex", "prenexify", "fragment_of", "free_vars",
        "quantifier_shape", "check_traceset"])
def test_rewrites_reject_a_foreign_node(place, rewrite):
    with pytest.raises(TypeError, match="not a hyper formula node"):
        rewrite(place(pl.Next(pl.Atom("p"))))


def _ref_vars(f) -> tuple[set, set, set]:
    """First-order, second-order and free variables of a raw arithmetic tree
    by a recursive walk over its connectives, binders, comparisons and terms."""
    if isinstance(f, TVar):
        return {f.name}, set(), {f.name}
    if isinstance(f, TConst):
        return set(), set(), set()
    if isinstance(f, RawAtom) and f.kind == "in":
        first, _, free = _ref_vars(f.left)
        return first, {f.right}, free | {f.right}
    if isinstance(f, (Exists, Forall)):
        first, second, free = _ref_vars(f.sub)
        (second if f.var[:1].isupper() else first).add(f.var)
        return first, second, free - {f.var}
    if isinstance(f, Not):
        return _ref_vars(f.sub)
    parts = [_ref_vars(f.left), _ref_vars(f.right)]  # Or, RawAtom, TPlus, TTimes
    return tuple(set().union(*(p[i] for p in parts)) for i in range(3))


def test_arith_vars_match_a_term_walk():
    rng = random.Random(20)
    trees = [arith.parse_arith(gen_arith(rng, [], rng.randint(1, 4))) for _ in range(150)]
    trees.append(Exists("a", RawAtom("in", TPlus(TConst(1), TTimes(TVar("a"), TVar("b"))),
                                     "B")))
    checked = 0
    for tree in trees:
        for f in hy.postorder(tree):
            first, second, free = _ref_vars(f)
            assert arith.arith_vars(f) == (first, second, free), f
            checked += bool(free)
    assert checked > 500
