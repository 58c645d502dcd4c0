import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
import threading
import weakref
from collections import Counter

import pytest

from ghyltl import arith, stutter
from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.arith import (Add, GadgetBoundError,
                          Less, Member, Not, Or, RawAtom, TConst,
                          TPlus, TVar,
                          alpha_per_context, alpha_per_stutter,
                          arith_eval_bounded, compile_arith, dollar_blocks,
                          flatten, gadget_assignment, gadget_formula, parse_arith,
                          verify_gadget, witness_universe)
from ghyltl.semantics import (EvalConfig, Exists, Forall, check_traceset, evaluate,
                              fragment_of, parse_hyper)
from ghyltl.traces import PointedTrace, enumerate_lassos, enumerate_ts_traces, \
    lasso, normalize, spike_trace
from ghyltl.transform import hoist_prenex

from helpers import minimal_block_ratio


def flat(text: str):
    return flatten(parse_arith(text))


# -- flattening ---------------------------------------------------------------


def test_flatten_already_flat():
    f = flat("exists a. exists b. exists c. a + b = c")
    assert f == Exists("a", Exists("b", Exists("c", Add("a", "b", "c"))))


def test_parse_emits_connectives_over_comparison_leaves():
    raw = parse_arith("exists a. forall B. !(a in B) | a < a + 1")
    assert raw == Exists("a", Forall("B", Or(
        Not(RawAtom("in", TVar("a"), "B")),
        RawAtom("<", TVar("a"), TPlus(TVar("a"), TConst(1))))))
    assert arith.arith_vars(raw)[:2] == ({"a"}, {"B"})
    assert arith.arith_vars(raw.sub)[2] == {"a"}
    with pytest.raises(TypeError, match="run flatten first"):
        compile_arith(raw, "stutter")


def test_flatten_rewrites_each_occurrence():
    # <-> repeats its operands; each occurrence gets its own fresh variables
    f = flat("exists a. (a = 1 <-> a = 1)")
    binders = [n.var for n in hy.postorder(f) if isinstance(n, Exists)]
    assert binders == ["t0", "t1", "t2", "t3", "a"]


def test_flatten_nested_product():
    f = flat("exists a. exists b. exists c. exists d. (a + b) * c = d")
    # one auxiliary: exists t. (a+b=t & t*c=d)
    inner = f.sub.sub.sub.sub
    assert isinstance(inner, Exists)
    assert arith.arith_vars(f)[2] == frozenset()


def test_flatten_constant_equivalence():
    # a < b + 1 over the bounded structure agrees with direct evaluation
    f = flat("forall a. forall b. (a < b + 1 -> !(b < a))")
    assert arith_eval_bounded(f, 9)
    g = flat("exists a. a = 3")
    assert arith_eval_bounded(g, 5)
    h = flat("exists a. (a = 0 & a + a = a)")
    assert arith_eval_bounded(h, 3)


def test_flatten_constants_by_doubling():
    # a constant k takes O(log k) additions, not k - 1
    f = flat("exists a. a = 200000")
    assert len(hy.postorder(f)) <= 160
    for k in range(21):
        assert arith_eval_bounded(flat(f"exists a. a = {k}"), k + 1), k
        assert not arith_eval_bounded(flat(f"exists a. (a = {k} & a < {k})"), k + 1), k


def test_flatten_var_equation_uses_order():
    f = flat("forall a. forall b. (a = b -> !(a < b))")
    assert arith_eval_bounded(f, 6)


def test_arith_eval_bounded_examples():
    assert arith_eval_bounded(flat("exists y. y * y = y"), 3)
    assert arith_eval_bounded(flat("forall y. !(y < y)"), 5)
    twelve = flat("exists a. exists b. exists c. (a * b = c & c = 12 & a < b & 2 < a)")
    assert arith_eval_bounded(twelve, 13)
    assert not arith_eval_bounded(flat("exists a. (a < a)"), 4)


def test_arith_eval_second_order():
    assert arith_eval_bounded(flat("exists Y. forall a. a in Y"), 4, bit_cap=4)
    assert arith_eval_bounded(flat("forall Y. forall a. (a in Y | !(a in Y))"), 3, bit_cap=3)
    assert not arith_eval_bounded(flat("exists Y. forall a. (a in Y & !(a in Y))"), 3, bit_cap=3)


def test_arith_eval_builds_subsets_on_demand(monkeypatch):
    builds = []
    real = arith._subsets

    def counting(cap):
        builds.append(cap)
        return real(cap)

    monkeypatch.setattr(arith, "_subsets", counting)
    # false over 0..16 (no b above 16), and first-order only
    assert not arith_eval_bounded(flat("forall a. exists b. a < b"), 16, bit_cap=16)
    assert builds == []
    assert arith_eval_bounded(flat("exists A. exists a. a in A"), 6, bit_cap=6)
    assert builds == [6]


def test_families_share_connectives_and_binders():
    assert pl.Not is hy.Not is arith.Not
    assert pl.Or is hy.Or is arith.Or
    f = flat("exists A. forall a. a in A")
    assert f == hy.Exists("A", hy.Forall("a", Member("a", "A")))
    assert arith.arith_vars(f)[:2] == ({"a"}, {"A"})


def _ref_shape(f) -> str:
    """Quantifier shape of an arithmetic formula by a recursive polarity walk."""
    kinds = set()

    def walk(n, positive):
        if isinstance(n, Not):
            walk(n.sub, not positive)
        elif isinstance(n, Or):
            walk(n.left, positive)
            walk(n.right, positive)
        elif isinstance(n, (Exists, Forall)):
            kinds.add("exists" if isinstance(n, Exists) == positive else "forall")
            walk(n.sub, positive)

    walk(f, True)
    return kinds.pop() if len(kinds) == 1 else "mixed" if kinds else "exists"


def _gen_arith(rng, scope: list[str], depth: int) -> str:
    """Text of a random arithmetic sentence over the variables in scope."""
    nums = [v for v in scope if v.islower()]
    sets = [v for v in scope if v.isupper()]

    def term():
        t = rng.choice(nums + ["0", "1", "2"])
        return f"{t} {rng.choice('+*')} {rng.choice(nums + ['1'])}" if rng.random() < 0.3 else t

    r = rng.random()
    if depth == 0 or r < 0.2:
        if sets and rng.random() < 0.3:
            return f"{term()} in {rng.choice(sets)}"
        return f"{term()} {rng.choice('<=')} {term()}"
    if r < 0.35:
        return f"!({_gen_arith(rng, scope, depth - 1)})"
    if r < 0.6:
        op = rng.choice(["|", "&", "->", "<->"])
        return f"({_gen_arith(rng, scope, depth - 1)} {op} {_gen_arith(rng, scope, depth - 1)})"
    v = f"{'A' if rng.random() < 0.3 else 'a'}{len(scope)}"
    q = rng.choice(["exists", "forall"])
    return f"({q} {v}. {_gen_arith(rng, scope + [v], depth - 1)})"


def test_quantifier_shape_of_arithmetic_from_the_fold():
    rng = random.Random(18)
    texts = ["exists a. exists b. exists c. (a * b = c & c = 12 & a < b & 2 < a)",
             "exists a. a < a", "exists a. 200000 = a",
             "forall a. exists b. a < b", "exists a. forall b. b < a | b = a"]
    texts += [_gen_arith(rng, [], rng.randint(1, 5)) for _ in range(200)]
    shapes = Counter()
    for text in texts:
        f = flat(text)
        shapes[hy.quantifier_shape(f)] += 1
        assert hy.quantifier_shape(f) == _ref_shape(f), text
    assert min(shapes.values()) >= 10 and len(shapes) == 3
    leaves = [Add("a", "b", "c"), arith.Mul("a", "b", "c"), Less("a", "b"), Member("a", "A"),
              RawAtom("<", TVar("a"), TPlus(TVar("a"), TConst(1)))]
    assert [hy.children(n) for n in leaves] == [()] * 5


# a binder's order is its name's case, so a hand-built formula can put a set
# where a number goes, or a number where a set goes
@pytest.mark.parametrize("f", [hy.Exists("A", Less("A", "A")), hy.Exists("a", Member("a", "a"))],
                         ids=["set-as-number", "number-as-set"])
@pytest.mark.parametrize("run", [lambda f: arith_eval_bounded(f, 3),
                                 lambda f: compile_arith(f, "stutter"),
                                 lambda f: compile_arith(f, "context")],
                         ids=["oracle", "stutter", "context"])
def test_wrong_case_variable_is_rejected(f, run):
    with pytest.raises(ValueError, match="upper-case variable 'A' stands for a number|"
                                         "lower-case variable 'a' stands for a set"):
        run(f)


# -- compiled clause shapes ---------------------------------------------------


def test_member_clause_stutter():
    art = compile_arith(flat("exists y. exists Y. y in Y"), "stutter")
    text = hy.render_hyper(art.sentence)
    assert "F[] (hy_y_x_y & hash_x_Y)" in text
    assert art.var_map == {"y": "x_y", "Y": "x_Y"}


def test_member_clause_context():
    art = compile_arith(flat("exists y. exists Y. y in Y"), "context")
    text = hy.render_hyper(art.sentence)
    assert "F[] (hash_x_y & hash_x_Y)" in text


def test_fragment_conformance():
    sentence = "exists a. exists b. exists c. (a + b = c & a * b = c)"
    stut = compile_arith(flat(sentence), "stutter")
    ctx = compile_arith(flat(sentence), "context")
    assert fragment_of(hoist_prenex(stut.sentence)) == "HyperLTL_S"
    assert fragment_of(hoist_prenex(ctx.sentence)) == "HyperLTL_C"


def test_compiled_formula_roundtrip():
    art = compile_arith(flat("exists a. exists b. exists c. a * b = c"), "stutter")
    text = hy.render_hyper(art.sentence)
    assert parse_hyper(text, art.system.ap) == art.sentence


# Exact compiled text; the tests above check only substrings and round trips.
COMPILE_GOLDEN = [
    ('exists a. exists B. a in B', 'stutter', False,
     'exists x_a. G[] (!dlr_x_a & !dlrp_x_a & !hash_x_a) & !hy_a_x_a U[] (hy_a_x_a '
     '& X[] G[] !hy_a_x_a) & (exists x_B. G[] (!dlr_x_B & !dlrp_x_B & !hy_a_x_B) & '
     'F[] (hy_a_x_a & hash_x_B))'),
    ('exists a. exists B. a in B', 'context', False,
     'exists x_a. G[] !dlr_x_a & !hash_x_a U[] (hash_x_a & X[] G[] !hash_x_a) & '
     '(exists x_B. G[] !dlr_x_B & F[] (hash_x_a & hash_x_B))'),
    ('exists a. exists B. a in B', 'context', True,
     'exists x_a. G[] !dlr_x_a & !hash_x_a U[] (hash_x_a & X[] G[] !hash_x_a) & '
     '(exists x_B. G[] !dlr_x_B & F[] (hash_x_a & hash_x_B))'),
    ('forall a. exists b. a < b', 'stutter', False,
     'forall x_a. G[] (!dlr_x_a & !dlrp_x_a & !hash_x_a & !hy_b_x_a) & !hy_a_x_a '
     'U[] (hy_a_x_a & X[] G[] !hy_a_x_a) -> (exists x_b. G[] (!dlr_x_b & !dlrp_x_b '
     '& !hash_x_b & !hy_a_x_b) & !hy_b_x_b U[] (hy_b_x_b & X[] G[] !hy_b_x_b) & F[] '
     '(hy_a_x_a & X[] F[] hy_b_x_b))'),
    ('forall a. exists b. a < b', 'context', False,
     'forall x_a. G[] !dlr_x_a & !hash_x_a U[] (hash_x_a & X[] G[] !hash_x_a) -> '
     '(exists x_b. G[] !dlr_x_b & !hash_x_b U[] (hash_x_b & X[] G[] !hash_x_b) & '
     'F[] (hash_x_a & X[] F[] hash_x_b))'),
    ('forall a. exists b. a < b', 'context', True,
     'forall x_a. G[] !dlr_x_a & !hash_x_a U[] (hash_x_a & X[] G[] !hash_x_a) -> '
     '(exists x_b. G[] !dlr_x_b & !hash_x_b U[] (hash_x_b & X[] G[] !hash_x_b) & '
     'F[] (hash_x_a & X[] F[] hash_x_b))'),
    ('exists a. exists b. exists c. a + b = c', 'stutter', False,
     'exists x_a. G[] (!dlr_x_a & !dlrp_x_a & !hash_x_a & !hy_b_x_a & !hy_c_x_a) & '
     '!hy_a_x_a U[] (hy_a_x_a & X[] G[] !hy_a_x_a) & (exists x_b. G[] (!dlr_x_b & '
     '!dlrp_x_b & !hash_x_b & !hy_a_x_b & !hy_c_x_b) & !hy_b_x_b U[] (hy_b_x_b & '
     'X[] G[] !hy_b_x_b) & (exists x_c. G[] (!dlr_x_c & !dlrp_x_c & !hash_x_c & '
     '!hy_a_x_c & !hy_b_x_c) & !hy_c_x_c U[] (hy_c_x_c & X[] G[] !hy_c_x_c) & '
     '(((hy_a_x_a -> G[] (hy_b_x_b -> !hy_c_x_c)) -> hy_b_x_b & F[] (hy_a_x_a & '
     'hy_c_x_c)) | !hy_a_x_a & !hy_b_x_b & (exists w0. G[] (hy_b_x_b <-> hy_b_w0) & '
     'G[] (hy_c_x_c <-> hy_c_w0) & X[hy_b] F[] (hy_a_x_a & X[] hy_c_w0)))))'),
    ('exists a. exists b. exists c. a + b = c', 'context', False,
     'exists x_a. G[] !dlr_x_a & !hash_x_a U[] (hash_x_a & X[] G[] !hash_x_a) & '
     '(exists x_b. G[] !dlr_x_b & !hash_x_b U[] (hash_x_b & X[] G[] !hash_x_b) & '
     '(exists x_c. G[] !dlr_x_c & !hash_x_c U[] (hash_x_c & X[] G[] !hash_x_c) & '
     'C{x_a,x_c} F[] (hash_x_a & C{x_b,x_c} F[] (hash_x_b & hash_x_c))))'),
    ('exists a. exists b. exists c. a + b = c', 'context', True,
     'exists x_a. G[] !dlr_x_a & !hash_x_a U[] (hash_x_a & X[] G[] !hash_x_a) & '
     '(exists x_b. G[] !dlr_x_b & !hash_x_b U[] (hash_x_b & X[] G[] !hash_x_b) & '
     '(exists x_c. G[] !dlr_x_c & !hash_x_c U[] (hash_x_c & X[] G[] !hash_x_c) & '
     'C{x_a,x_c} F[] (hash_x_a & C{x_b,x_c} F[] (hash_x_b & hash_x_c))))'),
]

GADGET_FORMULA_SHA256 = {
    ('add', 'stutter', False):
        'e003977c28e3ab1f55d957989d05d2d07d251233bcb165b5f2384a0e8d6d12c3',
    ('add', 'stutter', True):
        'e003977c28e3ab1f55d957989d05d2d07d251233bcb165b5f2384a0e8d6d12c3',
    ('add', 'context', False):
        '65c7fb6266cdb2cb3698205b16a695044fca19d96c41de6a964e1e0d9e155ad0',
    ('add', 'context', True):
        '65c7fb6266cdb2cb3698205b16a695044fca19d96c41de6a964e1e0d9e155ad0',
    ('mul', 'stutter', False):
        '234a3a3215eac9c336dee2b0c91d47f72177915a7036a43427022e23947f5c9d',
    ('mul', 'stutter', True):
        '234a3a3215eac9c336dee2b0c91d47f72177915a7036a43427022e23947f5c9d',
    ('mul', 'context', False):
        '6028625da7df470a1fe02517a271f5eb94983fe425a2047f2579664f32c931f9',
    ('mul', 'context', True):
        'e128063a0a8b2c327f02088b4f0161c08b66b8d66798b833f6276c8d621f85e2',
}


def _compile(text, encoding, strict):
    return compile_arith(flat(text), encoding, strict)


@pytest.mark.parametrize("text,encoding,strict,rendered", COMPILE_GOLDEN,
                         ids=[f"{t}:{e}:{s}" for t, e, s, _ in COMPILE_GOLDEN])
def test_compile_golden(text, encoding, strict, rendered):
    assert hy.render_hyper(_compile(text, encoding, strict).sentence) == rendered


@pytest.mark.parametrize("key", sorted(GADGET_FORMULA_SHA256),
                         ids=[f"{r}:{e}:{s}" for r, e, s in sorted(GADGET_FORMULA_SHA256)])
def test_gadget_formula_golden(key):
    text = hy.render_hyper(gadget_formula(*key))
    assert hashlib.sha256(text.encode()).hexdigest() == GADGET_FORMULA_SHA256[key]


def test_witness_system_traces():
    # the context-encoding system generates every hash-only and every
    # dollar-only lasso within bounds, and no mixed trace
    art = compile_arith(flat("exists a. exists b. exists c. a * b = c"), "context")
    got = {(t.prefix, t.loop) for t in enumerate_ts_traces(art.system, 2, 2)}
    want = set()
    for alphabet in ({"hash"}, {"dlr"}):
        for t in enumerate_lassos(alphabet, 2, 2):
            n = normalize(t)
            want.add((n.prefix, n.loop))
    assert got == want


def test_stutter_system_components():
    art = compile_arith(flat("exists a. exists b. exists c. a + b = c"), "stutter")
    assert art.system.ap == {"hash", "hy_a", "hy_b", "hy_c", "dlr", "dlrp"}
    labels = {frozenset(l) for l in art.system.labels.values()}
    assert frozenset({"hy_a", "dlr"}) in labels
    assert frozenset({"hash"}) in labels and frozenset({"dlrp"}) in labels
    # every vertex keeps an outgoing edge and the system is total
    for v in art.system.vertices:
        assert art.system.successors(v)


# -- gadget instances ---------------------------------------------------------


def test_gadget_add_examples():
    assert verify_gadget("add", 5, 4, 9, "stutter")
    assert not verify_gadget("add", 5, 4, 8, "stutter")
    assert verify_gadget("add", 5, 4, 9, "context")
    assert not verify_gadget("add", 5, 4, 8, "context")


def test_gadget_mul_examples():
    assert verify_gadget("mul", 3, 7, 21, "context")
    assert not verify_gadget("mul", 3, 7, 20, "context")
    assert verify_gadget("mul", 3, 7, 21, "stutter")
    assert not verify_gadget("mul", 2, 2, 5, "stutter")
    assert not verify_gadget("mul", 2, 2, 5, "context")


@pytest.mark.parametrize("n3,holds,steps", [(21, True, 870), (20, False, 610)])
def test_gadget_step_count_is_pinned(monkeypatch, n3, holds, steps):
    # the number of successor steps of one evaluation; an evaluator change
    # that walks further shows up here, not as timing noise
    calls = []
    real = stutter.assign_succ

    def counting(a, gamma, c, owner=None):
        calls.append(1)
        return real(a, gamma, c, owner)

    monkeypatch.setattr(stutter, "assign_succ", counting)
    assert verify_gadget("mul", 3, 7, n3, "context") is holds
    assert len(calls) == steps


def _fresh_gadget(relation, n1, n2, n3, encoding, strict):
    """verify_gadget without anything kept: the unmemoized builder, a fresh
    fold for the context and a fresh evaluation."""
    formula = gadget_formula.__wrapped__(relation, encoding, strict)
    assert formula is not gadget_formula(relation, encoding, strict)
    assignment = gadget_assignment(encoding, n1, n2, n3)
    universe = arith.gadget_universe(relation, encoding, n1, n2, n3)
    context = hy._facts(formula)[1] | set(assignment)
    return evaluate(universe, assignment, context, formula).is_holds


def test_gadget_reuse_matches_a_fresh_build():
    for relation in ("add", "mul"):
        for encoding in ("stutter", "context"):
            for strict in (False, True):
                for n1, n2, n3 in itertools.product(range(4), range(4), range(7)):
                    got = verify_gadget(relation, n1, n2, n3, encoding, strict_fidelity=strict)
                    assert got == _fresh_gadget(relation, n1, n2, n3, encoding, strict), \
                        (relation, encoding, strict, n1, n2, n3)


def test_gadget_formula_is_one_constant_per_normalized_key():
    table = {}
    for relation in ("add", "mul"):
        for encoding in ("stutter", "context"):
            for strict in (False, True, 0, 1, None, "yes"):
                f = gadget_formula(relation, encoding, strict)
                assert f is gadget_formula(relation, encoding, strict_fidelity=strict)
                assert f == gadget_formula.__wrapped__(relation, encoding, bool(strict))
                table.setdefault(id(f), f)
            assert gadget_formula(relation, encoding) is gadget_formula(relation, encoding, False)
    # stutter ignores strict_fidelity: six formulas in all
    assert len(table) == 6
    assert gadget_formula("mul", "stutter", True) is gadget_formula("mul", "stutter")


def test_a_second_gadget_call_folds_and_builds_nothing(monkeypatch):
    verify_gadget("mul", 3, 7, 21, "context")
    folds, builds = [], []
    real_facts, real_compile = hy._facts, arith._Compiler.compile

    def facts(*args, **kwargs):
        folds.append(args[0])
        return real_facts(*args, **kwargs)

    def compile_(self, f):
        builds.append(f)
        return real_compile(self, f)

    monkeypatch.setattr(hy, "_facts", facts)
    monkeypatch.setattr(arith._Compiler, "compile", compile_)
    assert verify_gadget("mul", 3, 7, 21, "context")
    assert not verify_gadget("mul", 2, 5, 11, "context")
    assert folds == [] and builds == []


# -- the EvalCache a gadget formula keeps --------------------------------------


def _kept_cache(relation="mul", encoding="context"):
    return gadget_formula(relation, encoding)._kept.cache


def _assert_empty(cache):
    steps = cache.steps
    assert steps._traces == {} and steps._maps == {} and steps._tables == {}
    programs = [p for _, p in cache._programs.values()]
    assert programs and all(p.memos for p in programs)
    for p in programs:
        assert all(m == {} for m in p.memos)
        assert p.canon == {} and p.starts == []


def test_a_sweep_compiles_one_program_per_formula_and_config(monkeypatch):
    # configs no other test uses, so every program of the sweep is new
    made = Counter()
    real = hy._Program

    def recording(f, cfg, *rest):
        made[id(f), cfg] += 1
        return real(f, cfg, *rest)

    monkeypatch.setattr(hy, "_Program", recording)
    configs = [EvalConfig(until_cutoff=199), EvalConfig(until_cutoff=198)]
    for relation in ("add", "mul"):
        for encoding in ("stutter", "context"):
            for cfg in configs:
                for n1, n2, n3 in itertools.product(range(3), range(3), range(4)):
                    verify_gadget(relation, n1, n2, n3, encoding, cfg)
    assert len(made) == 8 and set(made.values()) == {1}


def test_a_repeated_call_builds_no_closure(monkeypatch):
    verify_gadget("mul", 3, 7, 21, "context")
    compiled = []
    real = hy._Program.compile

    def compile_(self, *args):
        compiled.append(args)
        return real(self, *args)

    monkeypatch.setattr(hy._Program, "compile", compile_)
    assert verify_gadget("mul", 3, 7, 21, "context")
    assert compiled == []


def test_the_kept_cache_holds_nothing_after_a_call(monkeypatch):
    assert verify_gadget("mul", 3, 7, 21, "context")
    _assert_empty(_kept_cache())
    assert not verify_gadget("mul", 3, 7, 20, "context")
    _assert_empty(_kept_cache())
    with pytest.raises(GadgetBoundError):
        verify_gadget("mul", 3, 7, 21, "context", cfg=EvalConfig(until_cutoff=1))
    _assert_empty(_kept_cache())
    # a step that raises mid-run
    real, calls = stutter.assign_succ, []

    def failing(*args):
        calls.append(1)
        if len(calls) == 100:
            raise RuntimeError("step failed")
        return real(*args)

    monkeypatch.setattr(stutter, "assign_succ", failing)
    with pytest.raises(RuntimeError, match="step failed"):
        verify_gadget("mul", 3, 7, 21, "context")
    _assert_empty(_kept_cache())


def test_gadget_traces_are_freed_when_the_call_returns(monkeypatch):
    refs = []
    real = arith.gadget_universe

    def recording(*args):
        universe = real(*args)
        refs.extend(weakref.ref(t) for t in universe)
        return universe

    monkeypatch.setattr(arith, "gadget_universe", recording)
    gc.disable()
    try:
        assert verify_gadget("mul", 3, 7, 21, "context")
        assert not verify_gadget("mul", 2, 5, 11, "context")
        assert refs and all(r() is None for r in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("n3,holds,steps", [(21, True, 870), (20, False, 610)])
def test_the_step_count_pin_holds_after_an_earlier_call(monkeypatch, n3, holds, steps):
    # the kept cache was made under the real step function; a counter
    # patched in later still sees every step of the next call
    verify_gadget("mul", 3, 7, n3, "context")
    calls = []
    real = stutter.assign_succ

    def counting(a, gamma, c, owner=None):
        calls.append(1)
        return real(a, gamma, c, owner)

    monkeypatch.setattr(stutter, "assign_succ", counting)
    assert verify_gadget("mul", 3, 7, n3, "context") is holds
    assert len(calls) == steps


_INNER = [(2, 5, 10), (2, 5, 11), (4, 3, 12)]


def _calling_during_a_step(monkeypatch, call, at=200):
    """Patch the successor step so that its at-th call, in the thread that
    patched it, makes call(); the outer call holds the kept cache then."""
    real, count, me = stutter.assign_succ, [], threading.get_ident()

    def stepping(*args):
        if threading.get_ident() == me:
            count.append(1)
            if len(count) == at:
                call()
        return real(*args)

    monkeypatch.setattr(stutter, "assign_succ", stepping)


def test_a_reentrant_call_gets_a_fresh_build(monkeypatch):
    inner = []
    _calling_during_a_step(monkeypatch, lambda: inner.extend(
        verify_gadget("mul", *args, "context") for args in _INNER))
    assert verify_gadget("mul", 3, 7, 21, "context")
    assert not verify_gadget("mul", 3, 7, 20, "context")
    assert inner == [_fresh_gadget("mul", *args, "context", False) for args in _INNER]
    _assert_empty(_kept_cache())


def test_a_call_from_another_thread_gets_a_fresh_build(monkeypatch):
    inner = []

    def in_a_thread():
        t = threading.Thread(target=lambda: inner.extend(
            verify_gadget("mul", *args, "context") for args in _INNER))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()

    _calling_during_a_step(monkeypatch, in_a_thread)
    assert verify_gadget("mul", 3, 7, 21, "context")
    assert not verify_gadget("mul", 3, 7, 20, "context")
    assert inner == [_fresh_gadget("mul", *args, "context", False) for args in _INNER]
    _assert_empty(_kept_cache())


def test_threads_sharing_a_gadget_formula_get_its_answers():
    # more threads than cores, switching often: each call either holds the
    # kept cache alone or builds afresh, so every answer is n1 * n2 == n3
    cases = [(n1, n2, n3) for n1 in range(4) for n2 in range(4) for n3 in (n1 * n2, n1 + n2 + 1)]
    wrong, done = [], []

    def work(k):
        for n1, n2, n3 in cases[k::2] + cases[k::3]:
            if verify_gadget("mul", n1, n2, n3, "context") != (n1 * n2 == n3):
                wrong.append((n1, n2, n3))
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(6)) and wrong == []
    _assert_empty(_kept_cache())


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copy_of_a_gadget_formula_keeps_neither_fold_nor_cache(copier):
    # closures and the lock do not pickle, so a kept cache that leaked into
    # the state would raise here
    f = gadget_formula("mul", "context")
    assert verify_gadget("mul", 3, 7, 21, "context")
    assert {"_fold", "_kept"} <= set(vars(f))
    g = copier(f)
    assert g == f and "_fold" not in vars(g) and "_kept" not in vars(g)
    for args in [(3, 7, 21), (3, 7, 20)]:
        assignment = gadget_assignment("context", *args)
        universe = arith.gadget_universe("mul", "context", *args)
        context = hy.all_vars(f) | set(assignment)
        want = evaluate(universe, assignment, context, f)
        assert evaluate(universe, assignment, context, g) == want
        assert want.is_holds is verify_gadget("mul", *args, "context")
    assert "_kept" not in vars(g)


def test_gadget_zero_annihilator():
    for k in range(7):
        assert verify_gadget("mul", 0, k, 0, "stutter")
        assert verify_gadget("mul", 0, k, 0, "context")
        assert verify_gadget("mul", k, 0, 0, "context")


def test_gadget_unknown_raises():
    # an evaluation that hits its Until cutoff has no verdict to return
    with pytest.raises(GadgetBoundError, match="until-cutoff"):
        verify_gadget("mul", 3, 7, 21, "context", cfg=EvalConfig(until_cutoff=1))


def test_strict_fidelity_exposes_vacuous_cases():
    # with bare implications a false premise validates wrong products
    assert verify_gadget("mul", 0, 0, 5, "context", strict_fidelity=True)
    assert not verify_gadget("mul", 0, 0, 5, "context")


@pytest.mark.parametrize("call", [
    lambda: gadget_formula("sub", "stutter"),
    lambda: arith.gadget_universe("mul", "bogus", 3, 7, 21),
    lambda: arith.gadget_universe("bogus", "stutter", 3, 7, 21),
    lambda: witness_universe(flat("exists a. a < a"), "stuter", 2),
    lambda: verify_gadget("mul", 3, 7, 21, "bogus"),
    lambda: arith.compile_arith(flat("exists a. a < a"), "bogus"),
], ids=["formula-relation", "universe-encoding", "universe-relation", "witness-encoding",
        "verify-encoding", "compile-encoding"])
def test_unknown_names_raise(call):
    with pytest.raises(ValueError, match="unknown"):
        call()


def test_gadget_assignment_rejects_a_negative_value():
    # -3 would otherwise be encoded as the spike at 0
    for encoding in ("stutter", "context"):
        with pytest.raises(ValueError, match="nonnegative"):
            gadget_assignment(encoding, -3, 1, 1)


def test_strict_fidelity_changes_ast_shape():
    guarded = gadget_formula("mul", "context")
    literal = gadget_formula("mul", "context", strict_fidelity=True)
    assert guarded != literal
    # the default turns the implication cases into guard conjunctions
    text_guarded = hy.render_hyper(guarded)
    text_literal = hy.render_hyper(literal)
    assert text_guarded != text_literal


def test_lemma_witness_system_existential_check():
    # the stutter witness system contains a trace carrying nothing but hash
    from ghyltl.semantics import check_ts
    art = compile_arith(flat("exists a. exists b. exists c. a + b = c"), "stutter")
    banned = sorted(art.system.ap - {"hash"})
    body = hy.alw(hy.EMPTY_GAMMA, hy.h_all([hy.Not(hy.Atom(p, "x")) for p in banned]))
    f = hy.Exists("x", body)
    v = check_ts(art.system, f, 0, 1)
    assert v.is_holds and v.reason is None


def test_gadget_small_sweeps():
    for n1 in range(4):
        for n2 in range(4):
            for n3 in range(6):
                assert verify_gadget("add", n1, n2, n3, "stutter") == (n1 + n2 == n3)
                assert verify_gadget("add", n1, n2, n3, "context") == (n1 + n2 == n3)


def test_gadget_full_sweep_add_context():
    # the acceptance gate sweeps add-stutter and mul-context; the remaining
    # two encoding/op pairs get the same exhaustive treatment here
    for n1 in range(7):
        for n2 in range(7):
            for n3 in range(13):
                assert verify_gadget("add", n1, n2, n3, "context") == (n1 + n2 == n3)


def test_gadget_full_sweep_mul_stutter():
    for n1 in range(5):
        for n2 in range(5):
            for n3 in range(17):
                assert verify_gadget("mul", n1, n2, n3, "stutter") == (n1 * n2 == n3)


def test_periodic_witness_spec():
    t = dollar_blocks(3, "dlr")
    assert [("dlr" in t.letter(i)) for i in range(8)] == \
        [True, True, True, False, False, False, True, True]
    u = dollar_blocks(2, "dlr", ("hy_y3", 5))
    assert "hy_y3" in u.letter(5) and all("hy_y3" not in u.letter(i) for i in range(5))
    with pytest.raises(ValueError):
        dollar_blocks(0, "dlr")


def test_alpha_per_equal_periods():
    for p in (1, 2, 3):
        x = dollar_blocks(p, "dlr")
        a = {"x": PointedTrace(x, 0), "xp": PointedTrace(x, 0)}
        assert evaluate([], a, {"x", "xp"}, alpha_per_context("x", "xp")).is_holds
        xs = dollar_blocks(p, "dlr")
        xps = dollar_blocks(p, "dlrp")
        a2 = {"x": PointedTrace(xs, 0), "xp": PointedTrace(xps, 0)}
        assert evaluate([], a2, {"x", "xp"}, alpha_per_stutter("x", "xp")).is_holds


# -- atom conformance ---------------------------------------------------------


def test_less_atoms_small():
    for encoding in ("stutter", "context"):
        comp = (arith._StutterCompiler(("y1", "y2")) if encoding == "stutter"
                else arith._ContextCompiler())
        f = comp.compile(Less("y1", "y2"))
        for n1 in range(5):
            for n2 in range(5):
                a = gadget_assignment(encoding, n1, n2, 0)
                a = {k: v for k, v in a.items() if k in ("x_y1", "x_y2")}
                got = evaluate([], a, set(a), f)
                assert got.is_holds == (n1 < n2)


def test_member_atoms_small():
    for encoding in ("stutter", "context"):
        comp = (arith._StutterCompiler(("y",)) if encoding == "stutter"
                else arith._ContextCompiler())
        f = comp.compile(Member("y", "Y"))
        prop = arith.num_prop("y") if encoding == "stutter" else arith.HASH
        for n in range(5):
            for mask in range(16):
                members = [i for i in range(4) if mask >> i & 1]
                if members:
                    prefix = tuple(frozenset({"hash"}) if i in members else frozenset()
                                   for i in range(max(members) + 1))
                else:
                    prefix = ()
                set_trace = lasso({"hash"}, prefix, [set()])
                a = {"x_y": PointedTrace(spike_trace((), prop, n), 0),
                     "x_Y": PointedTrace(set_trace, 0)}
                got = evaluate([], a, set(a), f)
                assert got.is_holds == (n in members)


# -- Eq. (1) ------------------------------------------------------------------


def test_minimal_block_ratio_is_n1():
    for n2 in range(2, 9):
        for n1 in range(1, n2 + 1):
            assert minimal_block_ratio(n1, n2) == n1


# -- end-to-end bounded equivalence -------------------------------------------

E2E_SENTENCES = [
    ("exists a. exists b. (a + b = b & a < b)", 4),
    ("exists a. exists b. exists c. (a + b = c & a < b & b < c)", 5),
    ("forall a. !(a < a)", 4),
    ("exists a. (a < a)", 4),
    ("exists a. exists b. (a * b = b & 1 < a)", 4),
    ("exists a. exists b. (a < b & a * b = b)", 3),
    ("exists a. exists b. (1 < a & 1 < b & a * b = a)", 3),
    ("exists a. exists B. (a in B & a < 2)", 3),
    # compiled under fresh names (see test_cli), which the witnesses must share
    ("exists a. exists a_x. a < a_x", 3),
    ("exists a_x. forall b. (b < a_x | b = a_x)", 3),
]


@pytest.mark.parametrize("text,bound", E2E_SENTENCES)
def test_e2e_bounded_equivalence(text, bound):
    f = flat(text)
    want = arith_eval_bounded(f, 12)
    for encoding in ("stutter", "context"):
        art = compile_arith(f, encoding)
        universe = witness_universe(f, encoding, bound)
        got = check_traceset(universe, art.sentence)
        assert not got.is_unknown
        assert got.is_holds == want, (text, encoding)


UNIVERSE_SHA256 = "d0b6e8f923967a7b9122278ad310b213d516bb4637f32f7d5a0544b1fdadd3ca"


def test_universes_are_pinned():
    # each trace as repr(t) plus its alphabet, which repr omits.  The
    # multiplication/stutter universe is pinned as a set: only its order may
    # move.  Addition/context is left out: its gadget quantifies over
    # nothing, so no verdict reads its universe; the sweeps pin its verdicts.
    h = hashlib.sha256()

    def add(universe, order=list):
        for line in order(f"{t!r} {sorted(t.ap)}" for t in universe):
            h.update(line.encode() + b"\n")
        h.update(b"--\n")

    for text, bound in E2E_SENTENCES:
        for encoding in ("stutter", "context"):
            add(witness_universe(flat(text), encoding, bound))
    for relation, encoding, order in (("mul", "context", list), ("add", "stutter", list),
                                      ("mul", "stutter", sorted)):
        for n1 in range(6):
            for n2 in range(6):
                for n3 in range(26):
                    add(arith.gadget_universe(relation, encoding, n1, n2, n3), order)
    assert h.hexdigest() == UNIVERSE_SHA256
