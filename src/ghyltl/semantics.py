"""Syntax and semantics of generalized HyperLTL with stuttering and contexts.

Formulas are evaluated against a finite universe of lasso traces, a partial
assignment of trace variables to pointed traces, and a context: the set of
variables on which time advances during temporal steps.  Temporal operators
are indexed by finite sets of PLTL formulas and step along changepoints.

Until operators walk forward with cycle detection on canonicalized
configurations (residues of the positions, once all are past a per-trace
stabilization threshold) and fall back to an iteration cutoff, in which case
the verdict is unknown.  Since operators always terminate because predecessor
chains are finite.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from . import stutter
from . import pltl as pl
from .pltl import _PREC_QUANT, _PREC_UNARY, TRUE, Not, Or, ParseError, Top, _PltlParser, \
    is_and, render_pltl, tokenize
from .traces import LassoTrace, PointedTrace, TransitionSystem, enumerate_lassos, \
    enumerate_ts_traces, normalize

Gamma = frozenset

EMPTY_GAMMA: Gamma = frozenset()


class Hyper:
    """Base class for hyper formula AST nodes.  True, negation and disjunction
    are pltl's TRUE, Not and Or, shared by every family.  Like theirs, a
    node's copies leave out the fold it keeps (see pltl.Pltl)."""

    __slots__ = ()
    __getstate__ = pl.Pltl.__getstate__


@dataclass(frozen=True)
class Atom(Hyper):
    prop: str
    var: str


@dataclass(frozen=True)
class Context(Hyper):
    vars: frozenset[str]
    sub: Hyper

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", frozenset(self.vars))
        if not self.vars:
            raise ValueError("context sets must be nonempty")


@dataclass(frozen=True)
class Next(Hyper):
    gamma: Gamma
    sub: Hyper


@dataclass(frozen=True)
class Until(Hyper):
    gamma: Gamma
    left: Hyper
    right: Hyper


@dataclass(frozen=True)
class Yesterday(Hyper):
    gamma: Gamma
    sub: Hyper


@dataclass(frozen=True)
class Since(Hyper):
    gamma: Gamma
    left: Hyper
    right: Hyper


@dataclass(frozen=True)
class Exists(Hyper):
    var: str
    sub: Hyper


@dataclass(frozen=True)
class Forall(Hyper):
    var: str
    sub: Hyper


h_and, h_implies, h_iff = pl.p_and, pl.p_implies, pl.p_iff


def h_all(fs: Sequence[Hyper]) -> Hyper:
    if not fs:
        raise ValueError("empty conjunction has no hyper encoding")
    out = fs[0]
    for f in fs[1:]:
        out = h_and(out, f)
    return out


def h_any(fs: Sequence[Hyper]) -> Hyper:
    if not fs:
        raise ValueError("empty disjunction has no hyper encoding")
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def ev(gamma: Gamma, f: Hyper) -> Hyper:
    """F_gamma, expanded as true U_gamma f."""
    return Until(gamma, TRUE, f)


def alw(gamma: Gamma, f: Hyper) -> Hyper:
    return Not(ev(gamma, Not(f)))


def once(gamma: Gamma, f: Hyper) -> Hyper:
    return Since(gamma, TRUE, f)


def hist(gamma: Gamma, f: Hyper) -> Hyper:
    return Not(once(gamma, Not(f)))


# -- structural helpers -------------------------------------------------------


_SUB, _PAIR = ("sub",), ("left", "right")

# The operand fields of every node class with operands, for every family
# (PLTL's Not and Or are the hyper and arithmetic ones too); a node of any
# other class is a leaf.  No node class has a subclass, so lookups go by the
# exact class.  The other fields of a class (gamma, vars, var) come before
# its operands in its constructor, and rebuild keeps them.
_OPERANDS = {Not: _SUB, Context: _SUB, Next: _SUB, Yesterday: _SUB, Exists: _SUB,
             Forall: _SUB, Or: _PAIR, Until: _PAIR, Since: _PAIR}
_KEPT = {cls: tuple(fd.name for fd in fields(cls) if fd.name not in ops)
         for cls, ops in _OPERANDS.items()}


def children(f) -> tuple:
    """Operands of any family's connectives, binders and operators; any other node is a leaf."""
    ops = _OPERANDS.get(type(f))
    if ops is _SUB:
        return (f.sub,)
    if ops is _PAIR:
        return (f.left, f.right)
    return ()


def rebuild(f, operands: Sequence):
    """The inverse of children: a new node of f's class over operands that
    keeps f's other fields (gamma, vars, var); a leaf is returned as is."""
    kept = _KEPT.get(type(f))
    if kept is None:
        return f
    return type(f)(*[getattr(f, k) for k in kept], *operands)


def postorder(f) -> list:
    """Subformulas in postorder: children first, left to right, each shared
    node once, at its first occurrence.  The walk keeps its own stack, so
    formula depth is not bounded by the interpreter's recursion limit: a
    node is expanded when first popped, and None below its children marks
    where it is emitted."""
    operands = _OPERANDS.get
    seen, out, stack = set(), [], [f]
    pop, push = stack.pop, stack.append
    while stack:
        n = pop()
        if n is None:
            out.append(pop())
            continue
        if id(n) in seen:
            continue
        seen.add(id(n))
        ops = operands(type(n))
        if ops is None:
            out.append(n)
            continue
        push(n)
        push(None)
        if ops is _PAIR:
            push(n.right)
            push(n.left)
        else:
            push(n.sub)
    return out


# quantifier kinds after negation polarity, as the bits of an int: 1 for
# existential, 2 for universal
_FLIP = (0, 2, 1, 3)
_SHAPES = ("exists", "exists", "forall", "mixed")


_LEAF = ((), 0, 0)
_PLTL_ONLY = (pl.Atom, pl.Next, pl.Until, pl.Yesterday, pl.Since)


class _Fold(tuple):
    """(nodes, names, gammas, contexts) of one fold (see _facts), and its
    attribute foreign: the first node outside the hyper family in
    postorder, or None."""


def _facts(f: Hyper) -> _Fold:
    """(nodes, names, gammas, contexts) from one postorder fold: per node id
    its sorted free variables (its child's tuple when they are the same),
    its past horizon h (the heaviest path at or below it, a Yesterday
    weighing 1 and a Since 2, see _config_key; h > 0 when it looks back), and
    the kinds of the quantifiers at or below it after negation polarity (0
    for none); then the variables of atoms, binders and context sets, the
    temporal index members, and whether a context operator occurs.  No other
    walk answers a structural query about a hyper formula (bounded_sat's
    count of binder nodes, which it needs for exists-shaped sentences only,
    is the one exception), or the quantifier shape of an arithmetic one (its
    atoms are leaves).  PLTL atoms and temporal nodes, gamma members only,
    raise TypeError.  A node of any other class outside the hyper family is
    a leaf, and the first one is kept as the fold's foreign node, which the
    evaluator refuses (see EvalCache).  The fold dispatches on the exact
    class and reads each node's operand fields itself (see _OPERANDS).

    Queries read the fold through _fold_of, which keeps it on the formula."""
    nodes: dict[int, tuple[tuple[str, ...], int, int]] = {}
    names, gammas, contexts, foreign = set(), set(), False, None
    for n in postorder(f):
        t = type(n)
        if t is Not:
            fact = nodes[id(n.sub)]
            if fact[2] == 1 or fact[2] == 2:
                fact = (fact[0], fact[1], _FLIP[fact[2]])
        elif t is Or or t is Until or t is Since:
            fact, right = nodes[id(n.left)], nodes[id(n.right)]
            if right != fact:
                (free, h, kinds), (rfree, rh, rkinds) = fact, right
                if rfree != free and not set(rfree) <= set(free):
                    free = tuple(sorted({*free, *rfree}))
                fact = (free, max(h, rh), kinds | rkinds)
            if t is not Or:
                gammas.update(n.gamma)
                if t is Since:
                    fact = (fact[0], fact[1] + 2, fact[2])
        elif t is Atom:
            names.add(n.var)
            fact = ((n.var,), 0, 0)
        elif t is Next or t is Yesterday:
            gammas.update(n.gamma)
            fact = nodes[id(n.sub)]
            if t is Yesterday:
                fact = (fact[0], fact[1] + 1, fact[2])
        elif t is Context:
            names.update(n.vars)
            contexts = True
            fact = nodes[id(n.sub)]
        elif t is Exists or t is Forall:
            names.add(n.var)
            free, h, kinds = nodes[id(n.sub)]
            if n.var in free:
                free = tuple([x for x in free if x != n.var])
            fact = (free, h, kinds | (1 if t is Exists else 2))
        elif t is Top:
            fact = _LEAF
        elif t in _PLTL_ONLY:
            raise TypeError(f"not a hyper formula node: {n!r}")
        else:
            fact = _LEAF
            if foreign is None:
                foreign = n
        nodes[id(n)] = fact
    fold = _Fold((nodes, frozenset(names), frozenset(gammas), contexts))
    fold.foreign = foreign
    return fold


def _fold_of(f: Hyper) -> _Fold:
    """f's fold, computed at the first query about f and kept on f for its
    lifetime, as PointedTrace keeps its letter.  The formula owns it: its
    node ids stay valid while f holds its subformulas, and a copy of f
    does not inherit it (see pltl.Pltl).  A root outside the hyper family
    (an arithmetic atom) keeps nothing; its fold is one node."""
    try:
        return f._fold
    except AttributeError:
        pass
    fold = _facts(f)
    if isinstance(f, (Hyper, pl.Pltl)):
        object.__setattr__(f, "_fold", fold)
    return fold


def _hyper_fold(f: Hyper) -> _Fold:
    """f's fold, after refusing a formula that holds a foreign node."""
    fold = _fold_of(f)
    if fold.foreign is not None:
        raise TypeError(f"not a hyper formula node: {fold.foreign!r}")
    return fold


def free_vars(f: Hyper) -> frozenset[str]:
    """Variables read by atoms and not bound by a quantifier above the read."""
    return frozenset(_fold_of(f)[0][id(f)][0])


def all_vars(f: Hyper) -> frozenset[str]:
    """Every variable mentioned anywhere: atoms, binders, and context sets."""
    return _fold_of(f)[1]


def strip_prefix(f: Hyper) -> tuple[list[tuple[str, str]], Hyper]:
    """Leading quantifier block as [(kind, var)] plus the remaining formula."""
    prefix: list[tuple[str, str]] = []
    while isinstance(f, (Exists, Forall)):
        prefix.append(("exists" if isinstance(f, Exists) else "forall", f.var))
        f = f.sub
    return prefix, f


def is_prenex(f: Hyper) -> bool:
    return not _fold_of(f)[0][id(strip_prefix(f)[1])][2]


def quantifier_shape(f) -> str:
    """'exists' when every quantifier occurrence of a hyper or arithmetic
    formula is existential after negation polarity, 'forall' dually, else
    'mixed'."""
    return _SHAPES[_fold_of(f)[0][id(f)][2]]


def bounded_answer_sound(f, holds: bool) -> bool:
    """Whether a sentence's answer over a bounded universe (a hyper one's
    trace set, an arithmetic one's domain) is its answer over every larger
    one: holds for a purely existential sentence, fails for a purely
    universal one.

    A purely existential sentence is monotone in the universe: a witness
    found in it is still a witness in any superset.  A purely universal one
    is antitone: a counterexample found in it stays one.  Any other answer
    may flip once the universe grows.
    """
    return quantifier_shape(f) == ("exists" if holds else "forall")


def fragment_of(f: Hyper) -> str:
    """Most specific of HyperLTL, HyperLTL_S, HyperLTL_C, GHyLTL_S+C."""
    nodes, _, gammas, contexts = _fold_of(f)
    if nodes[id(strip_prefix(f)[1])][2] or nodes[id(f)][1]:
        return "GHyLTL_S+C"  # not prenex, or not past-free
    if not gammas:
        return "HyperLTL_C" if contexts else "HyperLTL"
    if not contexts and all(pl.is_past_free(th) for th in gammas):
        return "HyperLTL_S"
    return "GHyLTL_S+C"


# -- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Three-valued result; unknown only arises from bounded operations."""

    status: str
    reason: str | None = None

    @property
    def is_holds(self) -> bool:
        return self.status == "holds"

    @property
    def is_fails(self) -> bool:
        return self.status == "fails"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    @staticmethod
    def unknown(reason: str) -> "Verdict":
        return Verdict("unknown", reason)


HOLDS = Verdict("holds")
FAILS = Verdict("fails")


@dataclass(frozen=True)
class EvalConfig:
    until_cutoff: int = 200
    use_cycle_detection: bool = True

    def __post_init__(self) -> None:
        if self.until_cutoff < 1:
            raise ValueError("until_cutoff must be >= 1")


DEFAULT_CONFIG = EvalConfig()

Assignment = Mapping[str, PointedTrace]


# -- compiled evaluation ------------------------------------------------------
#
# A formula is compiled once per (config, root context, assignment domain) into
# one closure per (node, context, domain): the context and the effective
# coordinates ``c & a.keys()`` of each node are fixed by the root context and
# the quantifiers above it, so they are resolved here and not on every visit.
# A past-free node (no Yesterday or Since below) steps only the effective
# coordinates that it reads, its free variables; see _Program.
# A closure takes an assignment dict and returns 0 (fails), 1 (holds) or 2
# (unknown); the Verdict object is built only at the top.  An Until hitting its
# cutoff is the only bound evaluation has, so 2 always means "until-cutoff".
#
# A memoized closure (a Next, Yesterday, Until or Since step or walk, or a
# quantifier) is made with a builder of its body and builds that body at its
# first memo miss, so a run builds only the bodies it calls; boolean nodes,
# atoms and the binder scoping are built eagerly.  Closures capture their
# children, memo dicts, constants and the step-table owner, and builders the
# program through one weak reference, never the program (_Program) itself,
# so a dropped program is freed by reference counting, built bodies or not.
# Coordinates step through ``stutter.assign_succ`` or
# ``assign_pred`` with the owner (``stutter.StepTables``) of the program's
# EvalCache: it hands out one pointed trace per (trace, position), keeps one
# successor and one predecessor map per gamma, one changepoint-position table
# per (trace, gamma) and the valuation-profile memos of every trace, for the
# life of the cache or until it is cleared.  The program reads the move
# functions off the module once, when it is made, and every body it builds,
# during a run too, uses that copy, so a wrapper patched over
# ``stutter.assign_succ`` or ``assign_pred`` (a test's counter, a tracer) sees
# the steps of exactly the programs built after it was put in place.  A cache
# kept across calls (arith.verify_gadget's) records the move functions it was
# made under and is replaced when they change, so such a wrapper sees the
# steps of every later call there too.  A step
# names its coordinates in sorted order, so the maps a predecessor step fills
# before it stops do not depend on set order, that is, on the hash seed.
#
# Memos are keyed on id(point), or a tuple of those, and only ever see the
# owner's points: a run interns its assignment and takes its quantifier
# starts from the owner, and every step returns an owner point.  Among those,
# id(point) names a (trace, position) as (id(trace), pos) would, and the
# owner holds every point and trace for the life of the cache, or until
# EvalCache.clear empties it together with every memo and canon table, so no
# id is reused while a key can name it.  A caller's point with an equal twin
# in the owner is replaced by the twin; one of an equal trace of another
# identity gets points and memo entries of its own, which costs misses, never
# a wrong answer.  Each memoized closure owns one memo.  A memo outlives a run when
# no quantifier sits at or below its node: such a value depends on the
# assignment only, not on the universe.  The memos of nodes with a
# quantifier below are cleared when each run ends.
#
# Binders are compiled one block at a time, each binder scoped to the
# operands of the block's matrix that read it (see _Program).  A scoped
# quantifier closure has no node of its own: it is keyed on the sorted free
# variables of its operands minus its own, variables bound outside the block
# included, or on the whole domain at its place when an operand with past
# below sits under it, and its memo is cleared when each run ends.  A block
# whose operands moved first answers as its kind does over no traces (0 for
# exists, 1 for forall), before it evaluates anything, so that over an
# empty universe it gives what its outermost binder would.  Kleene & and |
# are min and max in the order 0 < 2 < 1 and a quantifier is the max or min
# of its body over the universe, a distributive lattice, so a scoped block
# returns the value of the unscoped one, 2 included.

_NOT = (1, 0, 2)
_VERDICTS = (FAILS, HOLDS, Verdict.unknown("until-cutoff"))


def _holds(a: Assignment) -> int:
    return 1


def _atom(prop: str, var: str):
    def atom(a):
        return 1 if prop in a[var].letter else 0
    return atom


def _not(sub):
    def neg(a):
        return _NOT[sub(a)]
    return neg


def _chain(subs: tuple, win: int, starts=(None,), empty: int = 0):
    # an Or chain (win 1) or an h_and chain, !(!a | !b) (win 0): left to
    # right, stopping at the first operand that gives win; otherwise 2
    # sticks and the rest give 1 - win.  A scoped binder block's chain
    # gives empty while the run's starts list is empty (see _Program); the
    # default starts is never empty
    lose = 1 - win

    def chain(a):
        if not starts:
            return empty
        out = lose
        for sub in subs:
            v = sub(a)
            if v == win:
                return win
            if v == 2:
                out = 2
        return out
    return chain


def _quant(var: str, sub, starts: list, win: int):
    # starts holds the owner's point at 0 of each universe trace of the
    # current run; win is 1 for an existential, 0 for a universal
    lose = 1 - win

    def quant(a):
        out = lose
        for st in starts:
            v = sub({**a, var: st})
            if v == win:
                return win
            if v == 2:
                out = 2
        return out
    return quant


def _step(move, gamma: Gamma, eff: tuple[str, ...], steps, sub):
    """Next or Yesterday: one move, false where the move is undefined."""
    def step(a):
        moved = move(a, gamma, eff, steps)
        return 0 if moved is None else sub(moved)
    return step


def _walk(move, gamma: Gamma, eff: tuple[str, ...], steps, left, right, bound, config_key):
    """Until or Since: move until right holds, left fails, the move is
    undefined (a predecessor chain ends), a configuration repeats (config_key
    is None when no cycle is closed) or bound runs out (unknown).

    Invariant: result is 0 or 2 and prefix_ok is 1 or 2 inside the loop; a
    left side true (compiled to _holds) is never called.

    Cycle keys (see _config_key) wait until every stepped coordinate is at
    or past its threshold.  A successor step moves every stepped coordinate
    strictly forward, so one below its threshold is at a position that no
    other iteration shares (earlier ones were lower, later ones are higher or
    canonical, so at least the threshold): a key built then closes no cycle
    and is closed by none.  low, the first coordinate still below its
    threshold, only grows, so it costs amortized O(1) per iteration.

    The thresholds (config_key(a)) are read at the top of the second
    iteration, once the walk has taken its first step; a walk that ends at
    its first iteration never reads them.  That iteration then runs the key
    code for a, then for cur, so from there on seen holds what it would have
    held had the keys been built from the first iteration: a's key, looked
    up in an empty seen, could close no cycle.  thr is None until then, and
    for good in a walk without keys, so the test for the first step sits in
    the branch that a keyed walk leaves once it has stepped.
    """
    guard = left is _holds
    n = len(eff)

    def walk(a):
        result, prefix_ok = 0, 1
        cur, thr = a, None
        for _ in bound:
            if thr is not None:
                while low < n and cur[eff[low]].pos >= thr[low][0]:
                    low += 1
                if low == n:
                    key = tuple([t + (cur[x].pos - t) % l for x, (t, l) in zip(eff, thr)])
                    if key in seen:
                        return result
                    seen.add(key)
            elif cur is not a and config_key is not None:
                thr, low, seen = config_key(a), 0, set()
                for b in (a, cur):
                    while low < n and b[eff[low]].pos >= thr[low][0]:
                        low += 1
                    if low == n:
                        key = tuple([t + (b[x].pos - t) % l for x, (t, l) in zip(eff, thr)])
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


def _config_key(names: tuple[str, ...], gammas: tuple, margin: int, canon: dict, steps):
    """Until cycle keys: start(a) gives, per stepped coordinate (names) of a
    walk from a, its trace's key threshold base + margin * period and its
    period; a key is the canonical positions t + (pos - t) % period.  A walk
    calls start(a) only once it has taken its first step (see _walk), so a
    walk that stops at a builds no gamma profile for its keys.  base
    is the largest of the prefix and the gamma profile thresholds, period
    the lcm of the loop and the profile periods; canon caches (base, period)
    by id(trace) for the program's life, shared by Untils of any margin.
    Steps move positions, never traces, and leave unstepped coordinates
    alone, so neither tells two keys of one walk apart.

    Past base, letters and gamma values repeat with the period; changepoints,
    which also read i - 1, repeat from base + 1 on, with one of every gamma
    in every period (or at every position).  So a successor step from base
    on, and a predecessor step from base + 1 + period on, lands within a
    period and commutes with whole-period shifts.  An Until's margin is 0
    for a past-free body and h + 1 for a body of past horizon h > 0 (see
    _facts).  A past-free body reads letters at its positions and takes only
    successor steps from them; from equal keys of margin 0 every coordinate
    sits at or past base, whole periods from its twin, so the two read equal
    letters, step to changepoints past base (where they repeat) and stay
    whole periods apart on every path.  A body of Yesterday steps takes at
    most h predecessor steps per coordinate on any path, each from base + 1
    + period on, so from equal keys it reads positions whole periods apart
    (equal letters, equal steps), over joint contexts too.  The spare period
    keeps the last of them off base, whose changepoint status reads base - 1;
    counting flips (an even number per period and member) would let margin h
    do, but that is not relied on.  A one-coordinate Since (others fixed)
    composes maps s -> r | (l & s), idempotent in Kleene logic, so its value
    repeats from one period past its operands' (pltl._since_profile), like a
    Yesterday's.  No margin is known to make a joint one sound, as it stops
    where any coordinate does; its second unit keeps its Until at 3 periods
    or more.
    """
    def start(a):
        out = []
        for x in names:
            trace = a[x].trace
            hit = canon.get(id(trace))
            if hit is None:
                memo = steps.profile_memo(trace)
                profs = [pl.valuation_profile(trace, th, memo) for th in gammas]
                base = max([len(trace.prefix)] + [p.threshold for p in profs])
                period = math.lcm(len(trace.loop), *[p.period for p in profs])
                hit = canon[id(trace)] = (base, period)
            base, period = hit
            out.append((base + margin * period, period))
        return out
    return start


_CHAIN_ROOTS = (Not, Or, Context)


def _operands(n: Hyper, c: frozenset[str]) -> tuple[int, list[tuple[Hyper, frozenset[str]]]]:
    """(win, operands): the operands, left to right, of the h_and chain (win
    0) or the Or chain (win 1) rooted at n, each with the context it is read
    under, seen through Context nodes and Not(Not(.)) at the root and along
    the chain.  A root of neither shape is its own one operand (win 1).
    Iterative, so a chain of any length compiles to one n-ary closure."""
    if type(n) not in _CHAIN_ROOTS:
        return 1, [(n, c)]
    out, stack, conj = [], [(n, c)], None
    while stack:
        m, c = stack.pop()
        while type(m) is Context or type(m) is Not and type(m.sub) is Not:
            m, c = (m.sub, m.vars) if type(m) is Context else (m.sub.sub, c)
        if conj is None:
            conj = is_and(m)
        if conj and is_and(m):
            stack += ((m.sub.right.sub, c), (m.sub.left.sub, c))
        elif not conj and isinstance(m, Or):
            stack += ((m.right, c), (m.left, c))
        else:
            out.append((m, c))
    return int(not conj), out


def _memoized(make, names: tuple[str, ...], memo: dict):
    # make builds the memoized closure at the first miss; until it has
    # returned, the next miss calls it again
    raw = None
    if len(names) == 1:
        (x,) = names

        def one(a):
            nonlocal raw
            key = id(a[x])
            v = memo.get(key)
            if v is None:
                if raw is None:
                    raw = make()
                v = memo[key] = raw(a)
            return v
        return one

    def many(a):
        nonlocal raw
        key = tuple([id(a[x]) for x in names])
        v = memo.get(key)
        if v is None:
            if raw is None:
                raw = make()
            v = memo[key] = raw(a)
        return v
    return many


class _Program:
    """A formula compiled for one (config, root context, assignment domain).

    Memoized nodes are quantifiers and temporal steps; plain boolean nodes are
    cheaper than their memo keys.  A node with Yesterday or Since below it is
    keyed on the whole assignment, since predecessor definedness can depend on
    any stepped coordinate, and its Next, Until, Yesterday or Since steps every
    coordinate of c & dom.  Any other node is past-free: its value depends on
    the positions of its free variables only, so it is keyed on them, and its
    Next or Until steps only those in c & dom.  Successor steps are always
    defined and move each coordinate on its own, so that walk is the full
    walk restricted to the coordinates read; its keys are sub-tuples of the
    full ones and repeat no later.  Each compiled closure owns its memo.
    A memoized closure builds its body at its first memo miss (_memoized),
    through compile, so a node is still built at most once per context and
    domain; its memo is registered when the closure is made, during a run
    too, and the fold, whose refusals of every node the program cannot
    build (see EvalCache) cover the whole formula, is read before any run.

    Binders are compiled a block at a time (_block): the maximal run of one
    kind of binder, exists ... exists or forall ... forall, over the
    operands of its matrix's top h_and or Or chain, read through Context
    nodes (each operand keeps its context) and Not(Not(.)) by _operands.
    The block is built innermost binder first.  At binder v the operands
    that do not depend on v move out, ahead of it and in their order, and
    one quantifier closure over v takes the operands that do; a binder
    that no operand reads disappears.  A past-free operand depends on its
    free variables.  One with past below depends on every variable of the
    block as well, since the definedness of a Yesterday or Since step reads
    every stepped coordinate of c & dom, so it never leaves a binder of its
    block.  A scoped quantifier closure depends on the free variables of
    its operands minus v, or on every variable if a past operand sits under
    it, and has its own per-run memo, keyed on those free variables
    (variables bound outside the block included) or on the whole domain at
    its place.  A block in which nothing moves is built as each binder over
    its whole body, the closures of the unscoped rule.

    Scoping is classical miniscoping (Nonnengart and Weidenbach, "Computing
    Small Clause Normal Forms", 2001), and it holds in the three-valued
    logic.  Every compiled closure's value is a function of the assignment;
    a past-free node's depends only on its free variables' positions, the
    premise its memo key already rests on.  Kleene & and | are min and max
    in the order 0 < 2 < 1, and _quant is the max (exists) or min (forall)
    of its body over the universe; these form a distributive lattice.  So
    exists v. (A & B) = A & exists v. B when A does not read v, and the same
    holds for exists over |, forall over & and forall over |, and for a
    binder over a body that does not read it, over a nonempty universe.
    Over no traces exists v. (A | B) is 0 and A | exists v. B is A, so a
    block in which anything moved first returns its kind's value over no
    traces, 0 for exists and 1 for forall, before it evaluates an operand
    (a block that moved nothing starts with a quantifier, which does so
    itself).  Hence every closure returns the unscoped rule's value,
    unknown included, and no verdict changes.

    A run interns its assignment with the step-table owner and takes its
    quantifier starts from it, so the compiled closures only ever see owner
    points and memo keys by id(point) are sound (see the comment above
    _NOT).  A run clears the memos of nodes with a quantifier below and the
    start list when it ends, also when it raises.  The other memos and the
    canon table (keyed on id(trace)) are kept across runs; the owner holds
    every trace and point whose id they use, until EvalCache.clear empties
    them all (the program records every memo for it).
    """

    def __init__(self, f: Hyper, cfg: EvalConfig, context: frozenset[str],
                 domain: frozenset[str], fold: _Fold, steps: stutter.StepTables):
        self.cfg = cfg
        self.steps = steps
        self.facts, self.gammas = fold[0], tuple(fold[2])
        self.canon: dict[int, tuple[int, int]] = {}
        self.starts: list[PointedTrace] = []
        self.built: dict[tuple, object] = {}
        self.memos: list[dict] = []  # every memo, for EvalCache.clear
        self.per_run: list[dict] = []  # memos of nodes with a quantifier below
        self._succ, self._pred = stutter.assign_succ, stutter.assign_pred
        self._ref = weakref.ref(self)  # the builders' only way to the program
        missing = set(self.facts[id(f)][0]) - domain
        if missing:
            raise ValueError(f"free variables without bindings: {sorted(missing)}")
        self._root = self.compile(f, context, domain)

    def compile(self, n: Hyper, c: frozenset[str], dom: frozenset[str]):
        if type(n) is Atom:  # cheaper to build than to look up
            return _atom(n.prop, n.var)
        key = (id(n), c, dom)
        hit = self.built.get(key)
        if hit is None:
            hit = self.built[key] = self._build(n, c, dom)
        return hit

    def _memo(self, n: Hyper, dom: frozenset[str], make):
        # compile builds each closure once, so this runs once per closure,
        # also when a body's builder makes it during a run; free variables
        # are always in dom (checked at the root, and every binder adds its own)
        free, past, kinds = self.facts[id(n)]
        memo: dict = {}
        self.memos.append(memo)
        if kinds:
            self.per_run.append(memo)
        return _memoized(make, tuple(sorted(dom)) if past else free, memo)

    def _block(self, n: Exists | Forall, c: frozenset[str], dom: frozenset[str]):
        """The maximal run of n's kind of binder from n, each scoped to the
        operands of its matrix that read it (see _Program)."""
        kind, win, binders, doms = type(n), int(type(n) is Exists), [], [dom]
        while type(n) is kind:
            binders.append(n)
            doms.append(doms[-1] | {n.var})
            n = n.sub
        chain, ops = _operands(n, c)
        facts, v, ref, starts = self.facts, binders[-1].var, self._ref, self.starts
        # (free, past, node, context) per operand, past being its horizon h,
        # and (free, past, closure, None) per scoped quantifier
        entries = [(*facts[id(x)][:2], x, cx) for x, cx in ops]

        def quantifier(v: str, inner: list, dom: frozenset[str]):
            # builds binder v over the chain of inner, at its first memo miss
            def make():
                subs = ref()._compiled(inner, dom)
                return _quant(v, subs[0] if len(subs) == 1 else _chain(subs, chain), starts, win)
            return make

        # nothing moves when every operand has past below or reads the
        # innermost binder, and the body of each outer binder reads it
        for free, h, _, _ in entries:
            if not h and v not in free:
                break
        else:
            for b in binders[:-1]:
                free, h, _ = facts[id(b.sub)]
                if not h and b.var not in free:
                    break
            else:
                for j in range(len(binders) - 1, -1, -1):
                    body = self._memo(binders[j], doms[j],
                                      quantifier(binders[j].var, entries, doms[j + 1]))
                    entries = [(None, None, body, None)]
                return body
        for j in range(len(binders) - 1, -1, -1):
            v, inner, outer, reads, past = binders[j].var, [], [], set(), 0
            for e in entries:
                if e[1] or v in e[0]:
                    inner.append(e)
                    reads.update(e[0])
                    past |= e[1]
                else:
                    outer.append(e)
            if not inner:
                continue  # no operand reads v
            reads.discard(v)
            free = tuple(sorted(reads))
            memo: dict = {}
            self.memos.append(memo)
            self.per_run.append(memo)
            quant = _memoized(quantifier(v, inner, doms[j + 1]),
                              tuple(sorted(doms[j])) if past else free, memo)
            entries = outer + [(free, past, quant, None)]
        subs = self._compiled(entries, dom)
        if len(entries) == 1 and entries[0][3] is None:
            return subs[0]  # a quantifier, which answers an empty universe itself
        return _chain(subs, chain, starts, 1 - win)

    def _compiled(self, entries: list, dom: frozenset[str]) -> tuple:
        return tuple([x if cx is None else self.compile(x, cx, dom) for _, _, x, cx in entries])

    def _build(self, n: Hyper, c: frozenset[str], dom: frozenset[str]):
        # dispatch on the exact class: no node class has a subclass
        t = type(n)
        if t is Top:
            return _holds
        if t is Not and not is_and(n):
            if type(n.sub) is Not:
                return self.compile(n.sub.sub, c, dom)
            return _not(self.compile(n.sub, c, dom))
        if t is Not or t is Or:
            win, ops = _operands(n, c)
            return _chain(tuple([self.compile(x, cx, dom) for x, cx in ops]), win)
        if t is Context:
            return self.compile(n.sub, n.vars, dom)
        if t is Exists or t is Forall:
            return self._block(n, c, dom)
        # Next, Until, Yesterday or Since (every other class was refused
        # with the fold); a past-free node steps only the coordinates it
        # reads (see _Program)
        free, h, _ = self.facts[id(n)]
        eff = tuple(sorted(c & dom if h else c & dom & set(free)))
        if t is Next or t is Yesterday:
            if not eff:
                return self.compile(n.sub, c, dom)
            move, steps, ref = self._succ if t is Next else self._pred, self.steps, self._ref
            return self._memo(n, dom, lambda: _step(move, n.gamma, eff, steps,
                                                    ref().compile(n.sub, c, dom)))
        if not eff:
            # no coordinate moves, so position 0 decides
            return self.compile(n.right, c, dom)
        future, ref = t is Until, self._ref

        def make():
            program = ref()
            right = program.compile(n.right, c, dom)
            left = program.compile(n.left, c, dom)
            cfg, key = program.cfg, None
            if future and cfg.use_cycle_detection:
                key = _config_key(eff, program.gammas, h + 1 if h else 0, program.canon,
                                  program.steps)
            bound = range(cfg.until_cutoff + 1) if future else itertools.repeat(None)
            return _walk(program._succ if future else program._pred, n.gamma, eff,
                         program.steps, left, right, bound, key)
        return self._memo(n, dom, make)

    def run(self, universe: Iterable[LassoTrace], a: dict[str, PointedTrace]) -> Verdict:
        steps = self.steps
        for x, pt in a.items():
            if not isinstance(pt, PointedTrace):
                raise TypeError(f"assignment value of {x!r} is not a pointed trace: {pt!r}")
        try:
            self.starts.extend(steps.point(t, 0) for t in universe)
            a = {x: steps.intern(pt) for x, pt in a.items()}
            return _VERDICTS[self._root(a)]
        finally:
            for m in self.per_run:
                m.clear()
            self.starts.clear()


class EvalCache:
    """Compiled programs shared across evaluate/check_traceset calls, e.g. the
    candidate sets of one bounded_sat search, and the one step-table owner
    (changepoint steps and valuation-profile memos) that they all use.
    clear forgets every trace and point and keeps the programs, so a formula
    can be compiled once and run over the traces of many calls (see
    arith.verify_gadget).

    Entries are keyed on formula identity and hold the formula, so its id
    stays valid for the life of the cache.  Programs read the fold the
    formula keeps (see _fold_of), so a formula evaluated under many caches
    is folded once.  program and sentence_context refuse a formula whose
    fold records a node outside the hyper family, such as an arithmetic
    atom, so a program's bodies, built during its runs, never meet one, and
    the refusal comes before any run.
    """

    def __init__(self) -> None:
        self.steps = stutter.StepTables()
        self._programs: dict[tuple, tuple[Hyper, _Program]] = {}

    def program(self, f: Hyper, cfg: EvalConfig, context: frozenset[str],
                domain: frozenset[str]) -> _Program:
        key = (id(f), cfg, context, domain)
        hit = self._programs.get(key)
        if hit is None:
            program = _Program(f, cfg, context, domain, _hyper_fold(f), self.steps)
            hit = self._programs[key] = (f, program)
        return hit[1]

    def sentence_context(self, f: Hyper) -> frozenset[str]:
        """Every variable of the sentence f, after checking it is one."""
        nodes, var, _, _ = _hyper_fold(f)
        free = nodes[id(f)][0]
        if free:
            raise ValueError(f"not a sentence; free variables {list(free)}")
        if not var:
            raise ValueError("formula mentions no trace variables")
        return var

    def clear(self) -> None:
        """Empty every memo and canon table of every program, then the
        step-table owner, all in place, since the closures capture the dicts
        and the owner; the compiled closures, bodies built during runs
        included, are kept.

        Invariant: memo and canon keys are ids of owner-held objects (points
        and traces).  Clearing them together with the owner keeps the rule
        that no id is reused while a key can name it."""
        for _, program in self._programs.values():
            for m in program.memos:
                m.clear()
            program.canon.clear()
        self.steps.clear()


def evaluate(universe: Iterable[LassoTrace], assignment: Assignment,
             context: Iterable[str], f: Hyper,
             cfg: EvalConfig = DEFAULT_CONFIG, *, cache: EvalCache | None = None) -> Verdict:
    """Evaluate (universe, assignment, context) |= f, compiling f unless cache
    already holds it for this config, context and assignment domain."""
    a = dict(assignment)
    program = (cache or EvalCache()).program(f, cfg, frozenset(context), frozenset(a))
    return program.run(universe, a)


def check_traceset(universe: Iterable[LassoTrace], f: Hyper,
                   cfg: EvalConfig = DEFAULT_CONFIG, *,
                   cache: EvalCache | None = None) -> Verdict:
    """Sentence satisfaction by a trace set: empty assignment, full context."""
    cache = cache or EvalCache()
    return evaluate(universe, {}, cache.sentence_context(f), f, cfg, cache=cache)


def _exact_ts_universe(ts: TransitionSystem, max_prefix: int, max_loop: int) -> bool:
    """True when the bounded enumeration provably equals Tr(T): every reachable
    vertex has out-degree one and each induced lasso fits the bounds."""
    reachable: set[str] = set()
    frontier = list(ts.initial)
    while frontier:
        v = frontier.pop()
        if v in reachable:
            continue
        reachable.add(v)
        frontier.extend(ts.successors(v))
    for v in reachable:
        if len(ts.successors(v)) != 1:
            return False
    for v0 in sorted(ts.initial):
        seen: dict[str, int] = {}
        path = [v0]
        while path[-1] not in seen:
            seen[path[-1]] = len(path) - 1
            path.append(ts.successors(path[-1])[0])
        stem = seen[path[-1]]
        cycle = len(path) - 1 - stem
        if stem > max_prefix or cycle > max_loop:
            return False
    return True


def check_ts(ts: TransitionSystem, f: Hyper, max_prefix: int, max_loop: int,
             cfg: EvalConfig = DEFAULT_CONFIG) -> Verdict:
    """Bounded transition-system checking over enumerated lasso traces.

    The bounded universe under-approximates Tr(T), so the verdict is wrapped
    as unknown unless an exact universe or bounded_answer_sound makes it
    sound.
    """
    universe = enumerate_ts_traces(ts, max_prefix, max_loop)
    verdict = check_traceset(universe, f, cfg)
    if verdict.is_unknown:
        return verdict
    if _exact_ts_universe(ts, max_prefix, max_loop) or bounded_answer_sound(f, verdict.is_holds):
        return verdict
    return Verdict.unknown(
        f"ts-universe-bound(max_prefix={max_prefix},max_loop={max_loop});"
        f"bounded-verdict={verdict.status}")


def bounded_sat(f: Hyper, max_traces: int, max_prefix: int, max_loop: int,
                ap: Iterable[str], cfg: EvalConfig = DEFAULT_CONFIG) -> list[LassoTrace] | None:
    """First trace set (by size, then lexicographic) satisfying the sentence.

    Candidates are the canonicalized lassos over ap within the bounds; None
    when no candidate set of at most max_traces holds.  The first singleton
    goes through check_traceset, which validates the sentence and compiles
    it; every later set is one run of that cached program.

    The search skips sets that cannot hold.  Only quantifiers read the
    universe, and a quantifier is the max (exists) or min (forall) of its
    body over it in the order fails < unknown < holds, which Kleene
    connectives, steps and walks preserve.  So the verdict of a sentence
    whose quantifiers are all existential after negation polarity (see
    quantifier_shape) can only rise when the universe grows, and that of a
    universal one can only fall.  Singletons are tried first, as for any
    shape; when none holds:
    - forall: a set that holds has singletons that hold, so None;
    - exists: no set holds unless the set of all candidates does, so one
      run over all of them, unless it holds, ends the search with None
      (unknown included).  It tries up to N**k assignments for N candidates
      and k binders; every one binds at most k traces, so when k <=
      max_traces each is also tried by some set of the search and, when it
      fails, the run costs about what the sets of two or more traces would
      have.  Otherwise, and at max_traces 1, it is skipped.  k counts binder
      nodes, an upper bound on the binders along any path.  A sentence with
      a one-trace model never pays for this run; one whose first model has
      two or more traces pays it on top of the search;
    - mixed: every set is tried.
    An evaluator that stops being monotone in the universe (a joint Since
    closing a cycle early, say) could make this miss a model; None then
    still reads as unknown, never as a wrong answer.
    """
    if max_traces < 1:
        raise ValueError("max_traces must be >= 1")
    # every lasso within the bounds normalizes to a canonical one within them,
    # and normalize returns exactly those as is
    candidates = [t for t in enumerate_lassos(ap, max_prefix, max_loop) if normalize(t) is t]
    cache = EvalCache()
    if check_traceset(candidates[:1], f, cfg, cache=cache).is_holds:
        return candidates[:1]
    program = cache.program(f, cfg, cache.sentence_context(f), frozenset())
    for t in candidates[1:]:
        if program.run((t,), {}).is_holds:
            return [t]
    shape = quantifier_shape(f)
    if shape == "forall" or max_traces == 1:
        return None
    # the binder count is the one structural query the fold does not answer
    if shape == "exists" and sum(
            type(n) is Exists or type(n) is Forall for n in postorder(f)) <= max_traces:
        if not program.run(candidates, {}).is_holds:
            return None
    for size in range(2, max_traces + 1):
        for s in itertools.combinations(candidates, size):
            if program.run(s, {}).is_holds:
                return list(s)
    return None


# -- concrete syntax ----------------------------------------------------------
#
# forall x. / exists x. binders; C{x,y} phi contexts; X[g] phi, phi U[g] psi,
# Y[g] phi, phi S[g] psi with comma-separated PLTL formulas inside brackets;
# atoms p_x, true, false; booleans ! | & -> <->; sugar F[g] G[g] O[g] H[g]; parentheses.


class _HyperParser(pl._Parser):
    binders = {"exists": Exists, "forall": Forall}
    ops = {"X": Next, "Y": Yesterday, "F": ev, "G": alw,
           "O": once, "H": hist, "U": Until, "S": Since}

    def index(self) -> tuple[Gamma]:
        self.take("[")
        members = []
        if self.peek() != ("sym", "]"):
            while True:
                sub = _PltlParser(self.toks, self.ap)
                sub.pos = self.pos
                members.append(sub.formula())
                self.pos = sub.pos
                if self.peek() == ("sym", ","):
                    self.take()
                    continue
                break
        self.take("]")
        return (frozenset(members),)

    def unary(self) -> Hyper:
        if self.peek() == ("id", "C") and self.pos + 1 < len(self.toks) \
                and self.toks[self.pos + 1][1] == "{":
            self.take()
            self.take("{")
            vs = [self.ident("context variable")]
            while self.peek() == ("sym", ","):
                self.take()
                vs.append(self.ident("context variable"))
            self.take("}")
            return Context(frozenset(vs), self.unary())
        return super().unary()

    def leaf(self) -> Hyper:
        nxt = self.peek()
        if nxt is not None and nxt[0] == "id":
            tok = nxt[1]
            best = None
            for p in self.ap:
                if tok.startswith(p + "_") and (best is None or len(p) > len(best)):
                    best = p
            if best is None:
                self.error(f"expected an atom of the form prop_var over ap {sorted(self.ap)}")
            if tok == best + "_":
                self.error("expected a trace variable after the underscore")
            self.take()
            return Atom(best, tok[len(best) + 1:])
        self.error("expected a formula")


def parse_hyper(text: str, ap: Iterable[str]) -> Hyper:
    """Parse hyper concrete syntax; atom propositions must come from ap, whose
    names must pass pltl.check_prop."""
    return _HyperParser(tokenize(text), pl.checked_ap(ap)).parse()


def _render_index(f: Hyper) -> str:
    return "[" + ", ".join(sorted(render_pltl(th) for th in f.gamma)) + "]"


def _render_leaf(f: Hyper, prec: int) -> str:
    if isinstance(f, Atom):
        return f"{f.prop}_{f.var}"
    if isinstance(f, (Exists, Forall)):
        kind = "exists" if isinstance(f, Exists) else "forall"
        s = f"{kind} {f.var}. {render_hyper(f.sub, _PREC_QUANT)}"
        return f"({s})" if prec > _PREC_QUANT else s
    if isinstance(f, Context):
        s = f"C{{{','.join(sorted(f.vars))}}} {render_hyper(f.sub, _PREC_UNARY)}"
        return f"({s})" if prec > _PREC_UNARY else s
    raise TypeError(f"not a hyper formula node: {f!r}")


_HYPER = pl._Family(Next, Until, Yesterday, Since, _render_index, _render_leaf)


def render_hyper(f: Hyper, prec: int = 0) -> str:
    return pl._render(f, prec, _HYPER)
