"""Prenexification via position traces, and the position-trace family itself.

Quantifiers under temporal operators are hoisted by trading the operator's
implicit position quantification for explicit quantification over marker
traces: the trace empty^i {hash} empty^omega encodes position i.  A fresh
variable bound to such a trace is driven to its marker inside a context that
also advances the original coordinates, which re-synchronizes the evaluation
point; past operators walk back from the marker until the position variable
sits at its origin again.  Original quantifiers are relativized so that they
ignore the added marker traces.

The hoisted sentence is prenex over ap + {hash}; evaluating it needs the
position traces in the model, which is what makes the transformation an
equivalence in the sense: L satisfies f iff L + pos_traces satisfies the
output.  A finite slice of the (infinite) position-trace family gives a
bounded approximation.

Both transforms first make binder names unique (alpha_unique), which
refuses a context that would step another trace once its binders are renamed
or hoisted.  Each rewrite spells out only the node classes it changes and
rebuilds every other node over its rewritten operands (semantics.rebuild, the
inverse of semantics.children).  The single-marker shape (pos_shape, purity)
and the fresh-name source (fresh_names, also alpha_unique's) serve the
arithmetic compilers too, whose numbers are the same one-marker traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .pltl import TRUE, Not, Or, Top
from .semantics import (
    EMPTY_GAMMA, Atom, Context, Exists, Forall, Hyper, Next, Since,
    Until, Yesterday, _fold_of, all_vars, alw, children, ev, h_all, h_and, h_implies,
    once, postorder, rebuild, strip_prefix,
)
from .traces import LassoTrace, spike_trace

MARK = "hash"


@dataclass(frozen=True)
class PosTraceFamily:
    """The traces empty^i {hash} empty^omega for 0 <= i <= bound."""

    bound: int
    traces: tuple[LassoTrace, ...]


def pos_traces(bound: int) -> PosTraceFamily:
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    traces = tuple(spike_trace((), MARK, i, name=f"pos{i}") for i in range(bound + 1))
    return PosTraceFamily(bound, traces)


# !Y[] true: under the context {x}, holds exactly when x points at position 0
AT_ORIGIN: Hyper = Not(Yesterday(EMPTY_GAMMA, TRUE))


def mark_atom(x: str) -> Hyper:
    return Atom(MARK, x)


def fresh_names(prefix: str, taken: set[str]) -> Iterator[str]:
    """prefix0, prefix1, ... skipping the names in taken; each name drawn is
    added to taken."""
    for i in itertools.count():
        name = f"{prefix}{i}"
        if name not in taken:
            taken.add(name)
            yield name


def purity(x: str, mark: str, ap: Iterable[str]) -> Hyper:
    """x carries no proposition of ap other than mark."""
    return alw(EMPTY_GAMMA, h_all([Not(Atom(p, x)) for p in sorted(set(ap) - {mark})]))


def pos_shape(x: str, mark: str, ap: Iterable[str]) -> Hyper:
    """x carries nothing of ap but mark, and mark exactly once: the trace
    empty^i {mark} empty^omega for some i."""
    at = Atom(mark, x)
    singleton = Until(EMPTY_GAMMA, Not(at),
                      h_and(at, Next(EMPTY_GAMMA, alw(EMPTY_GAMMA, Not(at)))))
    if not set(ap) - {mark}:
        return singleton
    return h_and(purity(x, mark, ap), singleton)


def _mark_at_one(x: str) -> Hyper:
    return h_and(Not(mark_atom(x)), Next(EMPTY_GAMMA, mark_atom(x)))


def _has_mark(x: str) -> Hyper:
    # guards are evaluated under arbitrary ambient contexts, so they pin their
    # own context to exactly the variables they read
    return Context(frozenset({x}), ev(EMPTY_GAMMA, mark_atom(x)))


def _mark_before(a: str, b: str) -> Hyper:
    """Marker of a sits strictly before marker of b (both initial)."""
    return Context(frozenset({a, b}), ev(
        EMPTY_GAMMA, h_and(mark_atom(a), Next(EMPTY_GAMMA, ev(EMPTY_GAMMA, mark_atom(b))))))


def alpha_unique(f: Hyper) -> Hyper:
    """Rename binders so every bound variable name is used exactly once; a
    repeated name v takes the first free one of fresh_names(v, ...): x0.

    Context sets are renamed with the binder above them, which keeps their
    meaning only when that binder is the one they mean.  So a context with a
    temporal operator inside that names a variable some binder binds raises
    ValueError, unless a binder above it binds the name and none inside
    rebinds it.  A context with no temporal operator inside moves nothing,
    and a name that no binder binds is never captured.
    """
    return _alpha_unique(f, all_vars(f))[0]


def _alpha_unique(f: Hyper, names: Iterable[str]) -> tuple[Hyper, set[str]]:
    """alpha_unique(f) given names = all_vars(f), and all_vars of the result:
    names plus the fresh names drawn."""
    used = set(names)
    binders = {n.var for n in postorder(f) if isinstance(n, (Exists, Forall))}
    taken: set[str] = set()

    def variant(v: str) -> str:
        new = next(fresh_names(v, used)) if v in taken else v
        taken.add(new)
        return new

    def walk(n: Hyper, ren: dict[str, str]) -> Hyper:
        if isinstance(n, Atom):
            return Atom(n.prop, ren.get(n.var, n.var))
        if isinstance(n, Context):
            inner = postorder(n.sub)
            if any(isinstance(m, (Next, Until, Yesterday, Since)) for m in inner):
                rebound = {m.var for m in inner if isinstance(m, (Exists, Forall))}
                for v in sorted(n.vars & binders):
                    if v not in ren or v in rebound:
                        raise ValueError(f"context set names bound variable {v!r} outside "
                                         "its binder or across a rebinding")
            return Context(frozenset(ren.get(v, v) for v in n.vars), walk(n.sub, ren))
        if isinstance(n, (Exists, Forall)):
            new = variant(n.var)
            return type(n)(new, walk(n.sub, {**ren, n.var: new}))
        if isinstance(n, (Top, Not, Or, Next, Until, Yesterday, Since)):
            return rebuild(n, [walk(c, ren) for c in children(n)])
        raise TypeError(f"not a hyper formula node: {n!r}")

    return walk(f, {}), used


_Prefix = list[tuple[str, str]]

# the nodes a quantifier moves across unchanged but for a Not's flip
_BOOLEAN = (Atom, Top, Not, Or, Context)


def _hoisted(n: Hyper, walked: list[tuple[_Prefix, Hyper]]) -> tuple[_Prefix, Hyper]:
    """A _BOOLEAN node n over its walked operands: their prefixes in order,
    kinds flipped under a Not, and n rebuilt over their matrices."""
    prefix = [q for p, _ in walked for q in p]
    if isinstance(n, Not):
        prefix = [("forall" if k == "exists" else "exists", v) for k, v in prefix]
    return prefix, rebuild(n, [m for _, m in walked])


def _fold_prefix(prefix: _Prefix, matrix: Hyper) -> Hyper:
    out = matrix
    for kind, var in reversed(prefix):
        out = (Exists if kind == "exists" else Forall)(var, out)
    return out


def hoist_prenex(f: Hyper) -> Hyper:
    """Hoist quantifiers across boolean connectives and context operators only.

    Sound over nonempty trace universes.  Raises when a quantifier sits under
    a temporal operator; that case needs prenexify.
    """
    f = alpha_unique(f)
    nodes = _fold_of(f)[0]

    def walk(n: Hyper) -> tuple[_Prefix, Hyper]:
        if isinstance(n, _BOOLEAN):
            return _hoisted(n, [walk(c) for c in children(n)])
        if isinstance(n, (Exists, Forall)):
            p, m = walk(n.sub)
            kind = "exists" if isinstance(n, Exists) else "forall"
            return [(kind, n.var)] + p, m
        if isinstance(n, (Next, Until, Yesterday, Since)):
            if nodes[id(n)][2]:  # the kinds of the quantifiers below n
                raise ValueError("quantifier under a temporal operator; use prenexify")
            return [], n
        raise TypeError(f"not a hyper formula node: {n!r}")

    prefix, matrix = walk(f)
    return _fold_prefix(prefix, matrix)


def prenexify(f: Hyper, ap: Iterable[str]) -> Hyper:
    """Hoist every quantifier to the front; already-prenex input is returned
    unchanged.

    Non-prenex input is rewritten over ap + {hash}; its evaluation needs the
    position traces added to the model (see pos_traces).
    """
    nodes, names = _fold_of(f)[:2]
    if nodes[id(f)][0]:
        raise ValueError(f"not a sentence; free variables {list(nodes[id(f)][0])}")
    if not nodes[id(strip_prefix(f)[1])][2]:
        return f
    props = frozenset(ap)
    if MARK in props:
        raise ValueError(f"input must not use the reserved proposition {MARK!r}")
    f, used = _alpha_unique(f, names)
    top_context = frozenset(used)
    taken = set(top_context) | {MARK}
    fresh = fresh_names("pv", taken)

    def shape(x: str) -> Hyper:
        return Context(frozenset({x}), pos_shape(x, MARK, props))

    def walk(n: Hyper, context: frozenset[str], scope: frozenset[str]) \
            -> tuple[_Prefix, Hyper]:
        if isinstance(n, _BOOLEAN):
            inner = n.vars if isinstance(n, Context) else context
            return _hoisted(n, [walk(c, inner, scope) for c in children(n)])
        if isinstance(n, (Exists, Forall)):
            inner_scope = scope | {n.var}
            p, m = walk(n.sub, context, inner_scope)
            # temporal operators below this binder originally stepped the
            # variables bound so far; clamp the ambient context accordingly
            # (deeper binders insert their own, tighter clamps)
            cw = context & inner_scope
            if cw:
                m = Context(cw, m)
            kind = "exists" if isinstance(n, Exists) else "forall"
            # quantification now ranges over the model plus marker traces;
            # keep the original meaning by guarding against marked traces
            if kind == "exists":
                guarded = h_and(Not(_has_mark(n.var)), m)
            else:
                guarded = h_implies(Not(_has_mark(n.var)), m)
            return [(kind, n.var)] + p, guarded
        if isinstance(n, (Next, Until, Yesterday, Since)):
            moved = context & scope
            if not moved:
                # no bound coordinate moves: the step operators degenerate to
                # their last operand
                return walk(children(n)[-1], context, scope)
            return temporal(n, moved, [walk(c, context, scope) for c in children(n)])
        raise TypeError(f"not a hyper formula node: {n!r}")

    def temporal(n: Hyper, moved: frozenset[str], walked: list[tuple[_Prefix, Hyper]]) \
            -> tuple[_Prefix, Hyper]:
        if not any(p for p, _ in walked):
            return [], rebuild(n, [m for _, m in walked])

        def body(x: str, m: Hyper) -> Hyper:
            # the operand matrix evaluates at the walk's stop point under the
            # context its original position had, so its temporal operators do
            # not step x; binder clamps inside m handle the regions below
            # hoisted quantifiers
            at = Context(moved, m)
            if isinstance(n, (Next, Until)):
                return Context(moved | {x}, ev(n.gamma, h_and(mark_atom(x), at)))
            stop = Context(frozenset({x}), AT_ORIGIN)
            back = Context(moved | {x}, once(n.gamma, h_and(stop, at)))
            return Context(frozenset({x}), ev(EMPTY_GAMMA, h_and(mark_atom(x), back)))

        if isinstance(n, (Next, Yesterday)):
            [(p, m)] = walked
            xi = next(fresh)
            pinned = Context(frozenset({xi}), h_and(pos_shape(xi, MARK, props), _mark_at_one(xi)))
            return [("exists", xi)] + p, h_and(pinned, body(xi, m))

        (lp, lm), (rp, rm) = walked
        xi = next(fresh)
        conjuncts = [shape(xi), body(xi, rm)]
        prefix: _Prefix = [("exists", xi)] + rp
        if not isinstance(lm, Top):  # a left operand true (the F/O sugar) needs no walk
            xj = next(fresh)
            guard_j = h_and(shape(xj), _mark_before(xj, xi))
            conjuncts.append(h_implies(guard_j, body(xj, lm)))
            prefix = prefix + [("forall", xj)] + lp
        return prefix, h_all(conjuncts)

    prefix, matrix = walk(f, top_context, frozenset())
    bound = {v for _, v in prefix}
    assert taken - top_context - {MARK} <= bound, "fresh position variables must be bound"
    assert not any(isinstance(n, (Exists, Forall)) for n in postorder(matrix))
    return _fold_prefix(prefix, matrix)
