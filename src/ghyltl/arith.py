"""Second-order arithmetic: one AST, a bounded oracle, and the two compilers
into the stuttering and context fragments.  The parser emits connectives over
comparison leaves (RawAtom); flatten rewrites those into the four flat atoms.

Only the atoms are arithmetic's own: the connectives are pltl's Not and Or,
the binders semantics' Exists and Forall, so semantics' children, rebuild,
postorder and quantifier_shape serve arithmetic too, with the atoms as leaves
(_mentions reads a comparison leaf's terms itself).  A variable is
second-order (a set) iff its name starts upper-case (_is_set_var).

Numbers are encoded as traces carrying a single marker at the encoded
position, sets as arbitrary marker traces.  Addition and multiplication are
expressed through synchronization gadgets: the stuttering encoding steps along
marker changepoints, the context encoding freezes and releases coordinates.
Multiplication needs auxiliary periodic traces whose period carries the
multiplicand.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

from . import pltl as pl
from . import semantics as hy
from .pltl import Not, Or, p_and, token_pattern, tokenize
from .semantics import EMPTY_GAMMA, EvalConfig, Exists, Forall, evaluate
from .traces import LassoTrace, PointedTrace, TransitionSystem, pointwise_union, spike_trace
from .transform import fresh_names, pos_shape, purity

HASH = "hash"
DLR = "dlr"
DLRP = "dlrp"


def num_prop(y: str) -> str:
    return f"hy_{y}"


def trace_var(v: str) -> str:
    return f"x_{v}"


# -- AST ----------------------------------------------------------------------


class Arith:
    """Base class for arithmetic AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Add(Arith):
    y1: str
    y2: str
    y3: str


@dataclass(frozen=True)
class Mul(Arith):
    y1: str
    y2: str
    y3: str


@dataclass(frozen=True)
class Less(Arith):
    y1: str
    y2: str


@dataclass(frozen=True)
class Member(Arith):
    y: str
    set_var: str


def _is_set_var(name: str) -> bool:
    return name[:1].isupper()


def _mentions(n) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The first- and second-order variables node n itself reads or binds; a
    comparison leaf reads the variables of its terms."""
    if isinstance(n, (Add, Mul)):
        return (n.y1, n.y2, n.y3), ()
    if isinstance(n, Less):
        return (n.y1, n.y2), ()
    if isinstance(n, Member):
        return (n.y,), (n.set_var,)
    if isinstance(n, (Exists, Forall)):
        return ((), (n.var,)) if _is_set_var(n.var) else ((n.var,), ())
    if isinstance(n, RawAtom):
        terms, first = [n.left] if n.kind == "in" else [n.left, n.right], []
        while terms:
            t = terms.pop()
            if isinstance(t, TVar):
                first.append(t.name)
            elif isinstance(t, (TPlus, TTimes)):
                terms += (t.right, t.left)
        return tuple(first), (n.right,) if n.kind == "in" else ()
    return (), ()


def arith_vars(f: Arith) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(first, second, free): the first- and second-order variables any node
    of f reads or binds, and the variables f reads outside every binder of
    theirs, from one fold over postorder."""
    first: set[str] = set()
    second: set[str] = set()
    free: dict[int, frozenset[str]] = {}
    for n in hy.postorder(f):
        ones, twos = _mentions(n)
        first.update(ones)
        second.update(twos)
        out = frozenset().union(*(free[id(c)] for c in hy.children(n)))
        free[id(n)] = out - {n.var} if isinstance(n, (Exists, Forall)) else out | {*ones, *twos}
    return frozenset(first), frozenset(second), free[id(f)]


def _require_flat_sentence(f: Arith) -> None:
    """Reject a node of no flat form, a free variable, and a variable whose
    case contradicts where it stands: an upper-case (set) name where a number
    goes, or a lower-case one where a set goes.  A binder's order is its case."""
    nodes = hy.postorder(f)
    if not all(isinstance(n, (Add, Mul, Less, Member, Not, Or, Exists, Forall)) for n in nodes):
        raise TypeError("expected a flat arithmetic sentence; run flatten first")
    free = arith_vars(f)[2]
    if free:
        raise ValueError(f"sentence must be closed; free variables {sorted(free)}")
    for n in nodes:
        for second, names in enumerate(_mentions(n)):
            for v in names:
                if _is_set_var(v) != second:
                    raise ValueError(f"{'lower' if second else 'upper'}-case variable {v!r} "
                                     f"stands for a {'set' if second else 'number'}")


def _subsets(cap: int) -> list[frozenset[int]]:
    """Every subset of 0..cap, 2^(cap+1) of them."""
    return [frozenset(i for i in range(cap + 1) if mask >> i & 1)
            for mask in range(1 << (cap + 1))]


def arith_eval_bounded(f: Arith, n: int, bit_cap: int = 12) -> bool:
    """Evaluate with first-order quantifiers over 0..n and second-order
    quantifiers over subsets of 0..min(n, bit_cap).

    Exact for sentences whose quantifiers are semantically bounded below n.
    The subsets are built when the first second-order quantifier is reached.
    The sentence is checked as by the compilers (_require_flat_sentence).
    """
    if n < 1 or bit_cap < 0:
        raise ValueError(f"need bound >= 1 and bit_cap >= 0, got {n}, {bit_cap}")
    _require_flat_sentence(f)
    cap = min(n, bit_cap)
    subsets: list[frozenset[int]] = []

    def go(node: Arith, env: dict) -> bool:
        if isinstance(node, Add):
            return env[node.y1] + env[node.y2] == env[node.y3]
        if isinstance(node, Mul):
            return env[node.y1] * env[node.y2] == env[node.y3]
        if isinstance(node, Less):
            return env[node.y1] < env[node.y2]
        if isinstance(node, Member):
            return env[node.y] in env[node.set_var]
        if isinstance(node, Not):
            return not go(node.sub, env)
        if isinstance(node, Or):
            return go(node.left, env) or go(node.right, env)
        if isinstance(node, (Exists, Forall)):
            if _is_set_var(node.var):
                if not subsets:
                    subsets.extend(_subsets(cap))
                domain = subsets
            else:
                domain = range(n + 1)
            vals = (go(node.sub, {**env, node.var: v}) for v in domain)
            return any(vals) if isinstance(node, Exists) else all(vals)
        raise TypeError(f"not a flat arithmetic node: {node!r}")

    return go(f, {})


# -- concrete syntax with nested terms ---------------------------------------


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TConst:
    value: int


@dataclass(frozen=True)
class TPlus:
    left: object
    right: object


@dataclass(frozen=True)
class TTimes:
    left: object
    right: object


@dataclass(frozen=True)
class RawAtom:
    """Comparison leaf over terms: kind is '=', '<', or 'in' (rhs then a set var)."""

    kind: str
    left: object
    right: object


_ARITH_TOKENS = token_pattern(("<->", "->", "!", "|", "&", "(", ")", ".", "<", "=", "+", "*"))
_TERM_OPS = {"+": (0, False, TPlus), "*": (1, False, TTimes)}
_TERM_FOLLOW = ("+", "*", "=", "<", "in")


class _ArithParser(pl._Parser):
    binders = {"exists": Exists, "forall": Forall}

    def __init__(self, toks: list[tuple[str, str, int, int]]):
        super().__init__(toks)
        # the token after the ')' that matches each matched '(', None at the end
        self.follow, opens = {}, []
        for i, (_, v, _, _) in enumerate(toks):
            if v == "(":
                opens.append(i)
            elif v == ")" and opens:
                self.follow[opens.pop()] = toks[i + 1][1] if i + 1 < len(toks) else None

    def binder_var(self) -> str:
        nxt = self.peek()
        if nxt is None or nxt[0] != "id" or nxt[1][0].isdigit():
            self.error("expected a variable name")
        return self.take()

    def primary(self):
        # a group whose matching ')' is followed by + * = < or in opens a term;
        # any other group is a parenthesized formula
        if self.peek() == ("sym", "(") and self.follow.get(self.pos) not in _TERM_FOLLOW:
            return super().primary()
        return self.comparison()

    def comparison(self):
        left = self.term()
        nxt = self.peek()
        if nxt == ("sym", "="):
            self.take()
            return RawAtom("=", left, self.term())
        if nxt == ("sym", "<"):
            self.take()
            return RawAtom("<", left, self.term())
        if nxt == ("id", "in"):
            self.take()
            sv = self.peek()
            if sv is None or sv[0] != "id" or not _is_set_var(sv[1]):
                self.error("expected a second-order (upper-case) variable after 'in'")
            self.take()
            return RawAtom("in", left, sv[1])
        self.error("expected '=', '<' or 'in' after a term")

    def term(self):
        return self.infix(_TERM_OPS, self.prim)

    def prim(self):
        nxt = self.peek()
        if nxt == ("sym", "("):
            self.take()
            t = self.term()
            self.take(")")
            return t
        if nxt is not None and nxt[0] == "id":
            if _is_set_var(nxt[1]):
                self.error(f"second-order variable {nxt[1]!r} cannot appear in a term")
            tok = self.take()
            return TConst(int(tok)) if tok.isdigit() else TVar(tok)
        self.error("expected a term")


def parse_arith(text: str) -> Arith:
    """Parse the nested-term concrete syntax: the AST's connectives and
    quantifiers over RawAtom comparison leaves (see flatten)."""
    return _ArithParser(tokenize(text, _ARITH_TOKENS)).parse()


class _Flattener:
    # each fresh variable carries its defining conjuncts; the quantifier is
    # wrapped right around them so exhaustive evaluation prunes level by level
    def __init__(self, taken: set[str]):
        self.fresh = fresh_names("t", taken)

    def term(self, t, bindings: list[tuple[str, list[Arith]]]) -> str:
        if isinstance(t, TVar):
            return t.name
        if isinstance(t, TConst):
            return self.constant(t.value, bindings)
        left = self.term(t.left, bindings)
        right = self.term(t.right, bindings)
        v = next(self.fresh)
        bindings.append((v, [(Add if isinstance(t, TPlus) else Mul)(left, right, v)]))
        return v

    def constant(self, k: int, bindings: list[tuple[str, list[Arith]]]) -> str:
        # 0 is the unique additive idempotent, 1 the other multiplicative one;
        # larger constants are built by doubling along the binary digits of k
        # after the leading 1, adding 1 after each doubling whose digit is 1
        if k == 0:
            v = next(self.fresh)
            bindings.append((v, [Add(v, v, v)]))
            return v
        one = next(self.fresh)
        bindings.append((one, [Mul(one, one, one), Not(Add(one, one, one))]))
        prev = one
        for digit in bin(k)[3:]:
            for addend in (prev, one) if digit == "1" else (prev,):
                nxt = next(self.fresh)
                bindings.append((nxt, [Add(prev, addend, nxt)]))
                prev = nxt
        return prev

    def atom(self, raw: RawAtom) -> Arith:
        if not isinstance(raw, RawAtom):
            raise TypeError(f"not a raw arithmetic node: {raw!r}")
        bindings: list[tuple[str, list[Arith]]] = []
        if raw.kind == "in":
            v = self.term(raw.left, bindings)
            core: Arith = Member(v, raw.right)
        elif raw.kind == "<":
            v1 = self.term(raw.left, bindings)
            v2 = self.term(raw.right, bindings)
            core = Less(v1, v2)
        else:
            core = self.equation(raw.left, raw.right, bindings)
        for v, defs in reversed(bindings):
            for d in reversed(defs):
                core = p_and(d, core)
            core = Exists(v, core)
        return core

    def equation(self, left, right, bindings) -> Arith:
        if not isinstance(left, (TPlus, TTimes)) and isinstance(right, (TPlus, TTimes)):
            left, right = right, left
        if isinstance(left, (TPlus, TTimes)):
            a = self.term(left.left, bindings)
            b = self.term(left.right, bindings)
            c = self.term(right, bindings)
            return (Add if isinstance(left, TPlus) else Mul)(a, b, c)
        v1 = self.term(left, bindings)
        v2 = self.term(right, bindings)
        # v1 = v2 as mutual non-strictness of <
        return Not(Or(Less(v1, v2), Less(v2, v1)))


def _map_leaves(f: Arith, leaf) -> Arith:
    """f with each leaf (a node below every connective and quantifier)
    replaced by leaf(node), called once per occurrence, left to right."""
    if isinstance(f, (Not, Or, Exists, Forall)):
        return hy.rebuild(f, [_map_leaves(c, leaf) for c in hy.children(f)])
    return leaf(f)


def flatten(raw: Arith) -> Arith:
    """Rewrite a parsed tree so every atom is one of the four flat forms,
    introducing fresh existentially quantified first-order variables."""
    first, second, _ = arith_vars(raw)
    fl = _Flattener({*first, *second})
    return _map_leaves(raw, fl.atom)


# -- compilers ----------------------------------------------------------------


def dealias(f: Arith) -> Arith:
    """Split repeated variables out of addition/multiplication atoms.

    The trace gadgets drive the three atom coordinates through different
    context/stutter phases, which degenerates when two of them share a trace
    variable (e.g. the idempotence atoms the constant encoding produces).
    Fresh variables pinned by order-based equality restore the precondition;
    comparison and membership atoms are alias-safe.
    """
    first, second, _ = arith_vars(f)
    fresh = fresh_names("u", {*first, *second})

    def split(node: Arith) -> Arith:
        ys = [node.y1, node.y2, node.y3]
        seen: set[str] = set()
        renamed: list[str] = []
        eqs: list[tuple[str, str]] = []
        for y in ys:
            if y in seen:
                u = next(fresh)
                eqs.append((u, y))
                renamed.append(u)
            else:
                seen.add(y)
                renamed.append(y)
        if not eqs:
            return node
        core: Arith = type(node)(*renamed)
        for u, y in reversed(eqs):
            same = Not(Or(Less(u, y), Less(y, u)))
            core = Exists(u, p_and(same, core))
        return core

    def leaf(node: Arith) -> Arith:
        if isinstance(node, (Add, Mul)):
            return split(node)
        if isinstance(node, (Less, Member)):
            return node
        raise TypeError(f"not a flat arithmetic node: {node!r}")

    return _map_leaves(f, leaf)


@dataclass(frozen=True)
class CompiledArtifact:
    system: TransitionSystem
    sentence: hy.Hyper
    encoding: str
    var_map: dict[str, str]


def dollar_blocks(period: int, dollar: str, marker: tuple[str, int] | None = None) -> LassoTrace:
    """The trace (dollar^period empty^period)^omega of a multiplication
    witness, with marker = (prop, pos) one prop added at pos."""
    if period < 1:
        raise ValueError("period must be >= 1")
    blocks = LassoTrace(frozenset({dollar}), (),
                        (frozenset({dollar}),) * period + (frozenset(),) * period)
    return blocks if marker is None else pointwise_union(blocks, spike_trace((), *marker))


def _full_shift_ts(components: list[tuple[str, frozenset[str]]]) -> TransitionSystem:
    """Disjoint fully connected components, one per alphabet; realizes the
    union of the full shift spaces over the given alphabets."""
    ap: set[str] = set()
    vertices: list[str] = []
    edges: set[tuple[str, str]] = set()
    labels: dict[str, frozenset[str]] = {}
    for comp_id, alphabet in components:
        ap |= alphabet
        subsets = [frozenset(c) for n in range(len(alphabet) + 1)
                   for c in itertools.combinations(sorted(alphabet), n)]
        ids = [f"{comp_id}{k}" for k in range(len(subsets))]
        for vid, letter in zip(ids, subsets):
            vertices.append(vid)
            labels[vid] = letter
        edges.update((a, b) for a in ids for b in ids)
    return TransitionSystem(frozenset(ap), tuple(vertices), frozenset(edges),
                            frozenset(vertices), labels)


class _Compiler:
    """hyp(.): the one walk over flat arithmetic shared by both encodings.

    A number y is a trace carrying a single marker(y), a set a trace carrying
    nothing but hash; a subclass fixes marker(y), the gadgets for + and *,
    and the traces those gadgets quantify over: witnesses(atom, xs, ys) are
    the auxiliary traces of atom's gadget, built at the values xs (a +
    witness's y2 layer, a * witness's period) and ys (a witness's y3 layer),
    none for an atom whose gadget quantifies none.
    """

    def __init__(self, ap: frozenset[str]):
        self.ap = ap
        self.fresh = fresh_names("w", set())
        self.var_map: dict[str, str] = {}

    def at(self, y: str) -> hy.Hyper:
        """The marker of number y on its trace variable."""
        return hy.Atom(self.marker(y), trace_var(y))

    def number(self, y: str, n: int) -> LassoTrace:
        """The trace of number y with value n: marker(y) at n alone."""
        return spike_trace((), self.marker(y), n)

    def compile(self, f: Arith) -> hy.Hyper:
        if isinstance(f, (Exists, Forall)):
            xv = trace_var(f.var)
            self.var_map[f.var] = xv
            if _is_set_var(f.var):
                guard = purity(xv, HASH, self.ap)
            else:
                guard = pos_shape(xv, self.marker(f.var), self.ap)
            if isinstance(f, Exists):
                return hy.Exists(xv, hy.h_and(guard, self.compile(f.sub)))
            return hy.Forall(xv, hy.h_implies(guard, self.compile(f.sub)))
        if isinstance(f, (Not, Or)):
            return hy.rebuild(f, [self.compile(c) for c in hy.children(f)])
        if isinstance(f, Member):
            return hy.ev(EMPTY_GAMMA, hy.h_and(self.at(f.y),
                                               hy.Atom(HASH, trace_var(f.set_var))))
        if isinstance(f, Less):
            return hy.ev(EMPTY_GAMMA, hy.h_and(
                self.at(f.y1), hy.Next(EMPTY_GAMMA, hy.ev(EMPTY_GAMMA, self.at(f.y2)))))
        if isinstance(f, Add):
            return self.hyp_add(f.y1, f.y2, f.y3)
        if isinstance(f, Mul):
            return self.hyp_mul(f.y1, f.y2, f.y3)
        raise TypeError(f"not a flat arithmetic node: {f!r}")

    def alpha_blocks(self, w: str, wp: str, wp_dollar: str,
                     w_ap: frozenset[str]) -> hy.Hyper:
        """alpha1 and alpha2: w is a dlr-block trace carrying nothing else of
        w_ap, wp a wp_dollar-block trace carrying nothing else of ap, and the
        blocks of the two start and end together."""
        dw = hy.Atom(DLR, w)
        dp = hy.Atom(wp_dollar, wp)
        alpha1 = hy.h_all([
            dw,
            hy.alw(EMPTY_GAMMA, hy.ev(EMPTY_GAMMA, dw)),
            hy.alw(EMPTY_GAMMA, hy.ev(EMPTY_GAMMA, hy.Not(dw))),
            purity(w, DLR, w_ap),
            dp,
            hy.alw(EMPTY_GAMMA, hy.ev(EMPTY_GAMMA, dp)),
            hy.alw(EMPTY_GAMMA, hy.ev(EMPTY_GAMMA, hy.Not(dp))),
            purity(wp, wp_dollar, self.ap),
        ])
        return hy.h_and(alpha1, hy.alw(EMPTY_GAMMA, hy.h_iff(dw, dp)))


class _StutterCompiler(_Compiler):
    """hyp(.) into the stuttering fragment over {hash} + per-variable markers
    + {dlr, dlrp}."""

    def __init__(self, v1: Iterable[str]):
        self.v1 = sorted(set(v1))
        super().__init__(frozenset({HASH, DLR, DLRP} | {num_prop(y) for y in self.v1}))

    def marker(self, y: str) -> str:
        return num_prop(y)

    def witnesses(self, atom: Arith, xs: Sequence[int], ys: Sequence[int]) -> list[LassoTrace]:
        # + : a y2 marker at each x beside a y3 marker at each y; * : for
        # each period x, dollar blocks with a y3 marker at each y, then the
        # primed blocks
        if isinstance(atom, Add):
            return [pointwise_union(self.number(atom.y2, x), self.number(atom.y3, y))
                    for x in xs for y in ys]
        if isinstance(atom, Mul):
            out = []
            for x in xs:
                if x > 0:
                    out += [dollar_blocks(x, DLR, (self.marker(atom.y3), y)) for y in ys]
                    out.append(dollar_blocks(x, DLRP))
            return out
        return []

    def hyp_add(self, y1: str, y2: str, y3: str) -> hy.Hyper:
        a1, a2, a3 = self.at(y1), self.at(y2), self.at(y3)
        w = next(self.fresh)
        match = hy.h_and(
            hy.alw(EMPTY_GAMMA, hy.h_iff(a2, hy.Atom(num_prop(y2), w))),
            hy.alw(EMPTY_GAMMA, hy.h_iff(a3, hy.Atom(num_prop(y3), w))))
        step2 = frozenset({pl.Atom(num_prop(y2))})
        alpha_add = hy.Exists(w, hy.h_and(match, hy.Next(step2, hy.ev(
            EMPTY_GAMMA,
            hy.h_and(a1, hy.Next(EMPTY_GAMMA, hy.Atom(num_prop(y3), w)))))))
        return hy.h_any([
            hy.h_and(a1, hy.ev(EMPTY_GAMMA, hy.h_and(a2, a3))),
            hy.h_and(a2, hy.ev(EMPTY_GAMMA, hy.h_and(a1, a3))),
            hy.h_all([hy.Not(a1), hy.Not(a2), alpha_add]),
        ])

    def alpha_periodic(self, w: str, wp: str, y3: str) -> hy.Hyper:
        """alpha1 and alpha2 and alpha3: w is a dollar-block trace (plus a
        y3-marker layer), wp its primed twin, and the blocks all have equal
        length."""
        dw = hy.Atom(DLR, w)
        dp = hy.Atom(DLRP, wp)
        both = frozenset({pl.Atom(DLR), pl.Atom(DLRP)})
        primed = frozenset({pl.Atom(DLRP)})
        alpha3 = hy.alw(both, hy.h_and(
            hy.h_implies(dw, hy.Next(primed, hy.Until(
                EMPTY_GAMMA, hy.h_and(dw, hy.Not(dp)),
                hy.h_all([hy.Not(dw), hy.Not(dp), hy.Next(EMPTY_GAMMA, dp)])))),
            hy.h_implies(hy.Not(dw), hy.Next(primed, hy.Until(
                EMPTY_GAMMA, hy.h_and(hy.Not(dw), dp),
                hy.h_all([dw, dp, hy.Next(EMPTY_GAMMA, hy.Not(dp))]))))))
        return hy.h_and(self.alpha_blocks(w, wp, DLRP, self.ap - {num_prop(y3)}), alpha3)

    def hyp_mul(self, y1: str, y2: str, y3: str) -> hy.Hyper:
        a1, a2, a3 = self.at(y1), self.at(y2), self.at(y3)
        w = next(self.fresh)
        wp = next(self.fresh)
        dw = hy.Atom(DLR, w)
        dollar = frozenset({pl.Atom(DLR)})
        alpha_mult = hy.Exists(w, hy.Exists(wp, hy.h_all([
            self.alpha_periodic(w, wp, y3),
            hy.Until(EMPTY_GAMMA, dw, hy.h_and(hy.Not(dw), a1)),
            hy.alw(EMPTY_GAMMA, hy.h_iff(a3, hy.Atom(num_prop(y3), w))),
            hy.ev(dollar, hy.h_and(a2, hy.Atom(num_prop(y3), w))),
        ])))
        return hy.h_any([
            hy.h_and(a1, a3),
            hy.h_and(a2, a3),
            hy.h_all([hy.Not(a1), hy.Not(a2), alpha_mult]),
        ])

    def system(self) -> TransitionSystem:
        components = [("set", frozenset({HASH}))]
        components += [(f"num_{y}_", frozenset({num_prop(y), DLR})) for y in self.v1]
        components.append(("aux", frozenset({DLRP})))
        return _full_shift_ts(components)


class _ContextCompiler(_Compiler):
    """hyp(.) into the context fragment over {hash, dlr}."""

    def __init__(self, strict_fidelity: bool = False):
        super().__init__(frozenset({HASH, DLR}))
        self.strict_fidelity = strict_fidelity

    def marker(self, y: str) -> str:
        return HASH

    def witnesses(self, atom: Arith, xs: Sequence[int], ys: Sequence[int]) -> list[LassoTrace]:
        # only * quantifies: the dollar blocks of each period x
        return [dollar_blocks(x, DLR) for x in xs if x > 0] if isinstance(atom, Mul) else []

    def hyp_add(self, y1: str, y2: str, y3: str) -> hy.Hyper:
        x1, x2, x3 = trace_var(y1), trace_var(y2), trace_var(y3)
        inner = hy.Context(frozenset({x2, x3}), hy.ev(EMPTY_GAMMA, hy.h_and(
            self.at(y2), self.at(y3))))
        return hy.Context(frozenset({x1, x3}), hy.ev(EMPTY_GAMMA, hy.h_and(
            self.at(y1), inner)))

    def alpha_per(self, w: str, wp: str) -> hy.Hyper:
        dw = hy.Atom(DLR, w)
        dp = hy.Atom(DLR, wp)
        alpha3 = hy.Context(frozenset({w}), hy.Until(
            EMPTY_GAMMA, dw,
            hy.h_and(hy.Not(dw),
                     hy.Context(frozenset({w, wp}),
                                hy.alw(EMPTY_GAMMA, hy.h_iff(dw, hy.Not(dp)))))))
        return hy.h_and(self.alpha_blocks(w, wp, DLR, self.ap), alpha3)

    def _psi_mult(self, ya: str, yb: str, y3: str) -> tuple[hy.Hyper, hy.Hyper]:
        """Premise and conclusion for the case 0 < n_a <= n_b with n_b >= 2."""
        xa, xb, x3 = trace_var(ya), trace_var(yb), trace_var(y3)
        ha, hb, h3 = self.at(ya), self.at(yb), self.at(y3)
        premise = hy.h_and(
            hy.Next(EMPTY_GAMMA, hy.ev(EMPTY_GAMMA, hy.h_and(ha, hy.ev(EMPTY_GAMMA, hb)))),
            hy.Next(EMPTY_GAMMA, hy.Next(EMPTY_GAMMA, hy.ev(EMPTY_GAMMA, hb))))
        w0, w0p, w1, w1p = (next(self.fresh) for _ in range(4))
        d0, d1 = hy.Atom(DLR, w0), hy.Atom(DLR, w1)
        algn = hy.h_and(
            hy.h_iff(d0, hy.Not(hy.Next(EMPTY_GAMMA, d0))),
            hy.h_iff(d1, hy.Not(hy.Next(EMPTY_GAMMA, d1))))
        chase = hy.Context(frozenset({xa, x3, w0}), hy.ev(EMPTY_GAMMA, hy.h_and(
            ha,
            hy.Context(frozenset({x3, w0, w1}), hy.Until(
                EMPTY_GAMMA, hy.Not(algn),
                hy.h_and(algn, hy.Next(EMPTY_GAMMA, h3)))))))
        conclusion = hy.Exists(w0, hy.Exists(w0p, hy.Exists(w1, hy.Exists(w1p, hy.h_all([
            self.alpha_per(w0, w0p),
            self.alpha_per(w1, w1p),
            hy.Until(EMPTY_GAMMA, d0, hy.h_and(hy.Not(d0), hb)),
            hy.Until(EMPTY_GAMMA, d1, hy.h_and(hy.Not(d1), hy.Next(EMPTY_GAMMA, hb))),
            chase,
        ])))))
        return premise, conclusion

    def hyp_mul(self, y1: str, y2: str, y3: str) -> hy.Hyper:
        h1, h2, h3 = self.at(y1), self.at(y2), self.at(y3)
        psi1 = hy.h_and(hy.Or(h1, h2), h3)
        psi2 = hy.Next(EMPTY_GAMMA, hy.h_all([h1, h2, h3]))
        prem3, concl3 = self._psi_mult(y1, y2, y3)
        prem4, concl4 = self._psi_mult(y2, y1, y3)
        join = hy.h_implies if self.strict_fidelity else hy.h_and
        return hy.h_any([psi1, psi2, join(prem3, concl3), join(prem4, concl4)])

    def system(self) -> TransitionSystem:
        return _full_shift_ts([("set", frozenset({HASH})), ("aux", frozenset({DLR}))])


def _compiler(encoding: str, v1: Iterable[str], strict_fidelity: bool) -> _Compiler:
    """The compiler of an encoding; v1 names the first-order variables.  The
    stutter encoding has no conditional cases, so it ignores strict_fidelity."""
    if encoding == "stutter":
        return _StutterCompiler(v1)
    if encoding == "context":
        return _ContextCompiler(strict_fidelity)
    raise ValueError(f"unknown encoding {encoding!r}")


def _renamed(f: Arith, names: dict[str, str]) -> Arith:
    """Flat f with every variable y it reads or binds renamed names.get(y, y)."""
    if isinstance(f, (Exists, Forall)):
        return type(f)(names.get(f.var, f.var), _renamed(f.sub, names))
    if isinstance(f, (Not, Or)):
        return hy.rebuild(f, [_renamed(c, names) for c in hy.children(f)])
    return type(f)(*(names.get(y, y) for y in astuple(f)))


def _encodable(f: Arith) -> tuple[Arith, dict[str, str]]:
    """dealias(f) with each number whose name has a '_' renamed to a fresh
    name without one, and that renaming.  An atom prints as prop_var and reads
    back at the longest proposition prefix, so beside a_x the marker hy_a on
    x_a would read back as hy_a_x on a."""
    f = dealias(f)
    first, second, _ = arith_vars(f)
    fresh = fresh_names("v", {*first, *second})
    names = {y: next(fresh) for y in sorted(first) if "_" in y}
    return _renamed(f, names), names


def compile_arith(f: Arith, encoding: str, strict_fidelity: bool = False) -> CompiledArtifact:
    """Compile a closed, flat sentence into the fragment of the named
    encoding, "stutter" or "context", plus its witness transition system.

    The context encoding emits its two conditional multiplication cases as
    guard-conjunctions; strict_fidelity keeps them as bare implications,
    which validates wrong products whenever a premise is vacuously false.
    The stutter encoding ignores strict_fidelity.
    """
    _require_flat_sentence(f)
    f, names = _encodable(f)
    comp = _compiler(encoding, arith_vars(f)[0], strict_fidelity)
    sentence = comp.compile(f)
    original = {new: y for y, new in names.items()}
    var_map = {original.get(y, y): x for y, x in comp.var_map.items()}
    return CompiledArtifact(comp.system(), sentence, encoding, var_map)


# -- gadget verification ------------------------------------------------------


class GadgetBoundError(ValueError):
    pass


_GADGET_VARS = ("y1", "y2", "y3")
_RELATIONS = {"add": Add, "mul": Mul}


def _gadget(relation: str, encoding: str, strict_fidelity: bool = False) -> tuple[Arith, _Compiler]:
    """The atom y1 (+|*) y2 = y3 a relation name stands for, and the compiler
    of an encoding name; ValueError on an unknown name."""
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    return _RELATIONS[relation](*_GADGET_VARS), _compiler(encoding, _GADGET_VARS, strict_fidelity)


def gadget_formula(relation: str, encoding: str, strict_fidelity: bool = False) -> hy.Hyper:
    """The compiled atom formula for y1 (+|*) y2 = y3, with free trace
    variables x_y1, x_y2, x_y3."""
    atom, comp = _gadget(relation, encoding, strict_fidelity)
    return comp.compile(atom)


def gadget_assignment(encoding: str, n1: int, n2: int, n3: int) -> dict[str, PointedTrace]:
    comp = _compiler(encoding, _GADGET_VARS, False)
    return {trace_var(y): PointedTrace(comp.number(y, n), 0)
            for y, n in zip(_GADGET_VARS, (n1, n2, n3))}


def gadget_universe(relation: str, encoding: str, n1: int, n2: int, n3: int) -> list[LassoTrace]:
    """The gadget's witness traces at the values its quantifiers need, plus
    a small family of decoys."""
    atom, comp = _gadget(relation, encoding)
    if encoding == "context":
        xs, ys = sorted({n1, n1 - 1, n2, n2 - 1}), []
    elif isinstance(atom, Add):
        xs, ys = [n2], [n3, n1 + n2]
    else:
        xs, ys = sorted({n1, n2}), [n3, n1 * n2]
    dollar = frozenset({DLR})
    traces = comp.witnesses(atom, xs, ys) + [
        LassoTrace(dollar, (), (frozenset(),)),
        LassoTrace(dollar, (), (dollar,)),
        LassoTrace(dollar, (), (dollar, frozenset())),
        comp.number("y3", 0),
    ]
    if encoding == "stutter":
        traces.append(dollar_blocks(1, DLRP))
    # deduplicate by value, preserving order
    return list(dict.fromkeys(traces))


def verify_gadget(relation: str, n1: int, n2: int, n3: int, encoding: str,
                  cfg: EvalConfig | None = None,
                  strict_fidelity: bool = False) -> bool:
    """Evaluate the compiled addition/multiplication gadget on directly
    constructed witness traces; True iff the gadget accepts (n1, n2, n3)."""
    _gadget(relation, encoding)  # an unknown name raises first
    if min(n1, n2, n3) < 0:
        raise ValueError("gadget arguments must be nonnegative")
    formula = gadget_formula(relation, encoding, strict_fidelity)
    assignment = gadget_assignment(encoding, n1, n2, n3)
    universe = gadget_universe(relation, encoding, n1, n2, n3)
    cache = hy.EvalCache()
    context = cache.all_vars(formula) | set(assignment)
    verdict = evaluate(universe, assignment, context, formula,
                       cfg or EvalConfig(), cache=cache)
    if verdict.is_unknown:
        raise GadgetBoundError(f"gadget evaluation hit a bound: {verdict.reason}")
    return verdict.is_holds


def witness_universe(f: Arith, encoding: str, value_bound: int) -> list[LassoTrace]:
    """A quantifier universe rich enough for sentences whose first-order
    values stay at or below value_bound: every number at every value, each
    atom's witnesses over those values, and the sets within 0..min(value_bound, 8)."""
    f = _encodable(f)[0]
    first, second, _ = arith_vars(f)
    comp = _compiler(encoding, first, False)
    values = range(value_bound + 1)
    traces = [comp.number(y, n) for y in sorted(first) for n in values]
    for n in hy.postorder(f):
        traces += comp.witnesses(n, values, values)
    if second:
        for members in _subsets(min(value_bound, 8)):
            prefix = tuple(frozenset({HASH}) if i in members else frozenset()
                           for i in range(max(members, default=-1) + 1))
            traces.append(LassoTrace(frozenset({HASH}), prefix, (frozenset(),)))
    return list(dict.fromkeys(traces))


def alpha_per_context(x: str, xp: str) -> hy.Hyper:
    """The context-encoding periodicity conjunction for the pair (x, xp)."""
    return _ContextCompiler().alpha_per(x, xp)


def alpha_per_stutter(x: str, xp: str) -> hy.Hyper:
    """The stuttering-encoding periodicity conjunction for the pair (x, xp)."""
    return _StutterCompiler(_GADGET_VARS).alpha_periodic(x, xp, "y3")
