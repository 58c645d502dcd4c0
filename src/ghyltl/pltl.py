"""LTL with past (PLTL) over lasso traces.

Core connectives are true, atom, not, or, next, until, yesterday, since;
everything else (and, implies, iff, F, G, O, H, false) is expanded at
construction time.  TRUE, Not and Or (so p_and, p_implies, p_iff too) are
also the hyper and arithmetic families' true, negation and disjunction.
Evaluation goes through valuation profiles: a finite threshold/period
description of the truth values of a formula along an ultimately periodic
trace, computed compositionally (future operators by fixpoint on the lasso,
past operators by one forward pass over a prefix and two periods).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

from .traces import LassoTrace


class Pltl:
    """Base class for PLTL AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Pltl):
    """The constant true, a leaf of the PLTL and the hyper family alike."""


TRUE = Top()


@dataclass(frozen=True)
class Atom(Pltl):
    name: str


@dataclass(frozen=True)
class Not(Pltl):
    sub: object


@dataclass(frozen=True)
class Or(Pltl):
    left: object
    right: object


@dataclass(frozen=True)
class Next(Pltl):
    sub: Pltl


@dataclass(frozen=True)
class Until(Pltl):
    left: Pltl
    right: Pltl


@dataclass(frozen=True)
class Yesterday(Pltl):
    sub: Pltl


@dataclass(frozen=True)
class Since(Pltl):
    left: Pltl
    right: Pltl


def p_and(a, b):
    return Not(Or(Not(a), Not(b)))


def is_and(f) -> bool:
    """f has p_and's shape, !(!a | !b)."""
    return isinstance(f, Not) and isinstance(f.sub, Or) \
        and isinstance(f.sub.left, Not) and isinstance(f.sub.right, Not)


def p_implies(a, b):
    return Or(Not(a), b)


def p_iff(a, b):
    return p_and(p_implies(a, b), p_implies(b, a))


def eventually(f: Pltl) -> Pltl:
    return Until(TRUE, f)


def always(f: Pltl) -> Pltl:
    return Not(eventually(Not(f)))


def once(f: Pltl) -> Pltl:
    return Since(TRUE, f)


def historically(f: Pltl) -> Pltl:
    return Not(once(Not(f)))


def is_past_free(f: Pltl) -> bool:
    if isinstance(f, (Yesterday, Since)):
        return False
    if isinstance(f, (Top, Atom)):
        return True
    if isinstance(f, (Not, Next)):
        return is_past_free(f.sub)
    return is_past_free(f.left) and is_past_free(f.right)


# -- valuation profiles -------------------------------------------------------


@dataclass(frozen=True)
class ValuationProfile:
    """Truth values of a formula along a trace: exact bits below ``threshold``,
    then periodic with the given period."""

    formula: Pltl
    trace: LassoTrace
    threshold: int
    period: int
    bits: tuple[bool, ...]

    def value(self, i: int) -> bool:
        if i < self.threshold:
            return self.bits[i]
        return self.bits[self.threshold + ((i - self.threshold) % self.period)]


def valuation_profile(trace: LassoTrace, f: Pltl, memo: dict | None = None) -> ValuationProfile:
    """The ultimately periodic valuation of f on trace.

    memo maps id(formula) to the formula's profile on this trace (which holds
    the formula, so the id stays valid); it is filled for f and every
    subformula computed on the way.  Keying on identity spares hashing the
    formula, which recurses through it.  Without a memo nothing is kept.
    """
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is None:
        hit = memo[id(f)] = _compute_profile(trace, f, memo)
    return hit


def unrolled(p: ValuationProfile, n: int) -> tuple[bool, ...]:
    """p's values at positions 0..n-1: its bits, then copies of its cycle."""
    bits = p.bits
    if n <= len(bits):
        return bits[:n]
    t = p.threshold
    return (bits + bits[t:] * ((n - len(bits)) // p.period + 1))[:n]


def _compute_profile(trace: LassoTrace, f: Pltl, memo: dict) -> ValuationProfile:
    # every profile's bits are built from its operands' bits a tuple at a
    # time, each operand unrolled to the length the result needs
    if isinstance(f, Top):
        return ValuationProfile(f, trace, 0, 1, (True,))
    if isinstance(f, Atom):
        name = f.name
        bits = tuple([name in s for s in trace.prefix + trace.loop])
        return ValuationProfile(f, trace, len(trace.prefix), len(trace.loop), bits)
    if isinstance(f, Not):
        p = valuation_profile(trace, f.sub, memo)
        return ValuationProfile(f, trace, p.threshold, p.period, tuple(map(operator.not_, p.bits)))
    if isinstance(f, Or):
        a = valuation_profile(trace, f.left, memo)
        b = valuation_profile(trace, f.right, memo)
        t = max(a.threshold, b.threshold)
        l = math.lcm(a.period, b.period)
        bits = tuple(map(operator.or_, unrolled(a, t + l), unrolled(b, t + l)))
        return ValuationProfile(f, trace, t, l, bits)
    if isinstance(f, Next):
        p = valuation_profile(trace, f.sub, memo)
        t, l = max(p.threshold - 1, 0), p.period
        return ValuationProfile(f, trace, t, l, unrolled(p, t + l + 1)[1:])
    if isinstance(f, Yesterday):
        p = valuation_profile(trace, f.sub, memo)
        t, l = p.threshold + 1, p.period
        return ValuationProfile(f, trace, t, l, (False,) + unrolled(p, t - 1 + l))
    if isinstance(f, Until):
        return _until_profile(trace, f, memo)
    if isinstance(f, Since):
        return _since_profile(trace, f, memo)
    raise TypeError(f"not a PLTL node: {f!r}")


def _until_profile(trace: LassoTrace, f: Until, memo: dict) -> ValuationProfile:
    """The least fixpoint of v[i] = b[i] or (a[i] and v[i+1]) on the lasso of
    positions 0..t+l-1 whose cycle t..t+l-1 wraps v[t+l] to v[t].

    Two backward rounds over the cycle, from False, then one pass over the
    prefix.  A witness of v[t] (a position where b holds, reached through a)
    lies within the cycle, at t..t+l-1, so the first round, which only sees
    witnesses before the wrap, already ends with the exact v[t].  The second
    round starts from that exact v[t+l] = v[t], so every value it and the
    prefix pass compute is exact.
    """
    a = valuation_profile(trace, f.left, memo)
    b = valuation_profile(trace, f.right, memo)
    t = max(a.threshold, b.threshold)
    l = math.lcm(a.period, b.period)
    av, bv = unrolled(a, t + l), unrolled(b, t + l)
    v = False
    for i in range(t + l - 1, t - 1, -1):
        v = bv[i] or (av[i] and v)
    val = [False] * (t + l)
    for i in range(t + l - 1, -1, -1):
        v = val[i] = bv[i] or (av[i] and v)
    return ValuationProfile(f, trace, t, l, tuple(val))


def _since_profile(trace: LassoTrace, f: Since, memo: dict) -> ValuationProfile:
    """v[i] = b[i] or (a[i] and v[i-1]), with v[-1] = False, in one forward
    pass over t + 2l positions.

    From t on, v and v shifted by l obey one monotone recurrence: once they
    agree they agree for good, and while they differ they differ one way,
    which over t-1..t+l-1 would give v[t-1] < v[t+l-1] < v[t+2l-1] (or >).
    So the first j >= max(t, 1) with v[j-1] == v[j+l-1] is at most t + l, and
    v is periodic from j with period l.
    """
    a = valuation_profile(trace, f.left, memo)
    b = valuation_profile(trace, f.right, memo)
    t = max(a.threshold, b.threshold)
    l = math.lcm(a.period, b.period)
    v, prev = [], False
    for x, y in zip(unrolled(a, t + 2 * l), unrolled(b, t + 2 * l)):
        prev = y or (x and prev)
        v.append(prev)
    j = next(j for j in range(max(t, 1), t + l + 1) if v[j - 1] == v[j + l - 1])
    return ValuationProfile(f, trace, j, l, tuple(v[:j + l]))


def pltl_eval(trace: LassoTrace, i: int, f: Pltl) -> bool:
    """Truth of f at position i of the trace (exact, via the valuation profile)."""
    if isinstance(f, Atom):
        return f.name in trace.letter(i)
    return valuation_profile(trace, f).value(i)


# -- concrete syntax ----------------------------------------------------------
#
# atoms are identifiers; constants true false; operators ! | & -> <->, temporal
# X U Y S, sugar F G O H; parentheses.  Precedence: unary > U/S > & > | > -> > <->.


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def token_pattern(symbols: tuple[str, ...]) -> re.Pattern:
    """The tokenizer's pattern for a family's symbols, tried in the given
    order: a newline, other whitespace, a symbol, an identifier (``\\w``,
    that is ``isalnum()`` or ``_``), any other character."""
    syms = "|".join(map(re.escape, symbols))
    return re.compile(rf"(\n)|[^\S\n]+|({syms})|(\w+)|(.)")


_TOKENS = token_pattern(("<->", "->", "!", "|", "&", "(", ")", "[", "]", "{", "}", ",", "."))


def tokenize(text: str, pattern: re.Pattern = _TOKENS) -> list[tuple[str, str, int, int]]:
    """Tokens as (kind, value, line, col); kind is 'id' or 'sym'.  pattern
    comes from token_pattern."""
    toks = []
    line, line_start = 1, 0
    for m in pattern.finditer(text):
        group = m.lastindex
        if group == 2:
            toks.append(("sym", m[2], line, m.start() - line_start + 1))
        elif group == 3:
            toks.append(("id", m[3], line, m.start() - line_start + 1))
        elif group == 1:
            line, line_start = line + 1, m.end()
        elif group == 4:
            raise ParseError(f"unexpected character {m[4]!r}", line, m.start() - line_start + 1)
    return toks


# Precedence, loosest first: binders, the infix connectives (symbol ->
# (precedence, right-associative, constructor)), U/S, prefix operators.  The
# parser and the printer both read the connectives from this one table.
_PREC_QUANT, _PREC_UNTIL, _PREC_UNARY = 0, 5, 6
_CONNECTIVES = {"<->": (1, False, p_iff), "->": (2, True, p_implies),
                "|": (3, False, Or), "&": (4, False, p_and)}


class _Parser:
    """Token cursor and grammar shared by the PLTL, hyper and arithmetic front
    ends.

    A formula is a binder ``<binder> <var> . <formula>``, whose body reaches
    as far right as it can, or the boolean connectives of ``_CONNECTIVES``
    (``p_iff``, ``p_implies``, ``Or`` and ``p_and`` over the shared
    ``Not``/``Or`` nodes), read by one precedence-climbing loop, ``infix``.
    Below them come the right-associative ``U``/``S`` level and the prefix
    operators ``! X Y F G O H``, then parentheses, ``true`` (``TRUE``),
    ``false`` (``!true``) and ``leaf``.  A family supplies ``binders``,
    mapping each binder word to its node class, ``ops``, mapping each
    temporal operator name to its node class or sugar constructor (index
    arguments first), ``index`` (the index arguments read after an operator
    name) and ``leaf``; an empty table reads no binder or no temporal
    operator.  It may replace ``binder_var`` (the bound variable, by default
    any identifier) and ``primary``, or extend ``unary``.
    """

    binders: dict[str, Callable] = {}
    ops: dict[str, Callable] = {}

    def __init__(self, toks: list[tuple[str, str, int, int]],
                 ap: frozenset[str] = frozenset()):
        self.toks = toks
        self.pos = 0
        self.ap = ap

    def error(self, msg: str):
        if self.pos < len(self.toks):
            _, v, line, col = self.toks[self.pos]
            raise ParseError(f"{msg}, found {v!r}", line, col)
        if self.toks:
            _, _, line, col = self.toks[-1]
            raise ParseError(f"{msg} at end of input", line, col)
        raise ParseError(msg, 1, 1)

    def peek(self) -> tuple[str, str] | None:
        if self.pos < len(self.toks):
            kind, v, _, _ = self.toks[self.pos]
            return kind, v
        return None

    def take(self, value: str | None = None) -> str:
        nxt = self.peek()
        if nxt is None or (value is not None and nxt[1] != value):
            self.error(f"expected {value!r}" if value else "unexpected end of input")
        self.pos += 1
        return nxt[1]

    def ident(self, what: str) -> str:
        nxt = self.peek()
        if nxt is None or nxt[0] != "id":
            self.error(f"expected {what}")
        self.take()
        return nxt[1]

    def parse(self):
        f = self.formula()
        if self.peek() is not None:
            self.error("trailing input after formula")
        return f

    def formula(self):
        if self.binders and self.pos < len(self.toks) and self.toks[self.pos][1] in self.binders:
            make = self.binders[self.take()]
            var = self.binder_var()
            self.take(".")
            return make(var, self.formula())
        return self.infix(_CONNECTIVES, self.untils)

    def binder_var(self) -> str:
        return self.ident("quantified variable")

    def infix(self, table: dict, operand: Callable, min_prec: int = 0):
        """operand, then infix operators of table (symbol -> (precedence,
        right-associative, constructor)) binding at least min_prec."""
        f = operand()
        while self.pos < len(self.toks):
            op = table.get(self.toks[self.pos][1])
            if op is None or op[0] < min_prec:
                break
            self.pos += 1
            prec, right, make = op
            f = make(f, self.infix(table, operand, prec if right else prec + 1))
        return f

    def untils(self):
        f = self.unary()
        nxt = self.peek()
        if nxt in (("id", "U"), ("id", "S")) and nxt[1] in self.ops:
            make = self.ops[self.take()]
            return make(*self.index(), f, self.untils())
        return f

    def unary(self):
        nxt = self.peek()
        if nxt == ("sym", "!"):
            self.take()
            return Not(self.unary())
        if nxt is not None and nxt[0] == "id" and nxt[1] in self.ops \
                and nxt[1] not in ("U", "S"):
            make = self.ops[self.take()]
            return make(*self.index(), self.unary())
        return self.primary()

    def index(self) -> tuple:
        return ()

    def primary(self):
        nxt = self.peek()
        if nxt == ("sym", "("):
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if nxt in (("id", "true"), ("id", "false")):
            self.take()
            return TRUE if nxt[1] == "true" else Not(TRUE)
        return self.leaf()


class _PltlParser(_Parser):
    ops = {"X": Next, "Y": Yesterday, "F": eventually, "G": always,
           "O": once, "H": historically, "U": Until, "S": Since}

    def leaf(self) -> Pltl:
        nxt = self.peek()
        if nxt is not None and nxt[0] == "id":
            name = nxt[1]
            if name in self.ap:
                self.take()
                return Atom(name)
            self.error(f"unknown proposition {name!r}")
        self.error("expected a formula")


def check_prop(name: str, line: int = 1, col: int = 1) -> None:
    """Raise ParseError at (line, col) unless an atom can read the proposition
    name: it must be one identifier token other than ``true``, ``false`` and
    the operator names ``X Y F G O H U S``."""
    # \w+ is the tokenizer's identifier pattern, so a name matches it whole
    # exactly when it tokenizes to the one identifier name
    if not isinstance(name, str) or not re.fullmatch(r"\w+", name):
        raise ParseError(f"proposition name {name!r} is not a single identifier", line, col)
    if name in ("true", "false"):
        raise ParseError(f"proposition name {name!r} is reserved for a constant", line, col)
    if name in _PltlParser.ops:
        raise ParseError(f"proposition name {name!r} is reserved for an operator", line, col)


def checked_ap(ap) -> frozenset[str]:
    """ap as a frozenset, every name passed through check_prop (an error is
    reported at line 1, column 1: the names are not part of the text)."""
    ap = frozenset(ap)
    for name in sorted(ap, key=str):
        check_prop(name)
    return ap


def parse_pltl(text: str, ap: frozenset[str] | set[str]) -> Pltl:
    """Parse PLTL concrete syntax; atoms must come from the declared universe."""
    return _PltlParser(tokenize(text), checked_ap(ap)).parse()


# Rendering with minimal parentheses, recognizing the canonical sugar
# expansions.  One printer serves the PLTL and hyper families; the quantifier
# level only occurs in hyper formulas.


@dataclass(frozen=True)
class _Family:
    """What the shared printer needs to know about one formula family."""

    Next: type
    Until: type
    Yesterday: type
    Since: type
    index: Callable[[object], str]  # text after X/Y/U/S/F/G/O/H, e.g. "[p]"
    leaf: Callable[[object, int], str]  # (node, prec) for the other node classes


def same_formula(f, g) -> bool:
    """Structural equality of two formulas of one family, as the dataclass
    __eq__ but with its own stack, so formula depth is not bounded by the
    interpreter's recursion limit.  Pairs of shared nodes are compared once."""
    seen = set()
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if type(a) is not type(b):
            return False
        for name in a.__dataclass_fields__:
            x, y = getattr(a, name), getattr(b, name)
            if hasattr(x, "__dataclass_fields__"):
                stack.append((x, y))
            elif x != y:
                return False
    return True


def _match_implies(f):
    if isinstance(f, Or) and isinstance(f.left, Not):
        return (f.left.sub, f.right)
    return None


def _resugar(f, fam: _Family):
    """(tag, indexed node, payload) for recognized sugar shapes and for a
    plain Or (tag "|"), else None."""
    if isinstance(f, fam.Until) and isinstance(f.left, Top):
        return ("F", f, f.right)
    if isinstance(f, fam.Since) and isinstance(f.left, Top):
        return ("O", f, f.right)
    if isinstance(f, Not):
        s = f.sub
        if isinstance(s, (fam.Until, fam.Since)) and isinstance(s.left, Top) \
                and isinstance(s.right, Not):
            return ("G" if isinstance(s, fam.Until) else "H", s, s.right.sub)
        if is_and(f):
            a, b = s.left.sub, s.right.sub
            ia, ib = _match_implies(a), _match_implies(b)
            if ia and ib and same_formula(ia[0], ib[1]) and same_formula(ia[1], ib[0]):
                return ("<->", None, ia)
            return ("&", None, (a, b))
    imp = _match_implies(f)
    if imp is not None:
        return ("->", None, imp)
    if isinstance(f, Or):
        return ("|", None, (f.left, f.right))
    return None


def _render(f, prec: int, fam: _Family) -> str:
    sug = _resugar(f, fam)
    if sug is not None and sug[0] in _CONNECTIVES:
        # a left-nested chain of &, | or <-> prints without parentheses; its
        # spine is walked by a loop, so a chain of any length prints
        tag, rights = sug[0], []
        lv, right, _ = _CONNECTIVES[tag]
        lp, rp = (lv + 1, lv) if right else (lv, lv + 1)
        while sug is not None and sug[0] == tag:
            f, b = sug[2]
            rights.append(_render(b, rp, fam))
            sug = None if right else _resugar(f, fam)
        s = f" {tag} ".join([_render(f, lp, fam)] + rights[::-1])
        return f"({s})" if prec > lv else s
    if sug is not None:
        tag, node, payload = sug
        s = f"{tag}{fam.index(node)} {_render(payload, _PREC_UNARY, fam)}"
        return f"({s})" if prec > _PREC_UNARY else s
    if isinstance(f, Not):
        return f"!{_render(f.sub, _PREC_UNARY, fam)}"
    if isinstance(f, (fam.Next, fam.Yesterday)):
        op = "X" if isinstance(f, fam.Next) else "Y"
        s = f"{op}{fam.index(f)} {_render(f.sub, _PREC_UNARY, fam)}"
        return f"({s})" if prec > _PREC_UNARY else s
    if isinstance(f, (fam.Until, fam.Since)):
        op = "U" if isinstance(f, fam.Until) else "S"
        s = (f"{_render(f.left, _PREC_UNARY, fam)} {op}{fam.index(f)} "
             f"{_render(f.right, _PREC_UNTIL, fam)}")
        return f"({s})" if prec > _PREC_UNTIL else s
    if isinstance(f, Top):
        return "true"
    return fam.leaf(f, prec)


def _pltl_leaf(f, prec: int) -> str:
    if isinstance(f, Atom):
        return f.name
    raise TypeError(f"not a PLTL node: {f!r}")


_PLTL = _Family(Next, Until, Yesterday, Since, lambda f: "", _pltl_leaf)


def render_pltl(f: Pltl, prec: int = 0) -> str:
    return _render(f, prec, _PLTL)
