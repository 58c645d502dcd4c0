"""Syntax and semantics of generalized HyperLTL with stuttering and contexts.

Formulas are evaluated against a finite universe of lasso traces, a partial
assignment of trace variables to pointed traces, and a context: the set of
variables on which time advances during temporal steps.  Temporal operators
are indexed by finite sets of PLTL formulas and step along changepoints.

Until operators walk forward with cycle detection on canonicalized
configurations (exact positions below a per-trace stabilization threshold,
residues above it) and fall back to an iteration cutoff, in which case the
verdict is unknown.  Since operators always terminate because predecessor
chains are finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import stutter
from . import pltl as pl
from .pltl import _PREC_QUANT, _PREC_UNARY, ParseError, _PltlParser, render_pltl, tokenize
from .traces import LassoTrace, PointedTrace, TransitionSystem, enumerate_lassos, \
    enumerate_ts_traces, normalize

Gamma = frozenset

EMPTY_GAMMA: Gamma = frozenset()


class Hyper:
    """Base class for hyper formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Hyper):
    prop: str
    var: str


@dataclass(frozen=True)
class Not(Hyper):
    sub: Hyper


@dataclass(frozen=True)
class Or(Hyper):
    left: Hyper
    right: Hyper


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


def tautology_over(f: Hyper) -> Hyper:
    return Or(f, Not(f))


def h_and(a: Hyper, b: Hyper) -> Hyper:
    return Not(Or(Not(a), Not(b)))


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


def h_implies(a: Hyper, b: Hyper) -> Hyper:
    return Or(Not(a), b)


def h_iff(a: Hyper, b: Hyper) -> Hyper:
    return h_and(h_implies(a, b), h_implies(b, a))


def ev(gamma: Gamma, f: Hyper) -> Hyper:
    """F_gamma, expanded as a tautology-guarded until."""
    return Until(gamma, tautology_over(f), f)


def alw(gamma: Gamma, f: Hyper) -> Hyper:
    return Not(ev(gamma, Not(f)))


def once(gamma: Gamma, f: Hyper) -> Hyper:
    return Since(gamma, tautology_over(f), f)


def hist(gamma: Gamma, f: Hyper) -> Hyper:
    return Not(once(gamma, Not(f)))


# -- structural helpers -------------------------------------------------------


def children(f: Hyper) -> tuple[Hyper, ...]:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Context, Next, Yesterday, Exists, Forall)):
        return (f.sub,)
    return (f.left, f.right)


def postorder(f: Hyper) -> list[Hyper]:
    """Subformulas in postorder, each shared node once."""
    seen: set[int] = set()
    out: list[Hyper] = []

    def walk(n: Hyper) -> None:
        if id(n) in seen:
            return
        seen.add(id(n))
        for c in children(n):
            walk(c)
        out.append(n)

    walk(f)
    return out


def free_vars(f: Hyper) -> frozenset[str]:
    """Variables read by atoms and not bound by a quantifier above the read."""
    if isinstance(f, Atom):
        return frozenset({f.var})
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.sub) - {f.var}
    return frozenset().union(*(free_vars(c) for c in children(f))) if children(f) else frozenset()


def all_vars(f: Hyper) -> frozenset[str]:
    """Every variable mentioned anywhere: atoms, binders, and context sets."""
    out: set[str] = set()
    for n in postorder(f):
        if isinstance(n, Atom):
            out.add(n.var)
        elif isinstance(n, (Exists, Forall)):
            out.add(n.var)
        elif isinstance(n, Context):
            out.update(n.vars)
    return frozenset(out)


def all_props(f: Hyper) -> frozenset[str]:
    out: set[str] = set()
    for n in postorder(f):
        if isinstance(n, Atom):
            out.add(n.prop)
        elif isinstance(n, (Next, Until, Yesterday, Since)):
            for th in n.gamma:
                out.update(pl.atoms(th))
    return frozenset(out)


def gamma_members(f: Hyper) -> frozenset:
    """All PLTL formulas appearing in any temporal index of the formula."""
    out: set = set()
    for n in postorder(f):
        if isinstance(n, (Next, Until, Yesterday, Since)):
            out.update(n.gamma)
    return frozenset(out)


def has_hyper_past(f: Hyper) -> bool:
    return any(isinstance(n, (Yesterday, Since)) for n in postorder(f))


def has_quantifier(f: Hyper) -> bool:
    return any(isinstance(n, (Exists, Forall)) for n in postorder(f))


def has_context_op(f: Hyper) -> bool:
    return any(isinstance(n, Context) for n in postorder(f))


def strip_prefix(f: Hyper) -> tuple[list[tuple[str, str]], Hyper]:
    """Leading quantifier block as [(kind, var)] plus the remaining formula."""
    prefix: list[tuple[str, str]] = []
    while isinstance(f, (Exists, Forall)):
        prefix.append(("exists" if isinstance(f, Exists) else "forall", f.var))
        f = f.sub
    return prefix, f


def is_prenex(f: Hyper) -> bool:
    _, matrix = strip_prefix(f)
    return not has_quantifier(matrix)


def quantifier_shape(f: Hyper) -> str:
    """'exists' when every quantifier occurrence is existential after negation
    polarity, 'forall' dually, else 'mixed'.

    Purely existential sentences are monotone in the trace universe and purely
    universal ones antitone, which is what makes bounded verdicts sound.
    """
    kinds: set[str] = set()

    def walk(n: Hyper, pos: bool) -> None:
        if isinstance(n, (Exists, Forall)):
            existential = isinstance(n, Exists) == pos
            kinds.add("exists" if existential else "forall")
            walk(n.sub, pos)
        elif isinstance(n, Not):
            walk(n.sub, not pos)
        else:
            for c in children(n):
                walk(c, pos)

    walk(f, True)
    if kinds <= {"exists"}:
        return "exists"
    if kinds <= {"forall"}:
        return "forall"
    return "mixed"


def fragment_of(f: Hyper) -> str:
    """Most specific of HyperLTL, HyperLTL_S, HyperLTL_C, GHyLTL_S+C."""
    _, matrix = strip_prefix(f)
    prenex = not has_quantifier(matrix)
    past_free = not has_hyper_past(f)
    contexts = has_context_op(f)
    gammas = gamma_members(f)
    all_empty = not gammas
    gammas_past_free = all(pl.is_past_free(th) for th in gammas)
    if prenex and past_free and not contexts and all_empty:
        return "HyperLTL"
    if prenex and past_free and not contexts and gammas_past_free:
        return "HyperLTL_S"
    if prenex and past_free and all_empty:
        return "HyperLTL_C"
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


def v_not(v: Verdict) -> Verdict:
    if v.is_holds:
        return FAILS
    if v.is_fails:
        return HOLDS
    return v


def v_and(a: Verdict, b: Verdict) -> Verdict:
    if a.is_fails or b.is_fails:
        return FAILS
    if a.is_unknown:
        return a
    if b.is_unknown:
        return b
    return HOLDS


def v_or(a: Verdict, b: Verdict) -> Verdict:
    if a.is_holds or b.is_holds:
        return HOLDS
    if a.is_unknown:
        return a
    if b.is_unknown:
        return b
    return FAILS


@dataclass(frozen=True)
class EvalConfig:
    until_cutoff: int = 200
    cycle_margin: int = 3
    use_cycle_detection: bool = True

    def __post_init__(self) -> None:
        if self.until_cutoff < 1:
            raise ValueError("until_cutoff must be >= 1")
        if self.cycle_margin < 1:
            raise ValueError("cycle_margin must be >= 1")


DEFAULT_CONFIG = EvalConfig()

Assignment = Mapping[str, PointedTrace]


class _Session:
    """One evaluation run: fixed universe, config, and memo tables."""

    def __init__(self, universe: Iterable[LassoTrace], formula: Hyper, cfg: EvalConfig):
        self.universe = list(universe)
        self.cfg = cfg
        self.gammas = gamma_members(formula)
        # per node: sorted free atom variables, whether past operators occur
        # below, and whether memoization pays off (quantifiers and temporal
        # steps; plain boolean nodes are cheaper than their memo keys)
        self._node_info: dict[int, tuple[tuple[str, ...], bool, bool]] = {}
        for n in postorder(formula):
            self._collect_info(n)
        self._canon: dict[int, tuple[int, int]] = {}
        self._memo: dict = {}

    def _collect_info(self, n: Hyper) -> None:
        # postorder: the children of n are already recorded
        if isinstance(n, Atom):
            free: frozenset[str] = frozenset({n.var})
            past = False
        else:
            free = frozenset()
            past = isinstance(n, (Yesterday, Since))
            for c in children(n):
                cf, cp, _ = self._node_info[id(c)]
                free |= frozenset(cf)
                past = past or cp
            if isinstance(n, (Exists, Forall)):
                free -= {n.var}
        memoize = isinstance(n, (Exists, Forall, Next, Until, Yesterday, Since))
        self._node_info[id(n)] = (tuple(sorted(free)), past, memoize)

    def _trace_canon(self, trace: LassoTrace) -> tuple[int, int]:
        hit = self._canon.get(id(trace))
        if hit is not None:
            return hit
        profs = [pl.valuation_profile(trace, th) for th in self.gammas]
        base = max([len(trace.prefix)] + [p.threshold for p in profs])
        period = math.lcm(len(trace.loop), *[p.period for p in profs]) if profs \
            else len(trace.loop)
        threshold = base + self.cfg.cycle_margin * period
        self._canon[id(trace)] = (threshold, period)
        return threshold, period

    def _canon_pos(self, trace: LassoTrace, pos: int) -> int:
        t, l = self._trace_canon(trace)
        return pos if pos < t else t + ((pos - t) % l)

    def _config_key(self, a: Assignment) -> tuple:
        return tuple(sorted(
            (x, id(pt.trace), self._canon_pos(pt.trace, pt.pos)) for x, pt in a.items()
        ))

    def eval(self, f: Hyper, a: Assignment, c: frozenset[str]) -> Verdict:
        free, past, memoize = self._node_info[id(f)]
        if not memoize:
            return self._eval(f, a, c)
        if past:
            # predecessor definedness can depend on any stepped coordinate
            rel = tuple(sorted((x, id(pt.trace), pt.pos) for x, pt in a.items()))
        else:
            rel = tuple((id(a[x].trace), a[x].pos) if x in a else None for x in free)
        key = (id(f), c, rel)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(f, a, c)
        self._memo[key] = out
        return out

    def _eval(self, f: Hyper, a: Assignment, c: frozenset[str]) -> Verdict:
        if isinstance(f, Atom):
            pt = a[f.var]
            return HOLDS if f.prop in pt.trace.letter(pt.pos) else FAILS
        if isinstance(f, Not):
            return v_not(self.eval(f.sub, a, c))
        if isinstance(f, Or):
            left = self.eval(f.left, a, c)
            if left.is_holds:
                return HOLDS
            return v_or(left, self.eval(f.right, a, c))
        if isinstance(f, Context):
            return self.eval(f.sub, a, f.vars)
        if isinstance(f, Exists):
            return self._eval_quant(f, a, c, existential=True)
        if isinstance(f, Forall):
            return self._eval_quant(f, a, c, existential=False)
        if isinstance(f, Next):
            eff = c & a.keys()
            if not eff:
                return self.eval(f.sub, a, c)
            return self.eval(f.sub, stutter.assign_succ(a, f.gamma, eff), c)
        if isinstance(f, Yesterday):
            eff = c & a.keys()
            if not eff:
                return self.eval(f.sub, a, c)
            prev = stutter.assign_pred(a, f.gamma, eff)
            if prev is None:
                return FAILS
            return self.eval(f.sub, prev, c)
        if isinstance(f, Until):
            return self._eval_until(f, a, c)
        if isinstance(f, Since):
            return self._eval_since(f, a, c)
        raise TypeError(f"not a hyper formula node: {f!r}")

    def _eval_quant(self, f, a, c, existential: bool) -> Verdict:
        saw_unknown: Verdict | None = None
        for trace in self.universe:
            sub = dict(a)
            sub[f.var] = PointedTrace(trace, 0)
            v = self.eval(f.sub, sub, c)
            if existential and v.is_holds:
                return HOLDS
            if not existential and v.is_fails:
                return FAILS
            if v.is_unknown and saw_unknown is None:
                saw_unknown = v
        if saw_unknown is not None:
            return saw_unknown
        return FAILS if existential else HOLDS

    def _eval_until(self, f: Until, a: Assignment, c: frozenset[str]) -> Verdict:
        eff = c & a.keys()
        if not eff:
            # no coordinate moves, so position 0 decides
            return self.eval(f.right, a, c)
        result = FAILS
        prefix_ok = HOLDS
        seen: set[tuple] = set()
        cur: Assignment = a
        for _ in range(self.cfg.until_cutoff + 1):
            if self.cfg.use_cycle_detection:
                key = self._config_key(cur)
                if key in seen:
                    return result
                seen.add(key)
            v2 = self.eval(f.right, cur, c)
            result = v_or(result, v_and(prefix_ok, v2))
            if result.is_holds:
                return HOLDS
            v1 = self.eval(f.left, cur, c)
            prefix_ok = v_and(prefix_ok, v1)
            if prefix_ok.is_fails:
                return result
            cur = stutter.assign_succ(cur, f.gamma, eff)
        return Verdict.unknown("until-cutoff")

    def _eval_since(self, f: Since, a: Assignment, c: frozenset[str]) -> Verdict:
        eff = c & a.keys()
        if not eff:
            return self.eval(f.right, a, c)
        result = FAILS
        prefix_ok = HOLDS
        cur: Assignment | None = a
        while cur is not None:
            v2 = self.eval(f.right, cur, c)
            result = v_or(result, v_and(prefix_ok, v2))
            if result.is_holds:
                return HOLDS
            v1 = self.eval(f.left, cur, c)
            prefix_ok = v_and(prefix_ok, v1)
            if prefix_ok.is_fails:
                return result
            cur = stutter.assign_pred(cur, f.gamma, eff)
        return result


def evaluate(universe: Iterable[LassoTrace], assignment: Assignment,
             context: Iterable[str], f: Hyper,
             cfg: EvalConfig = DEFAULT_CONFIG) -> Verdict:
    """Evaluate (universe, assignment, context) |= f."""
    missing = free_vars(f) - set(assignment)
    if missing:
        raise ValueError(f"free variables without bindings: {sorted(missing)}")
    session = _Session(universe, f, cfg)
    return session.eval(f, dict(assignment), frozenset(context))


def check_traceset(universe: Iterable[LassoTrace], f: Hyper,
                   cfg: EvalConfig = DEFAULT_CONFIG) -> Verdict:
    """Sentence satisfaction by a trace set: empty assignment, full context."""
    if free_vars(f):
        raise ValueError(f"not a sentence; free variables {sorted(free_vars(f))}")
    var = all_vars(f)
    if not var:
        raise ValueError("formula mentions no trace variables")
    return evaluate(universe, {}, var, f, cfg)


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
    as unknown unless the quantifier shape (or an exact universe) makes it
    sound: existential prefixes certify holds, universal prefixes certify
    fails.
    """
    universe = enumerate_ts_traces(ts, max_prefix, max_loop)
    verdict = check_traceset(universe, f, cfg)
    if verdict.is_unknown:
        return verdict
    if _exact_ts_universe(ts, max_prefix, max_loop):
        return verdict
    shape = quantifier_shape(f)
    if shape == "exists" and verdict.is_holds:
        return verdict
    if shape == "forall" and verdict.is_fails:
        return verdict
    return Verdict.unknown(
        f"ts-universe-bound(max_prefix={max_prefix},max_loop={max_loop});"
        f"bounded-verdict={verdict.status}")


def bounded_sat(f: Hyper, max_traces: int, max_prefix: int, max_loop: int,
                ap: Iterable[str], cfg: EvalConfig = DEFAULT_CONFIG) -> list[LassoTrace] | None:
    """First trace set (by size, then lexicographic) satisfying the sentence.

    Candidates are the canonicalized lassos over ap within the bounds; None
    when the search space is exhausted.
    """
    if max_traces < 1:
        raise ValueError("max_traces must be >= 1")
    seen: set[LassoTrace] = set()
    candidates: list[LassoTrace] = []
    for t in enumerate_lassos(ap, max_prefix, max_loop):
        n = normalize(t)
        if n not in seen:
            seen.add(n)
            candidates.append(n)
    candidates.sort(key=LassoTrace.sort_key)
    for size in range(1, max_traces + 1):
        for combo in itertools.combinations(candidates, size):
            if check_traceset(list(combo), f, cfg).is_holds:
                return list(combo)
    return None


# -- concrete syntax ----------------------------------------------------------
#
# forall x. / exists x. binders; C{x,y} phi contexts; X[g] phi, phi U[g] psi,
# Y[g] phi, phi S[g] psi with comma-separated PLTL formulas inside brackets;
# atoms p_x; booleans ! | & -> <->; sugar F[g] G[g] O[g] H[g]; parentheses.


class _HyperParser(pl._Parser):
    Not, Or = Not, Or

    def formula(self) -> Hyper:
        nxt = self.peek()
        if nxt is not None and nxt[0] == "id" and nxt[1] in ("forall", "exists"):
            kind = self.take()
            var = self.ident("quantified variable")
            self.take(".")
            body = self.formula()
            return (Forall if kind == "forall" else Exists)(var, body)
        return self.iff()

    def ident(self, what: str) -> str:
        nxt = self.peek()
        if nxt is None or nxt[0] != "id":
            self.error(f"expected {what}")
        self.take()
        return nxt[1]

    def untils(self) -> Hyper:
        f = self.unary()
        nxt = self.peek()
        if nxt in (("id", "U"), ("id", "S")):
            op = self.take()
            g = self.gamma()
            rest = self.untils()
            return (Until if op == "U" else Since)(g, f, rest)
        return f

    def gamma(self) -> Gamma:
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
        return frozenset(members)

    def unary(self) -> Hyper:
        nxt = self.peek()
        if nxt is not None and nxt[0] == "id" and nxt[1] in ("X", "Y", "F", "G", "O", "H"):
            op = self.take()
            g = self.gamma()
            sub = self.unary()
            return {"X": Next, "Y": Yesterday,
                    "F": ev, "G": alw, "O": once, "H": hist}[op](g, sub)
        if nxt == ("id", "C") and self.pos + 1 < len(self.toks) \
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

    def primary(self) -> Hyper:
        nxt = self.peek()
        if nxt == ("sym", "("):
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if nxt is not None and nxt[0] == "id":
            tok = nxt[1]
            best = None
            for p in self.ap:
                if tok.startswith(p + "_") and (best is None or len(p) > len(best)):
                    best = p
            if best is None:
                self.error(f"expected an atom of the form prop_var over ap {sorted(self.ap)}")
            self.take()
            return Atom(best, tok[len(best) + 1:])
        self.error("expected a formula")


def parse_hyper(text: str, ap: Iterable[str]) -> Hyper:
    """Parse hyper concrete syntax; atom propositions must come from ap."""
    return _HyperParser(tokenize(text), frozenset(ap)).parse()


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


_HYPER = pl._Family(Not, Or, Next, Until, Yesterday, Since, _render_index, _render_leaf)


def render_hyper(f: Hyper, prec: int = 0) -> str:
    return pl._render(f, prec, _HYPER)
