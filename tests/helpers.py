"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the library's evaluation machinery: the
PLTL oracle works on an explicit unrolling with loop-aware wrap-around, the
HyperLTL reference evaluator unrolls the synchronous product of the assigned
traces, and the three-valued GHyLTL_S+C reference (ref_ghyltl) steps along
changepoints read off the PLTL oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.traces import LassoTrace, PointedTrace, TransitionSystem, lasso


def depth(f: pl.Pltl) -> int:
    """Nesting depth of the connectives and operators of a PLTL formula."""
    if isinstance(f, (pl.Top, pl.Atom)):
        return 0
    if isinstance(f, (pl.Not, pl.Next, pl.Yesterday)):
        return 1 + depth(f.sub)
    return 1 + max(depth(f.left), depth(f.right))


def replay_run(ts: TransitionSystem, prefix_vs: Sequence[str], cycle_vs: Sequence[str]) -> bool:
    """Check that the given lasso run respects edges and the initial set."""
    prefix_vs, cycle_vs = list(prefix_vs), list(cycle_vs)
    run = prefix_vs + cycle_vs
    if not run or run[0] not in ts.initial:
        return False
    for s, d in zip(run, run[1:]):
        if (s, d) not in ts.edges:
            return False
    return (cycle_vs[-1], cycle_vs[0]) in ts.edges


def minimal_block_ratio(n1: int, n2: int) -> int:
    """Least z >= 1 with z*(n2-1) = zp*n2 - n1 for some zp >= 1; the crux of
    the context multiplication gadget."""
    if not (1 <= n1 <= n2 and n2 >= 2):
        raise ValueError("requires 1 <= n1 <= n2 and n2 >= 2")
    z = 1
    while True:
        if (z * (n2 - 1) + n1) % n2 == 0 and (z * (n2 - 1) + n1) // n2 >= 1:
            return z
        z += 1


# -- brute-force PLTL on an unrolled lasso ------------------------------------


def brute_pltl_table(trace: LassoTrace, f: pl.Pltl) -> list[bool]:
    """Truth values of f at positions 0..N-1 for N = |prefix| + (depth+2)*|loop|,
    computed by table fixpoints with the successor of the last position wrapped
    back one loop."""
    lam = len(trace.loop)
    n = len(trace.prefix) + (depth(f) + 2) * lam

    def succ(i: int) -> int:
        return i + 1 if i + 1 < n else n - lam

    def table(g: pl.Pltl) -> list[bool]:
        if isinstance(g, pl.Top):
            return [True] * n
        if isinstance(g, pl.Atom):
            return [g.name in trace.letter(i) for i in range(n)]
        if isinstance(g, pl.Not):
            return [not v for v in table(g.sub)]
        if isinstance(g, pl.Or):
            a, b = table(g.left), table(g.right)
            return [x or y for x, y in zip(a, b)]
        if isinstance(g, pl.Next):
            s = table(g.sub)
            return [s[succ(i)] for i in range(n)]
        if isinstance(g, pl.Yesterday):
            s = table(g.sub)
            return [i > 0 and s[i - 1] for i in range(n)]
        if isinstance(g, pl.Until):
            a, b = table(g.left), table(g.right)
            v = [False] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    new = b[i] or (a[i] and v[succ(i)])
                    if new != v[i]:
                        v[i] = new
                        changed = True
            return v
        if isinstance(g, pl.Since):
            a, b = table(g.left), table(g.right)
            v = [False] * n
            for i in range(n):
                v[i] = b[i] or (a[i] and i > 0 and v[i - 1])
            return v
        raise TypeError(g)

    return table(f)


def brute_pltl_horizon(trace: LassoTrace, f: pl.Pltl) -> int:
    """Positions with reliable table values: everything before the wrap point."""
    return len(trace.prefix) + (depth(f) + 1) * len(trace.loop)


def brute_proper_changepoints(trace: LassoTrace, gamma, horizon: int) -> list[bool]:
    """Proper changepoint flags at 0..horizon-1 from the unrolled tables
    above: the origin, or a position where some member of gamma flips.

    A formula of depth d repeats with the loop from prefix + d * loop, the
    start of the last loop of its reliable horizon, so each table is extended
    by that loop.
    """
    lam = len(trace.loop)
    values = []
    for th in gamma:
        table, h = brute_pltl_table(trace, th), brute_pltl_horizon(trace, th)
        values.append([table[i] if i < h else table[h - lam + (i - h) % lam]
                       for i in range(horizon)])
    return [i == 0 or any(v[i] != v[i - 1] for v in values) for i in range(horizon)]


def brute_changepoints(trace: LassoTrace, gamma, horizon: int) -> list[bool]:
    """Changepoint flags at 0..horizon-1: the proper ones, and the convention.

    The proper changepoints repeat with the loop from the largest start of a
    member's last loop on, so when none lies in the last loop of the horizon
    there are finitely many, and every position after the last one is a
    changepoint too.
    """
    lam = len(trace.loop)
    proper = brute_proper_changepoints(trace, gamma, horizon)
    if any(proper[horizon - lam:]):
        return proper
    tail = max(i for i in range(horizon) if proper[i]) + 1
    return [p or i >= tail for i, p in enumerate(proper)]


# -- reference synchronous HyperLTL evaluator ---------------------------------


def _product_tables(env: dict[str, LassoTrace], matrix: hy.Hyper) -> bool:
    """LTL over the synchronous product of the assigned traces, solved on the
    product lasso (prefix = max stem, loop = lcm of loops)."""
    traces = list(env.values())
    stem = max((len(t.prefix) for t in traces), default=0)
    lam = math.lcm(*[len(t.loop) for t in traces]) if traces else 1
    n = stem + lam

    def succ(i: int) -> int:
        return i + 1 if i + 1 < n else stem

    def table(g: hy.Hyper) -> list[bool]:
        if isinstance(g, pl.Top):
            return [True] * n
        if isinstance(g, hy.Atom):
            t = env[g.var]
            return [g.prop in t.letter(i) for i in range(n)]
        if isinstance(g, hy.Not):
            return [not v for v in table(g.sub)]
        if isinstance(g, hy.Or):
            a, b = table(g.left), table(g.right)
            return [x or y for x, y in zip(a, b)]
        if isinstance(g, hy.Next):
            assert not g.gamma
            s = table(g.sub)
            return [s[succ(i)] for i in range(n)]
        if isinstance(g, hy.Until):
            assert not g.gamma
            a, b = table(g.left), table(g.right)
            v = [False] * n
            changed = True
            while changed:
                changed = False
                for i in range(n - 1, -1, -1):
                    new = b[i] or (a[i] and v[succ(i)])
                    if new != v[i]:
                        v[i] = new
                        changed = True
            return v
        raise TypeError(f"reference evaluator does not handle {g!r}")

    return table(matrix)[0]


def ref_hyperltl(universe: Sequence[LassoTrace], sentence: hy.Hyper) -> bool:
    """Reference verdict for prenex, past-free, context-free, empty-gamma
    sentences over a finite universe."""
    assert hy.is_prenex(sentence)
    prefix, matrix = hy.strip_prefix(sentence)

    def bind(i: int, env: dict[str, LassoTrace]) -> bool:
        if i == len(prefix):
            return _product_tables(env, matrix)
        kind, var = prefix[i]
        results = (bind(i + 1, {**env, var: t}) for t in universe)
        return any(results) if kind == "exists" else all(results)

    return bind(0, {})


# -- three-valued GHyLTL_S+C reference ----------------------------------------
#
# Truth values are True, False and None (undetermined); and, or and not are
# Kleene's.


def _k_any(values) -> bool | None:
    out = False
    for v in values:
        if v is True:
            return True
        if v is None:
            out = None
    return out


def _k_not(v: bool | None) -> bool | None:
    return None if v is None else not v


def _k_all(values) -> bool | None:
    return _k_not(_k_any(_k_not(v) for v in values))


def ref_ghyltl(universe: Sequence[LassoTrace], assignment: dict, context,
               f: hy.Hyper, horizon: int) -> bool | None:
    """(universe, assignment, context) |= f, written from the definitions and
    sharing no code with semantics, stutter or the PLTL profiles.

    A temporal operator steps the coordinates of its context that are
    assigned, each to its next (X, U) or previous (Y, S) changepoint, with
    changepoints read off brute_changepoints; a backward step is undefined at
    position 0, which makes Y false and ends an S.  With no coordinate to
    step, the operand is read where it stands (the sequence of points is
    constant).  U looks at most horizon points ahead and is undetermined past
    them; S walks back exactly.  A quantifier binds its variable to position
    0 of each universe trace.  No memo, no cycle closing, no fusion: None
    wherever the horizon hides the answer.
    """
    flags: dict[tuple, object] = {}

    def is_changepoint(trace: LassoTrace, gamma, i: int) -> bool:
        key = (id(trace), gamma)
        if key not in flags:
            # a width whose last loop lies where every member is periodic
            lam = len(trace.loop)
            width = lam + max([brute_pltl_horizon(trace, th) for th in gamma],
                              default=len(trace.prefix) + lam)
            flags[key] = (width, lam, brute_changepoints(trace, gamma, width))
        width, lam, cp = flags[key]
        return cp[i] if i < width else cp[width - lam + (i - width) % lam]

    def step(a: dict, gamma, coords, forward: bool) -> dict | None:
        out = dict(a)
        for x in coords:
            trace, i = a[x].trace, a[x].pos
            i += 1 if forward else -1
            while i >= 0 and not is_changepoint(trace, gamma, i):
                i += 1 if forward else -1
            if i < 0:
                return None
            out[x] = PointedTrace(trace, i)
        return out

    def walk(n, a: dict, ctx, coords, forward: bool) -> bool | None:
        # U and S: right now, or left now and the walk goes on
        res, pre = False, True
        for _ in (range(horizon + 1) if forward else itertools.count()):
            res = _k_any((res, _k_all((pre, ev(n.right, a, ctx)))))
            if res is True:
                return True
            pre = _k_all((pre, ev(n.left, a, ctx)))
            if pre is False:
                return res
            a = step(a, n.gamma, coords, forward)
            if a is None:
                return res
        return None

    def ev(n, a: dict, ctx) -> bool | None:
        if isinstance(n, pl.Top):
            return True
        if isinstance(n, hy.Atom):
            return n.prop in a[n.var].trace.letter(a[n.var].pos)
        if isinstance(n, hy.Not):
            return _k_not(ev(n.sub, a, ctx))
        if isinstance(n, hy.Or):
            return _k_any(ev(g, a, ctx) for g in (n.left, n.right))
        if isinstance(n, hy.Context):
            return ev(n.sub, a, n.vars)
        if isinstance(n, (hy.Exists, hy.Forall)):
            values = (ev(n.sub, {**a, n.var: PointedTrace(t, 0)}, ctx) for t in universe)
            return _k_any(values) if isinstance(n, hy.Exists) else _k_all(values)
        coords = sorted(set(ctx) & a.keys())
        forward = isinstance(n, (hy.Next, hy.Until))
        if isinstance(n, (hy.Next, hy.Yesterday)):
            b = step(a, n.gamma, coords, forward)
            return False if b is None else ev(n.sub, b, ctx)
        if not coords:
            return ev(n.right, a, ctx)
        return walk(n, a, ctx, coords, forward)

    return ev(f, dict(assignment), frozenset(context))


def ref_sentence(universe: Sequence[LassoTrace], f: hy.Hyper, horizon: int) -> str:
    """ref_ghyltl on a sentence, under the context of all its bound
    variables, as 'holds', 'fails' or 'unknown'."""
    bound, stack = set(), [f]
    while stack:
        n = stack.pop()
        if isinstance(n, (hy.Exists, hy.Forall)):
            bound.add(n.var)
        stack += [getattr(n, k) for k in ("sub", "left", "right") if hasattr(n, k)]
    v = ref_ghyltl(universe, {}, bound, f, horizon)
    return "unknown" if v is None else "holds" if v else "fails"


# -- random generators --------------------------------------------------------


def gen_trace(rng: random.Random, ap: Sequence[str], max_prefix: int,
              max_loop: int, density: float = 0.45) -> LassoTrace:
    def letter():
        return frozenset(a for a in ap if rng.random() < density)

    plen = rng.randint(0, max_prefix)
    llen = rng.randint(1, max_loop)
    return lasso(ap, [letter() for _ in range(plen)], [letter() for _ in range(llen)])


def gen_pltl(rng: random.Random, ap: Sequence[str], depth: int,
             past: bool = True) -> pl.Pltl:
    ops = ["atom", "not", "or", "and", "next", "until", "ev", "alw"]
    if past:
        ops += ["yesterday", "since", "once"]
    kind = rng.choice(ops) if depth > 0 else "atom"
    if kind == "atom":
        return pl.Atom(rng.choice(ap))
    if kind == "not":
        return pl.Not(gen_pltl(rng, ap, depth - 1, past))
    if kind == "or":
        return pl.Or(gen_pltl(rng, ap, depth - 1, past), gen_pltl(rng, ap, depth - 1, past))
    if kind == "and":
        return pl.p_and(gen_pltl(rng, ap, depth - 1, past), gen_pltl(rng, ap, depth - 1, past))
    if kind == "next":
        return pl.Next(gen_pltl(rng, ap, depth - 1, past))
    if kind == "until":
        return pl.Until(gen_pltl(rng, ap, depth - 1, past), gen_pltl(rng, ap, depth - 1, past))
    if kind == "ev":
        return pl.eventually(gen_pltl(rng, ap, depth - 1, past))
    if kind == "alw":
        return pl.always(gen_pltl(rng, ap, depth - 1, past))
    if kind == "yesterday":
        return pl.Yesterday(gen_pltl(rng, ap, depth - 1, past))
    if kind == "since":
        return pl.Since(gen_pltl(rng, ap, depth - 1, past), gen_pltl(rng, ap, depth - 1, past))
    return pl.once(gen_pltl(rng, ap, depth - 1, past))


def gen_gamma(rng: random.Random, ap: Sequence[str], member_depth: int = 2):
    r = rng.random()
    if r < 0.45:
        return frozenset()
    members = frozenset(gen_pltl(rng, ap, rng.randint(0, member_depth))
                        for _ in range(rng.randint(1, 2)))
    return members


def gen_matrix(rng: random.Random, ap: Sequence[str], scope: Sequence[str],
               depth: int, stutter: bool = False, contexts: bool = False,
               past: bool = False, since: bool = True) -> hy.Hyper:
    """A random quantifier-free formula; with past, Yesterday and (unless
    since is false) Since nodes."""
    ops = ["atom", "atom", "not", "or", "and", "next", "until", "ev", "alw"]
    if contexts:
        ops.append("ctx")
    if past:
        ops += ["yesterday", "since"] if since else ["yesterday"]
    kind = rng.choice(ops) if depth > 0 else "atom"

    def gamma():
        return gen_gamma(rng, ap) if stutter else frozenset()

    def sub(d=1):
        return gen_matrix(rng, ap, scope, depth - d, stutter, contexts, past, since)

    if kind == "atom":
        return hy.Atom(rng.choice(ap), rng.choice(list(scope)))
    if kind == "not":
        return hy.Not(sub())
    if kind == "or":
        return hy.Or(sub(), sub())
    if kind == "and":
        return hy.h_and(sub(), sub())
    if kind == "next":
        return hy.Next(gamma(), sub())
    if kind == "until":
        return hy.Until(gamma(), sub(), sub())
    if kind == "ev":
        return hy.ev(gamma(), sub())
    if kind == "alw":
        return hy.alw(gamma(), sub())
    if kind == "ctx":
        vs = frozenset(rng.sample(list(scope), rng.randint(1, len(scope))))
        return hy.Context(vs, sub())
    if kind == "yesterday":
        return hy.Yesterday(gamma(), sub())
    return hy.Since(gamma(), sub(), sub())


def gen_sentence(rng: random.Random, ap: Sequence[str], n_vars: int, depth: int,
                 stutter: bool = False, contexts: bool = False,
                 past: bool = False) -> hy.Hyper:
    scope = [f"v{i}" for i in range(n_vars)]
    matrix = gen_matrix(rng, ap, scope, depth, stutter, contexts, past)
    out = matrix
    for v in reversed(scope):
        out = (hy.Exists if rng.random() < 0.5 else hy.Forall)(v, out)
    return out


def gen_arith_term(rng: random.Random, nums: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(nums + ["0", "1", "3"])
    op = rng.choice("+*")
    return f"({gen_arith_term(rng, nums, depth - 1)} {op} {gen_arith_term(rng, nums, depth - 1)})"


def gen_arith(rng: random.Random, scope: list[str], depth: int) -> str:
    """Text of a random arithmetic formula with nested terms, constants, sets
    and <-> over the variables in scope; closed when scope is empty."""
    nums = [v for v in scope if v.islower()]
    sets = [v for v in scope if v.isupper()]
    r = rng.random()
    if nums and (depth == 0 or r < 0.2):
        if sets and rng.random() < 0.3:
            return f"{gen_arith_term(rng, nums, 2)} in {rng.choice(sets)}"
        return f"{gen_arith_term(rng, nums, 2)} {rng.choice('<=')} {gen_arith_term(rng, nums, 2)}"
    if nums and r < 0.3:
        return f"!({gen_arith(rng, scope, depth - 1)})"
    if nums and r < 0.55:
        op = rng.choice(["|", "&", "->", "<->"])
        return f"({gen_arith(rng, scope, depth - 1)} {op} {gen_arith(rng, scope, depth - 1)})"
    v = f"{'A' if nums and rng.random() < 0.3 else 'a'}{len(scope)}"
    q = rng.choice(["exists", "forall"])
    return f"({q} {v}. {gen_arith(rng, scope + [v], max(depth - 1, 1))})"


# -- curated corpus for the prenexification equivalence -----------------------
#
# Each sentence has exactly one quantifier under exactly one temporal operator.

LEMMA1_AP = ("p", "q")

LEMMA1_SENTENCES = [
    "exists a. X[] (exists b. (p_a & p_b))",
    "exists a. X[] (forall b. (p_a -> p_b))",
    "forall a. X[p] (exists b. (p_a <-> p_b))",
    "forall a. X[] (forall b. (q_a <-> q_b))",
    "exists a. F[] (exists b. (p_a & q_b))",
    "forall a. F[] (exists b. (p_a <-> p_b))",
    "exists a. F[q] (exists b. (q_a & (p_b | q_b)))",
    "exists a. G[] (exists b. (p_a <-> p_b))",
    "forall a. G[] (exists b. (p_a & p_b))",
    "forall a. G[p] (forall b. (p_a -> (p_b | q_b)))",
    "exists a. G[] (forall b. (p_b -> p_a))",
    "exists a. (p_a U[] (exists b. q_b))",
    "forall a. (q_a U[] (exists b. p_b))",
    "exists a. ((exists b. p_b) U[] q_a)",
    "exists a. ((forall b. p_b) U[] q_a)",
    "forall a. (p_a U[q] (forall b. (q_b -> p_a)))",
    "exists a. Y[] (exists b. p_b)",
    "forall a. Y[] (forall b. (p_a -> p_b))",
    "exists a. (p_a S[] (exists b. (p_b | q_a)))",
    "exists a. ((exists b. p_b) S[] q_a)",
    "exists a. O[] (exists b. (p_a & p_b))",
    "forall a. H[] (exists b. (p_a <-> p_b))",
]


# Sentences over ap p whose context names a variable that a binder outside
# its scope binds, or that a binder inside rebinds: renaming or hoisting the
# binders would change what the context steps, so the prenex transforms
# refuse them.  Each holds on (p)^w or on empty (p)^w, where renaming or
# hoisting without the check gives a rewrite that fails.
CONTEXT_CAPTURE_SENTENCES = [
    "(exists a. C{a} F[] C{a,b} Y[] p_a) & (exists b. true)",
    "(exists a. C{a} F[] C{a,b} Y[] p_a) & (exists b. F[] (exists c. p_c))",
    "exists a. (C{a} F[] C{a,b} Y[] p_a) & X[] (exists b. p_b)",
    "(exists b. p_b) | C{b} (exists b. F[] p_b)",
    "C{v} (Y[] true & (exists v. p_v))",
    "exists b. C{b} (exists b. F[] p_b)",
]


def lemma1_models() -> list[list[LassoTrace]]:
    ap = LEMMA1_AP
    return [
        [lasso(ap, [], [set()])],
        [lasso(ap, [], [{"p"}, set()]), lasso(ap, [], [{"p"}])],
        [lasso(ap, [{"q"}], [{"p"}]), lasso(ap, [], [set(), {"p", "q"}])],
        [lasso(ap, [], [{"p"}])],
        [lasso(ap, [], [{"q"}, {"p"}]), lasso(ap, [{"p"}], [{"q"}])],
    ]


def stable_pos_verdict(universe, transformed, max_bound: int = 8,
                       cfg: hy.EvalConfig = hy.DEFAULT_CONFIG):
    """Verdict of the transformed sentence over universe + position traces,
    taking the first slice bound that agrees with its successor."""
    from ghyltl.transform import pos_traces

    prev = None
    for bound in range(max_bound + 1):
        cur = hy.check_traceset(
            list(universe) + list(pos_traces(bound).traces), transformed, cfg)
        if prev is not None and cur.status == prev.status:
            return cur
        prev = cur
    return prev
