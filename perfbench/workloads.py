"""The four benchmark workloads: seeded inputs, the timed operation, and a
reference verdict that does not come from the timed code path.

The generators are copies of the ones the test suite uses, frozen here so that
a change to the test generators cannot silently change what the benchmark
measures.  Everything is derived from the seed; the program under test only
sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ghyltl import arith, cli, transform
from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.traces import LassoTrace, lasso, save_trace_set

# -- frozen generators ----------------------------------------------------------


def gen_trace(rng: random.Random, ap: Sequence[str], max_prefix: int,
              max_loop: int, density: float = 0.45) -> LassoTrace:
    def letter():
        return frozenset(a for a in ap if rng.random() < density)

    plen = rng.randint(0, max_prefix)
    llen = rng.randint(1, max_loop)
    return lasso(ap, [letter() for _ in range(plen)], [letter() for _ in range(llen)])


def gen_pltl(rng: random.Random, ap: Sequence[str], depth: int) -> pl.Pltl:
    ops = ["atom", "not", "or", "and", "next", "until", "ev", "alw",
           "yesterday", "since", "once"]
    kind = rng.choice(ops) if depth > 0 else "atom"
    if kind == "atom":
        return pl.Atom(rng.choice(ap))
    if kind == "not":
        return pl.Not(gen_pltl(rng, ap, depth - 1))
    if kind in ("or", "and", "until", "since"):
        left, right = gen_pltl(rng, ap, depth - 1), gen_pltl(rng, ap, depth - 1)
        return {"or": pl.Or, "and": pl.p_and, "until": pl.Until, "since": pl.Since}[kind](left, right)
    sub = gen_pltl(rng, ap, depth - 1)
    return {"next": pl.Next, "ev": pl.eventually, "alw": pl.always,
            "yesterday": pl.Yesterday, "once": pl.once}[kind](sub)


def gen_gamma(rng: random.Random, ap: Sequence[str], member_depth: int) -> frozenset:
    if rng.random() < 0.45:
        return frozenset()
    return frozenset(gen_pltl(rng, ap, rng.randint(0, member_depth))
                     for _ in range(rng.randint(1, 2)))


def gen_matrix(rng: random.Random, ap: Sequence[str], scope: Sequence[str], depth: int,
               member_depth: int) -> hy.Hyper:
    """Quantifier-free matrix with stutter gammas, contexts and hyper past."""
    ops = ["atom", "atom", "not", "or", "and", "next", "until", "ev", "alw", "ctx",
           "yesterday", "since"]
    kind = rng.choice(ops) if depth > 0 else "atom"

    def gamma():
        return gen_gamma(rng, ap, member_depth)

    def sub():
        return gen_matrix(rng, ap, scope, depth - 1, member_depth)

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
        return hy.Context(frozenset(rng.sample(list(scope), rng.randint(1, len(scope)))), sub())
    if kind == "yesterday":
        return hy.Yesterday(gamma(), sub())
    return hy.Since(gamma(), sub(), sub())


def quantify(rng: random.Random, scope: Sequence[str], matrix: hy.Hyper) -> hy.Hyper:
    out = matrix
    for v in reversed(scope):
        out = (hy.Exists if rng.random() < 0.5 else hy.Forall)(v, out)
    return out


# Criterion 09's corpus: one quantifier under exactly one temporal operator.
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


# -- workloads --------------------------------------------------------------------


@dataclass
class Workload:
    """``make(rng, n_ops, workdir)`` builds the op inputs; ``run(x)`` is the timed
    op and returns a status; ``reference(x)`` is the expected status."""

    name: str
    ops: int
    make: Callable
    run: Callable[[object], str]
    reference: Callable[[object], str]
    loads: tuple[str, ...]


def _gadget_make(rng, n_ops, workdir):
    # The cost of an op is set by (n1, n2) and by whether n3 = n1 * n2, so each
    # pair appears once with n3 = n1 * n2 and then with seeded other values of n3.
    pairs = [(n1, n2) for n1 in range(5) for n2 in range(5)]
    ops = [(3, 7, 20), (3, 7, 21)]
    for i in range(n_ops - len(ops)):
        n1, n2 = pairs[i % len(pairs)]
        n3 = n1 * n2
        if i >= len(pairs):
            n3 = rng.choice([n for n in range(17) if n != n1 * n2])
        ops.append((n1, n2, n3))
    rng.shuffle(ops)
    return ops


def _gadget_run(x):
    n1, n2, n3 = x
    return "holds" if arith.verify_gadget("mul", n1, n2, n3, "context") else "fails"


def _gadget_reference(x):
    n1, n2, n3 = x
    return "holds" if n1 * n2 == n3 else "fails"


SAT_AP = ("p", "q")


# Sizes that set the cost of an op (variable count, universe size, sentence)
# cycle over the op index rather than being drawn, so that the total work of a
# pass barely depends on the seed; the seed draws everything else.


def _sat_make(rng, n_ops, workdir):
    out = []
    for i in range(n_ops):
        scope = [f"v{k}" for k in range(1 + i % 3)]
        matrix = gen_matrix(rng, SAT_AP, scope, 3, member_depth=2)
        # F[g] p_v0 & C{v0} G[] !p_v0 is false under every assignment, so every
        # sentence is unsatisfiable and bounded_sat must exhaust all candidates.
        trap = hy.h_and(hy.ev(gen_gamma(rng, SAT_AP, 2), hy.Atom("p", "v0")),
                        hy.Context(frozenset({"v0"}),
                                   hy.alw(frozenset(), hy.Not(hy.Atom("p", "v0")))))
        out.append(quantify(rng, scope, hy.h_and(matrix, trap)))
    return out


def _sat_run(f):
    return "fails" if hy.bounded_sat(f, 2, 1, 1, SAT_AP) is None else "holds"


def _sat_reference(f):
    return "fails"


CLI_AP = ("p", "q", "r")


def _cli_make(rng, n_ops, workdir):
    out = []
    for i in range(n_ops):
        scope = [f"v{k}" for k in range(1 + i % 3)]
        sentence = quantify(rng, scope, gen_matrix(rng, CLI_AP, scope, 4, member_depth=6))
        universe = [gen_trace(rng, CLI_AP, 10, 8) for _ in range(1 + i // 3 % 3)]
        traces_path = os.path.join(workdir, f"traces{i}.json")
        formula_path = os.path.join(workdir, f"formula{i}.ghyltl")
        with open(traces_path, "w", encoding="utf-8") as fp:
            save_trace_set(fp, CLI_AP, universe)
        with open(formula_path, "w", encoding="utf-8") as fp:
            fp.write(f"ap: {', '.join(CLI_AP)}\n{hy.render_hyper(sentence)}\n")
        out.append((traces_path, formula_path, universe))
    return out


def _cli_run(x):
    traces_path, formula_path, _ = x
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["eval", traces_path, formula_path, "--json"])
    status = json.loads(buf.getvalue())["verdict"]
    if code != cli.EXIT[status]:
        raise RuntimeError(f"exit code {code} does not match verdict {status}")
    return status


# The unroller: no cycle closing, so it decides an Until only by reaching the
# witness.  A lower cutoff can only turn a definite answer into unknown; on the
# benchmark's inputs the unknown ops were the same at cutoffs 30 to 200, while
# the cost grows steeply with the cutoff for nested Untils.
UNROLLER = hy.EvalConfig(until_cutoff=40, use_cycle_detection=False)


def _cli_reference(x):
    _, formula_path, universe = x
    with open(formula_path, encoding="utf-8") as fp:
        body = fp.read().split("\n", 1)[1]
    sentence = hy.parse_hyper(body, CLI_AP)
    return hy.check_traceset(universe, sentence, UNROLLER).status


POS_BOUND = 8


def _prenex_make(rng, n_ops, workdir):
    out = []
    for i in range(n_ops):
        text = LEMMA1_SENTENCES[i % len(LEMMA1_SENTENCES)]
        size = 1 + i // len(LEMMA1_SENTENCES) % 3
        universe = [gen_trace(rng, LEMMA1_AP, 2, 2) for _ in range(size)]
        out.append((hy.parse_hyper(text, LEMMA1_AP), universe))
    return out


def _prenex_run(x):
    f, universe = x
    fp = transform.prenexify(f, LEMMA1_AP)
    model = list(universe) + list(transform.pos_traces(POS_BOUND).traces)
    return hy.check_traceset(model, fp).status


def _prenex_reference(x):
    f, universe = x
    # Lemma 1: the prenex form over L plus position traces agrees with the
    # original sentence over L.
    return hy.check_traceset(universe, f).status


_EVAL_CORE = ("semantics.evaluate", "stutter.assign_succ", "stutter.changepoint_profile")

WORKLOADS = {w.name: w for w in [
    Workload("gadget-mul-context", 52, _gadget_make, _gadget_run, _gadget_reference,
             _EVAL_CORE + ("arith.verify_gadget", "arith.gadget_formula",
                           "arith.gadget_universe")),
    Workload("sat-unsat-sweep", 100, _sat_make, _sat_run, _sat_reference,
             _EVAL_CORE + ("semantics.bounded_sat", "semantics.check_traceset",
                           "traces.enumerate_lassos", "traces.normalize",
                           "pltl.valuation_profile", "stutter.assign_pred")),
    Workload("cli-stutter-corpus", 1000, _cli_make, _cli_run, _cli_reference,
             _EVAL_CORE + ("cli.main", "cli.read_formula_file", "semantics.parse_hyper",
                           "traces.load_trace_set", "semantics.check_traceset",
                           "pltl.valuation_profile", "stutter.assign_pred")),
    Workload("prenex-pos-corpus", 264, _prenex_make, _prenex_run, _prenex_reference,
             _EVAL_CORE + ("transform.prenexify", "transform.pos_traces",
                           "semantics.check_traceset", "stutter.assign_pred")),
]}
