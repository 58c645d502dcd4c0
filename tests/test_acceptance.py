"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time

from ghyltl.arith import alpha_per_context, alpha_per_stutter, gadget_assignment, verify_gadget
from ghyltl.pltl import pltl_eval
from ghyltl.semantics import (EvalConfig, bounded_sat, check_traceset, evaluate,
                              parse_hyper)
from ghyltl.stutter import StepTables
from ghyltl.traces import PointedTrace, lasso
from ghyltl.transform import prenexify
from ghyltl.arith import dollar_blocks

from helpers import (LEMMA1_AP, LEMMA1_SENTENCES, brute_pltl_horizon,
                     brute_pltl_table, gen_pltl, gen_sentence, gen_trace,
                     lemma1_models, minimal_block_ratio, ref_hyperltl,
                     stable_pos_verdict)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_pltl_oracle_equivalence():
    rng = random.Random(10_001)
    ap = ("a", "b")
    t0 = time.perf_counter()
    mismatches = 0
    triples = 0
    while triples < 1000:
        trace = gen_trace(rng, ap, 6, 4)
        formula = gen_pltl(rng, ap, rng.randint(0, 4))
        horizon = brute_pltl_horizon(trace, formula)
        pos = rng.randrange(horizon)
        table = brute_pltl_table(trace, formula)
        if pltl_eval(trace, pos, formula) != table[pos]:
            mismatches += 1
        triples += 1
    elapsed = time.perf_counter() - t0
    report(1, "pltl-oracle", mismatches == 0 and elapsed < 10.0,
           f"(1000 triples, {mismatches} mismatches, {elapsed:.2f}s)")


def test_criterion_02_remark_conformance():
    rng = random.Random(10_002)
    bad = 0
    for _ in range(200):
        trace = gen_trace(rng, ("a", "b"), 4, 3)
        gamma = rng.choice([
            frozenset(),
            frozenset({gen_pltl(rng, ("c", "d"), 2)}),
            frozenset({gen_pltl(rng, ("c",), 1), gen_pltl(rng, ("d",), 2)}),
        ])
        for i in range(21):
            if StepTables().succ(PointedTrace(trace, i), gamma).pos != i + 1:
                bad += 1
            if i > 0:
                prev = StepTables().pred(PointedTrace(trace, i), gamma)
                if prev is None or prev.pos != i - 1:
                    bad += 1
        if StepTables().pred(PointedTrace(trace, 0), gamma) is not None:
            bad += 1
    report(2, "remark-plus-minus-one", bad == 0, f"(200 traces, {bad} deviations)")


def test_criterion_03_figure3_addition():
    t0 = time.perf_counter()
    for n3 in range(13):
        got = verify_gadget("add", 5, 4, n3, "stutter")
        assert got == (n3 == 9), f"5+4 vs n3={n3}: {got}"
    mismatches = sum(
        verify_gadget("add", n1, n2, n3, "stutter") != (n1 + n2 == n3)
        for n1 in range(7) for n2 in range(7) for n3 in range(13))
    elapsed = time.perf_counter() - t0
    report(3, "figure3-stutter-addition", mismatches == 0 and elapsed < 60.0,
           f"(sweep 7x7x13, {mismatches} mismatches, {elapsed:.2f}s)")


def test_criterion_04_figures45_periodicity():
    bad = 0
    for period in range(1, 7):
        same_c = dollar_blocks(period, "dlr")
        ctx = {"x", "xp"}
        a = {"x": PointedTrace(same_c, 0), "xp": PointedTrace(same_c, 0)}
        if not evaluate([], a, ctx, alpha_per_context("x", "xp")).is_holds:
            bad += 1
        st_x = dollar_blocks(period, "dlr")
        st_xp = dollar_blocks(period, "dlrp")
        a = {"x": PointedTrace(st_x, 0), "xp": PointedTrace(st_xp, 0)}
        if not evaluate([], a, ctx, alpha_per_stutter("x", "xp")).is_holds:
            bad += 1
    for period in range(1, 6):
        off_c = dollar_blocks(period + 1, "dlr")
        base_c = dollar_blocks(period, "dlr")
        a = {"x": PointedTrace(base_c, 0), "xp": PointedTrace(off_c, 0)}
        if not evaluate([], a, {"x", "xp"}, alpha_per_context("x", "xp")).is_fails:
            bad += 1
        st_x = dollar_blocks(period, "dlr")
        st_xp = dollar_blocks(period + 1, "dlrp")
        a = {"x": PointedTrace(st_x, 0), "xp": PointedTrace(st_xp, 0)}
        if not evaluate([], a, {"x", "xp"}, alpha_per_stutter("x", "xp")).is_fails:
            bad += 1
    report(4, "figures45-periodicity", bad == 0, f"(periods 1..6, {bad} deviations)")


def test_criterion_05_figure6_multiplication():
    t0 = time.perf_counter()
    for n3 in range(22):
        got = verify_gadget("mul", 3, 7, n3, "context")
        assert got == (n3 == 21), f"3*7 vs n3={n3}: {got}"
    mismatches = sum(
        verify_gadget("mul", n1, n2, n3, "context") != (n1 * n2 == n3)
        for n1 in range(5) for n2 in range(5) for n3 in range(17))
    elapsed = time.perf_counter() - t0
    report(5, "figure6-context-multiplication", mismatches == 0 and elapsed < 300.0,
           f"(sweep 5x5x17, {mismatches} mismatches, {elapsed:.2f}s)")


def test_criterion_06_equation_one():
    t0 = time.perf_counter()
    bad = sum(minimal_block_ratio(n1, n2) != n1
              for n2 in range(2, 9) for n1 in range(1, n2 + 1))
    elapsed = time.perf_counter() - t0
    report(6, "equation-one-minimality", bad == 0 and elapsed < 1.0,
           f"({bad} deviations, {elapsed:.3f}s)")


def test_criterion_07_atom_conformance():
    from ghyltl import arith
    bad = 0
    for encoding in ("stutter", "context"):
        comp = (arith._StutterCompiler(("y1", "y2")) if encoding == "stutter"
                else arith._ContextCompiler())
        less = comp.compile(arith.Less("y1", "y2"))
        for n1 in range(9):
            for n2 in range(9):
                a = gadget_assignment(encoding, n1, n2, 0)
                a = {k: a[k] for k in ("x_y1", "x_y2")}
                if evaluate([], a, set(a), less).is_holds != (n1 < n2):
                    bad += 1
        comp = (arith._StutterCompiler(("y",)) if encoding == "stutter"
                else arith._ContextCompiler())
        member = comp.compile(arith.Member("y", "Y"))
        prop = arith.num_prop("y") if encoding == "stutter" else arith.HASH
        from ghyltl.traces import spike_trace
        for mask in range(512):
            members = [i for i in range(9) if mask >> i & 1]
            if members:
                prefix = tuple(frozenset({"hash"}) if i in members else frozenset()
                               for i in range(max(members) + 1))
            else:
                prefix = ()
            set_trace = lasso({"hash"}, prefix, [set()])
            for n in range(9):
                a = {"x_y": PointedTrace(spike_trace((), prop, n), 0),
                     "x_Y": PointedTrace(set_trace, 0)}
                if evaluate([], a, set(a), member).is_holds != (n in members):
                    bad += 1
    report(7, "atom-conformance", bad == 0, f"(both encodings, {bad} deviations)")


def test_criterion_08_synchronous_conformance():
    rng = random.Random(10_008)
    ap = ("p", "q")
    bad = 0
    for _ in range(500):
        universe = [gen_trace(rng, ap, 3, 2) for _ in range(rng.randint(1, 3))]
        sentence = gen_sentence(rng, ap, rng.randint(1, 3), rng.randint(1, 4))
        got = check_traceset(universe, sentence)
        if got.is_unknown or got.is_holds != ref_hyperltl(universe, sentence):
            bad += 1
    report(8, "synchronous-conformance", bad == 0, f"(500 sentences, {bad} deviations)")


def test_criterion_09_prenexification_corpus():
    models = lemma1_models()
    assert len(LEMMA1_SENTENCES) >= 20
    bad = 0
    for text in LEMMA1_SENTENCES:
        f = parse_hyper(text, LEMMA1_AP)
        fp = prenexify(f, LEMMA1_AP)
        for universe in models:
            want = check_traceset(universe, f)
            got = stable_pos_verdict(universe, fp, 8)
            if want.is_unknown or got.status != want.status:
                bad += 1
    report(9, "prenexification-corpus",
           bad == 0, f"({len(LEMMA1_SENTENCES)} sentences x {len(models)} models, "
                     f"{bad} deviations)")


def test_criterion_10_bounded_satisfiability():
    ap = frozenset({"li", "lo"})
    noninterference = parse_hyper(
        "forall x. forall y. (G[] (li_x <-> li_y)) -> (G[] (lo_x <-> lo_y))", ap)
    model = bounded_sat(noninterference, 3, 1, 1, ap)
    ok = model is not None and len(model) == 1
    contradiction = parse_hyper("exists x. p_x & !p_x", {"p"})
    none_found = bounded_sat(contradiction, 3, 3, 2, {"p"}) is None
    report(10, "bounded-satisfiability", ok and none_found,
           f"(model size {len(model) if model else None}, contradiction "
           f"{'unsat' if none_found else 'SAT?'})")


def test_criterion_11_until_cycle_safety():
    rng = random.Random(10_011)
    ap = ("p", "q")
    contradictions = 0
    resolved = 0
    for _ in range(300):
        universe = [gen_trace(rng, ap, 3, 2) for _ in range(rng.randint(1, 3))]
        sentence = gen_sentence(rng, ap, rng.randint(1, 2), rng.randint(1, 4),
                                stutter=True, contexts=True)
        detected = check_traceset(universe, sentence, EvalConfig())
        unrolled = check_traceset(universe, sentence,
                                  EvalConfig(use_cycle_detection=False))
        if not unrolled.is_unknown:
            resolved += 1
            if detected.status != unrolled.status:
                contradictions += 1
    report(11, "until-cycle-safety", contradictions == 0,
           f"(300 cases, {resolved} resolved, {contradictions} contradictions)")
