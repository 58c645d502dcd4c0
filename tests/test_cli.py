import json
from pathlib import Path

import pytest

from ghyltl.cli import main
from ghyltl.semantics import check_traceset, parse_hyper
from ghyltl.cli import read_formula_file
from ghyltl.traces import lasso
from ghyltl.transform import MARK, pos_traces, prenexify

from helpers import CONTEXT_CAPTURE_SENTENCES

TRACES_ONE_EMPTY = {
    "ap": ["li", "lo", "p"],
    "traces": [{"name": "t0", "prefix": [], "loop": [[]]}],
}

NONINTERFERENCE = ("ap: li, lo\n"
                   "forall x. forall y. (G[] (li_x <-> li_y)) -> (G[] (lo_x <-> lo_y))\n")


@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    (tmp_path / "traces.json").write_text(json.dumps(TRACES_ONE_EMPTY), encoding="utf-8")
    (tmp_path / "noninterference.ghyltl").write_text(NONINTERFERENCE, encoding="utf-8")
    return tmp_path


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


def test_eval_holds_exit_zero(workdir, capsys):
    code, out = run(["eval", workdir / "traces.json", workdir / "noninterference.ghyltl"],
                    capsys)
    assert code == 0
    assert "verdict: holds" in out


def test_eval_fails_exit_one(workdir, capsys):
    (workdir / "f.ghyltl").write_text("ap: p\nexists x. p_x\n", encoding="utf-8")
    code, out = run(["eval", workdir / "traces.json", workdir / "f.ghyltl"], capsys)
    assert code == 1


def test_eval_parse_error_exit_three(workdir, capsys):
    (workdir / "bad.ghyltl").write_text("ap: p\nexists x. p_x &\n", encoding="utf-8")
    code = main(["eval", str(workdir / "traces.json"), str(workdir / "bad.ghyltl")])
    err = capsys.readouterr().err
    assert code == 3
    assert "line" in err and "column" in err


@pytest.mark.parametrize("header,column,problem", [
    ("ap: true, q", 5, "'true' is reserved"),
    ("ap: q, false", 8, "'false' is reserved"),
    ("ap: p q", 5, "'p q' is not a single identifier"),
    ("  ap: q ,  p-r", 12, "'p-r' is not a single identifier"),
    ("ap: X, q", 5, "'X' is reserved for an operator"),
])
def test_reserved_or_unreadable_proposition_exit_three(workdir, capsys, header, column, problem):
    (workdir / "f.ghyltl").write_text(f"{header}\nexists x. F[true] q_x\n", encoding="utf-8")
    code = main(["eval", str(workdir / "traces.json"), str(workdir / "f.ghyltl")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and problem in lines[0]
    assert f"(line 1, column {column})" in lines[0]


def test_formula_file_without_header_exit_three(workdir, capsys):
    (workdir / "f.ghyltl").write_text("exists x. F[] p_x\n", encoding="utf-8")
    code = main(["eval", str(workdir / "traces.json"), str(workdir / "f.ghyltl")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "'ap:' header" in lines[0]


def test_body_errors_count_lines_from_the_header(workdir, capsys):
    (workdir / "bad.ghyltl").write_text("ap: p\nexists x.\n F[] p_ &\n", encoding="utf-8")
    code = main(["eval", str(workdir / "traces.json"), str(workdir / "bad.ghyltl")])
    err = capsys.readouterr().err
    assert code == 3 and "(line 3, column 6)" in err


def test_atom_without_variable_exit_three(workdir, capsys):
    (workdir / "bad.ghyltl").write_text("ap: p\nforall x. p_\n", encoding="utf-8")
    code = main(["eval", str(workdir / "traces.json"), str(workdir / "bad.ghyltl")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "trace variable" in lines[0] and "column 11" in lines[0]


def test_missing_file_exit_three(workdir, capsys):
    code = main(["eval", str(workdir / "nope.json"), str(workdir / "noninterference.ghyltl")])
    assert code == 3


def test_json_report_deterministic(workdir, capsys):
    args = ["eval", workdir / "traces.json", workdir / "noninterference.ghyltl", "--json"]
    _, out1 = run(args, capsys)
    _, out2 = run(args, capsys)
    o1, o2 = json.loads(out1), json.loads(out2)
    o1.pop("timing_ms"), o2.pop("timing_ms")
    assert o1 == o2


def test_check_exit_codes(workdir, capsys):
    system = {
        "ap": ["p"],
        "vertices": [{"id": "a", "label": []}, {"id": "b", "label": ["p"]}],
        "edges": [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]],
        "initial": ["a", "b"],
    }
    (workdir / "sys.json").write_text(json.dumps(system), encoding="utf-8")
    (workdir / "e.ghyltl").write_text("ap: p\nexists x. G[] !p_x\n", encoding="utf-8")
    code, out = run(["check", workdir / "sys.json", workdir / "e.ghyltl"], capsys)
    assert code == 0
    (workdir / "ae.ghyltl").write_text(
        "ap: p\nforall x. exists y. G[] (p_x <-> p_y)\n", encoding="utf-8")
    code, out = run(["check", workdir / "sys.json", workdir / "ae.ghyltl"], capsys)
    assert code == 2
    assert "reason:" in out


def test_gadget_command(workdir, capsys):
    code, _ = run(["gadget", "--encoding", "stutter", "--op", "add",
                   "--n1", 5, "--n2", 4, "--n3", 9], capsys)
    assert code == 0
    code, _ = run(["gadget", "--encoding", "context", "--op", "mul",
                   "--n1", 3, "--n2", 7, "--n3", 21], capsys)
    assert code == 0
    code, _ = run(["gadget", "--encoding", "context", "--op", "mul",
                   "--n1", 2, "--n2", 2, "--n3", 5], capsys)
    assert code == 1


def test_gadget_bound_reports_unknown(workdir, capsys):
    code, out = run(["gadget", "--encoding", "context", "--op", "mul", "--n1", 3, "--n2", 7,
                     "--n3", 21, "--until-cutoff", 1, "--json"], capsys)
    report = json.loads(out)
    assert code == 2
    assert report["verdict"] == "unknown"
    assert report["reason"] == "gadget evaluation hit a bound: until-cutoff"


def test_too_deep_formula_exit_three(workdir, capsys):
    nested = "(" * 3000 + "p_x" + ")" * 3000
    (workdir / "deep.ghyltl").write_text(f"ap: p\nforall x. {nested}\n", encoding="utf-8")
    code = main(["eval", str(workdir / "traces.json"), str(workdir / "deep.ghyltl")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("wrap, atom, code", [
    ("{}", "p_x", 1), ("G[] ({})", "!p_x", 0), ("F[] ({})", "p_x", 1), ("H[] ({})", "!p_x", 0),
])
def test_long_conjunction_gets_a_verdict(workdir, capsys, wrap, atom, code):
    body = wrap.format(" & ".join([atom] * 2000))
    (workdir / "long.ghyltl").write_text(f"ap: p\nforall x. {body}\n", encoding="utf-8")
    got, out = run(["eval", workdir / "traces.json", workdir / "long.ghyltl"], capsys)
    assert got == code
    assert f"verdict: {'holds' if code == 0 else 'fails'}" in out


def test_long_tautology_written_twice_gets_a_verdict(workdir, capsys):
    # f | !f written out is an Or of two separate trees, evaluated as one
    # chain of operands, so its length does not matter
    conj = " & ".join(["p_x"] * 2000)
    (workdir / "taut.ghyltl").write_text(f"ap: p\nforall x. ({conj}) | !({conj})\n",
                                         encoding="utf-8")
    code, out = run(["eval", workdir / "traces.json", workdir / "taut.ghyltl"], capsys)
    assert code == 0
    assert "verdict: holds" in out


@pytest.mark.parametrize("args", [
    ["eval", "tr.json"],
    ["eval", "tr.json", "f.ghyltl", "--until-cutoff", "abc"],
])
def test_usage_error_exit_three(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ghyltl eval: ")


def _cli_runs(workdir):
    # one cheap run of each command that evaluates sentences
    (workdir / "f.ghyltl").write_text("ap: p\nexists x. p_x\n", encoding="utf-8")
    (workdir / "s.json").write_text(json.dumps(GOOD_SYSTEM), encoding="utf-8")
    return {
        "eval": ["eval", workdir / "traces.json", workdir / "f.ghyltl"],
        "check": ["check", workdir / "s.json", workdir / "f.ghyltl"],
        "gadget": ["gadget", "--encoding", "context", "--op", "add",
                   "--n1", "1", "--n2", "1", "--n3", "2"],
        "sat": ["sat", workdir / "f.ghyltl", "--max-traces", "1", "--max-prefix", "0",
                "--max-loop", "1"],
    }


@pytest.mark.parametrize("command", ["eval", "check", "gadget", "sat"])
def test_cycle_margin_is_no_option_and_no_bound(workdir, capsys, command):
    args = _cli_runs(workdir)[command]
    code, out = run(args + ["--json"], capsys)
    assert code in (0, 1, 2)
    assert json.loads(out)["bounds"]["until_cutoff"] == 200
    assert "cycle_margin" not in json.loads(out)["bounds"]
    code = main([str(a) for a in args] + ["--cycle-margin", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1 and "--cycle-margin" in captured.err


def test_unexpected_exception_exit_three(workdir, capsys, monkeypatch):
    import ghyltl.cli

    def broken(*args, **kwargs):
        raise TypeError("unorderable vertex ids")

    monkeypatch.setattr(ghyltl.cli.semantics, "check_traceset", broken)
    code = main([str(a) for a in _cli_runs(workdir)["eval"]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unorderable vertex ids"]
    assert "Traceback" not in captured.err


def test_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ghyltl eval")


def test_compile_writes_artifacts(workdir, capsys):
    (workdir / "arith.txt").write_text(
        "exists y. exists Y. y in Y", encoding="utf-8")
    out = workdir / "compiled"
    code, _ = run(["compile", "--encoding", "stutter", workdir / "arith.txt", out], capsys)
    assert code == 0
    assert (out / "varmap.json").exists()
    from ghyltl.traces import load_transition_system, save_transition_system
    import io
    with open(out / "system.json", encoding="utf-8") as fp:
        ts = load_transition_system(fp)
    buf = io.StringIO()
    save_transition_system(buf, ts)
    assert buf.getvalue() == (out / "system.json").read_text(encoding="utf-8")
    ap, formula = read_formula_file(str(out / "formula.ghyltl"))
    text = (out / "formula.ghyltl").read_text(encoding="utf-8")
    assert "F[] (hy_y_x_y & hash_x_Y)" in text
    # round trip: the emitted formula re-parses to the same AST
    assert parse_hyper(text.splitlines()[1], ap) == formula
    varmap = json.loads((out / "varmap.json").read_text(encoding="utf-8"))
    assert varmap["varmap"] == {"y": "x_y", "Y": "x_Y"}


@pytest.mark.parametrize("command", ["compile", "gadget"])
def test_strict_fidelity_under_stutter_is_a_usage_error(workdir, capsys, command):
    # the stutter encoding has no conditional cases, so the flag would do nothing
    (workdir / "arith.txt").write_text("exists a. exists b. exists c. a * b = c",
                                       encoding="utf-8")
    args = {"compile": ["compile", workdir / "arith.txt", workdir / "out"],
            "gadget": ["gadget", "--op", "mul", "--n1", "0", "--n2", "0", "--n3", "5"]}[command]
    code = main([str(a) for a in args] + ["--encoding", "stutter", "--strict-fidelity"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: --strict-fidelity applies to --encoding context only"]
    assert not (workdir / "out").exists()
    code, _ = run(args + ["--encoding", "context", "--strict-fidelity"], capsys)
    assert code == 0


def test_compile_context_fragment(workdir, capsys):
    (workdir / "arith.txt").write_text(
        "exists a. exists b. exists c. a + b = c", encoding="utf-8")
    out = workdir / "compiled_ctx"
    code, report = run(["compile", "--encoding", "context", workdir / "arith.txt",
                        out, "--json"], capsys)
    assert code == 0
    assert json.loads(report)["detail"]["fragment"] == "HyperLTL_C"


def test_prenex_identity_byte_stable(workdir, capsys):
    text = "ap: p\nforall x. exists y. G[] (p_x <-> p_y)\n"
    (workdir / "pf.ghyltl").write_text(text, encoding="utf-8")
    out1 = workdir / "out1.ghyltl"
    code, _ = run(["prenex", workdir / "pf.ghyltl", "--out", out1], capsys)
    assert code == 0
    # identity on prenex input: re-running on the output is byte-stable
    out2 = workdir / "out2.ghyltl"
    code, _ = run(["prenex", out1, "--out", out2], capsys)
    assert code == 0
    assert out1.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")


def test_prenex_transforms_inner_quantifier(workdir, capsys):
    (workdir / "inner.ghyltl").write_text(
        "ap: p\nexists x. G[] (exists y. (p_x <-> p_y))\n", encoding="utf-8")
    out = workdir / "outp.ghyltl"
    code, _ = run(["prenex", workdir / "inner.ghyltl", "--out", out], capsys)
    assert code == 0
    ap, formula = read_formula_file(str(out))
    assert "hash" in ap
    from ghyltl.semantics import is_prenex
    assert is_prenex(formula)


# atoms print as prop_var and read back at the longest proposition prefix, so
# beside a_x the marker hy_a on x_a would print as hy_a_x_a and read back as
# hy_a_x on a: a number whose name has a '_' is compiled under a fresh name
UNDERSCORED_NAMES = [
    ("exists a. exists a_x. a < a_x", {"a": "x_a", "a_x": "x_v0"}),
    ("exists a. exists a_x_a. exists a_x_a_x_a. (a < a_x_a & a_x_a < a_x_a_x_a)",
     {"a": "x_a", "a_x_a": "x_v0", "a_x_a_x_a": "x_v1"}),
]


@pytest.mark.parametrize("text,want", UNDERSCORED_NAMES, ids=[t for t, _ in UNDERSCORED_NAMES])
def test_compile_underscored_names_read_back(workdir, capsys, text, want):
    from ghyltl.arith import compile_arith, flatten, parse_arith
    (workdir / "arith.txt").write_text(text, encoding="utf-8")
    out = workdir / "compiled"
    code, _ = run(["compile", "--encoding", "stutter", workdir / "arith.txt", out], capsys)
    assert code == 0
    artifact = compile_arith(flatten(parse_arith(text)), "stutter")
    _, formula = read_formula_file(str(out / "formula.ghyltl"))
    assert formula == artifact.sentence
    varmap = json.loads((out / "varmap.json").read_text(encoding="utf-8"))["varmap"]
    assert varmap == artifact.var_map == want
    code, report = run(["check", out / "system.json", out / "formula.ghyltl",
                        "--max-prefix", "3", "--max-loop", "1"], capsys)
    assert code == 0 and "verdict: holds" in report


@pytest.mark.parametrize("to_file", [False, True])
def test_prenex_renamed_binder_reads_back(workdir, capsys, to_file):
    # the inner x is renamed x0, whose atom q_x0 cannot be read as q_x on 0
    ap = {"q", "q_x"}
    (workdir / "p.ghyltl").write_text("ap: q, q_x\nexists x. G[] (exists x. q_x)\n",
                                      encoding="utf-8")
    target = workdir / "prenexed.ghyltl"
    code = main(["prenex", str(workdir / "p.ghyltl")] + (["--out", str(target)] * to_file))
    out = capsys.readouterr().out
    assert code == 0
    text = target.read_text(encoding="utf-8").splitlines()[1] if to_file \
        else out.splitlines()[-1]
    f = parse_hyper("exists x. G[] (exists x. q_x)", ap)
    fp = prenexify(f, ap)
    assert parse_hyper(text, ap | {MARK}) == fp
    verdicts = []
    for loops in ([[{"q"}]], [[{"q_x"}]], [[{"q_x"}], [{"q"}, set()]], [[set(), {"q"}]]):
        universe = [lasso(sorted(ap), [], loop) for loop in loops]
        verdicts.append(check_traceset(universe, f).status)
        assert check_traceset(universe + list(pos_traces(8).traces), fp).status == verdicts[-1]
    assert verdicts == ["holds", "fails", "holds", "fails"]


@pytest.mark.parametrize("text", CONTEXT_CAPTURE_SENTENCES)
def test_prenex_refuses_a_context_outside_its_binder(workdir, capsys, text):
    (workdir / "c.ghyltl").write_text(f"ap: p\n{text}\n", encoding="utf-8")
    target = workdir / "prenexed.ghyltl"
    code = main(["prenex", str(workdir / "c.ghyltl"), "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and len(captured.err.splitlines()) == 1
    assert not target.exists()


def test_sat_contradiction_unknown(workdir, capsys):
    # an exhausted bounded search proves nothing about larger models
    (workdir / "c.ghyltl").write_text("ap: p\nexists x. p_x & !p_x\n", encoding="utf-8")
    code, out = run(["sat", workdir / "c.ghyltl", "--max-traces", 3,
                     "--max-prefix", 3, "--max-loop", 2], capsys)
    assert code == 2
    assert "reason: sat-bound(max_traces=3,max_prefix=3,max_loop=2)" in out


SPIKE_AT_THREE = "ap: p\nexists x. !p_x & X[] !p_x & X[] X[] !p_x & X[] X[] X[] p_x\n"


def test_sat_bound_too_small_is_unknown(workdir, capsys):
    (workdir / "s.ghyltl").write_text(SPIKE_AT_THREE, encoding="utf-8")
    code, out = run(["sat", workdir / "s.ghyltl", "--max-traces", 1,
                     "--max-prefix", 1, "--max-loop", 2, "--json"], capsys)
    assert code == 2
    obj = json.loads(out)
    assert obj["verdict"] == "unknown"
    assert obj["reason"] == "sat-bound(max_traces=1,max_prefix=1,max_loop=2)"
    assert obj["detail"] == {}


def test_sat_larger_bound_finds_the_model(workdir, capsys):
    (workdir / "s.ghyltl").write_text(SPIKE_AT_THREE, encoding="utf-8")
    code, out = run(["sat", workdir / "s.ghyltl", "--max-traces", 1,
                     "--max-prefix", 3, "--max-loop", 2, "--json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "holds" and obj["reason"] is None
    # the first model by prefix length, then loop length: {}{}({}{p})^w
    model = json.loads(obj["detail"]["model"])
    assert [(t["prefix"], t["loop"]) for t in model["traces"]] == [([[], []], [[], ["p"]])]


def test_sat_writes_model(workdir, capsys):
    model = workdir / "model.json"
    code, _ = run(["sat", workdir / "noninterference.ghyltl", "--max-traces", 1,
                   "--max-prefix", 0, "--max-loop", 1, "--out", model], capsys)
    assert code == 0
    obj = json.loads(model.read_text(encoding="utf-8"))
    assert len(obj["traces"]) == 1


def test_eval_periodicity_witness_file(workdir, capsys):
    # periodic dollar-block traces satisfy the existentially closed
    # periodicity conjunction; dropping one block position breaks it
    from ghyltl.arith import alpha_per_context
    from ghyltl.semantics import Exists, render_hyper

    sentence = Exists("x", Exists("xp", alpha_per_context("x", "xp")))
    good = {"ap": ["dlr", "hash"], "traces": [
        {"name": "per3", "prefix": [], "loop": [["dlr"]] * 3 + [[]] * 3}]}
    bad = {"ap": ["dlr", "hash"], "traces": [
        {"name": "per32", "prefix": [], "loop": [["dlr"]] * 3 + [[]] * 2}]}
    (workdir / "per.json").write_text(json.dumps(good), encoding="utf-8")
    (workdir / "per_bad.json").write_text(json.dumps(bad), encoding="utf-8")
    (workdir / "alpha.ghyltl").write_text(
        "ap: dlr, hash\n" + render_hyper(sentence) + "\n", encoding="utf-8")
    code, _ = run(["eval", workdir / "per.json", workdir / "alpha.ghyltl"], capsys)
    assert code == 0
    code, _ = run(["eval", workdir / "per_bad.json", workdir / "alpha.ghyltl"], capsys)
    assert code == 1


def test_oracle_command(workdir, capsys):
    (workdir / "a.txt").write_text(
        "exists a. exists b. exists c. (a * b = c & c = 12 & a < b & 2 < a)",
        encoding="utf-8")
    code, _ = run(["oracle", workdir / "a.txt", "--bound", 13], capsys)
    assert code == 0
    # no witness up to the bound proves nothing over the naturals
    (workdir / "b.txt").write_text("exists a. a < a", encoding="utf-8")
    code, out = run(["oracle", workdir / "b.txt"], capsys)
    assert code == 2
    assert "reason: arith-bound(bound=12,bit_cap=12)" in out
    assert "bounded_value: False" in out


def test_oracle_large_constant(workdir, capsys):
    # constants are built by doubling, so a six-digit one flattens at once
    (workdir / "big.txt").write_text("exists a. 200000 = a", encoding="utf-8")
    code, out = run(["oracle", workdir / "big.txt", "--bound", 4, "--json"], capsys)
    assert code == 2
    assert json.loads(out)["reason"] == "arith-bound(bound=4,bit_cap=12)"


@pytest.mark.parametrize("text,bounded", [
    ("forall a. exists b. a < b", False),  # true over N; the bound has a largest number
    ("exists a. forall b. b < a | b = a", True),  # false over N; the bound's largest is a
])
def test_oracle_alternation_is_unknown(workdir, capsys, text, bounded):
    (workdir / "alt.txt").write_text(text, encoding="utf-8")
    code, out = run(["oracle", workdir / "alt.txt", "--bound", 8, "--json"], capsys)
    assert code == 2
    obj = json.loads(out)
    assert obj["verdict"] == "unknown"
    assert obj["reason"] == "arith-bound(bound=8,bit_cap=12)"
    assert obj["detail"] == {"bounded_value": bounded}


@pytest.mark.parametrize("text,free", [
    ("a < 1", "['a']"),  # a free first-order variable
    ("exists a. a in B", "['B']"),  # a free second-order one
])
def test_oracle_open_formula_exit_three(workdir, capsys, text, free):
    (workdir / "open.txt").write_text(text, encoding="utf-8")
    code = main(["oracle", str(workdir / "open.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: sentence must be closed; free variables {free}"]


@pytest.mark.parametrize("args", [
    ["sat", "{f}", "--max-prefix", -1],
    ["check", "{sys}", "{f}", "--max-prefix", -1],
    ["oracle", "{arith}", "--bit-cap", -1],
], ids=["sat", "check", "oracle"])
def test_negative_bound_exit_three(workdir, capsys, args):
    # a bound below zero makes no sense; it is not an empty search
    (workdir / "f.ghyltl").write_text("ap: p\nforall x. G[] p_x\n", encoding="utf-8")
    (workdir / "sys.json").write_text(json.dumps(GOOD_SYSTEM), encoding="utf-8")
    (workdir / "a.txt").write_text("forall a. exists b. a < b", encoding="utf-8")
    paths = {"f": workdir / "f.ghyltl", "sys": workdir / "sys.json", "arith": workdir / "a.txt"}
    code = main([str(a).format(**paths) for a in args])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("wrap", ["{}", "G[] ({})", "F[] ({})", "H[] ({})"])
def test_prenex_of_a_long_conjunction(workdir, capsys, wrap):
    # printing walks the chain with a loop, and recognises F/G/H by their
    # left operand true, so the length of the chain does not matter
    text = "ap: p\nforall x. " + wrap.format(" & ".join(["p_x"] * 2000)) + "\n"
    (workdir / "long.ghyltl").write_text(text, encoding="utf-8")
    out = workdir / "long_out.ghyltl"
    code, _ = run(["prenex", workdir / "long.ghyltl", "--out", out], capsys)
    assert code == 0
    assert out.read_text(encoding="utf-8") == text


GOOD_SYSTEM = {
    "ap": ["p"],
    "vertices": [{"id": "a", "label": []}],
    "edges": [["a", "a"]],
    "initial": ["a"],
}

# (command, malformed document, field the error must name)
MALFORMED_JSON = [
    ("eval", {"ap": ["p"], "traces": [{"prefix": [], "loop": 5}]}, "traces[0].loop"),
    ("eval", {"ap": ["p"], "traces": [{"prefix": "p", "loop": [[]]}]}, "traces[0].prefix"),
    ("eval", {"ap": ["p"], "traces": [{"prefix": [[1]], "loop": [[]]}]}, "traces[0].prefix"),
    ("eval", {"ap": ["p"], "traces": [{"loop": [[]]}]}, "traces[0].prefix"),
    ("eval", {"ap": ["p"]}, "traces"),
    ("eval", {"ap": ["p"], "traces": [5]}, "traces[0]"),
    ("eval", {"ap": "p", "traces": []}, "ap"),
    ("eval", [], "document"),
    ("check", {**GOOD_SYSTEM, "vertices": None}, "vertices"),
    ("check", {k: v for k, v in GOOD_SYSTEM.items() if k != "vertices"},
     "vertices"),
    ("check", {**GOOD_SYSTEM, "vertices": ["a"]}, "vertices[0]"),
    ("check", {**GOOD_SYSTEM, "vertices": [{"id": [], "label": []}]}, "vertices[0].id"),
    ("check", {**GOOD_SYSTEM, "vertices": [{"id": "a", "label": 3}]}, "vertices[0].label"),
    ("check", {**GOOD_SYSTEM, "edges": [["a"]]}, "edges"),
    ("check", {**GOOD_SYSTEM, "initial": [["a"]]}, "initial"),
    # JSON true and 1 would name one vertex; strings and integers do not sort
    ("check", {**GOOD_SYSTEM, "vertices": [{"id": "a", "label": []}, {"id": "a", "label": []}]},
     "vertices[1].id"),
    ("check", {"ap": ["p"], "vertices": [{"id": True, "label": ["p"]}, {"id": 1, "label": []}],
               "edges": [[True, True], [1, 1]], "initial": [True]}, "vertices[0].id"),
    ("check", {**GOOD_SYSTEM, "vertices": [{"id": "a", "label": []}, {"id": 1, "label": []}],
               "edges": [["a", "a"], [1, 1]]}, "vertices[1].id"),
    ("eval", {"ap": ["p"], "traces": [{"name": [1, 2], "prefix": [], "loop": [["p"]]}]},
     "traces[0].name"),
]


@pytest.mark.parametrize("command,doc,field", MALFORMED_JSON,
                         ids=[f"{c}:{f}:{i}" for i, (c, _, f) in enumerate(MALFORMED_JSON)])
def test_malformed_json_exit_three(workdir, capsys, command, doc, field):
    (workdir / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    (workdir / "f.ghyltl").write_text("ap: p\nexists x. p_x\n", encoding="utf-8")
    code = main([command, str(workdir / "bad.json"), str(workdir / "f.ghyltl")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert field in lines[0]
    assert "Traceback" not in captured.err
