"""Command-line interface: eval, check, compile, gadget, prenex, sat, oracle.

Formula files carry their proposition universe in a header line ``ap: p, q``
(comma-separated identifiers other than ``true`` and ``false``) followed by
the formula text.  Trace sets and transition systems are the JSON documents
defined in the traces module.  Exit status: 0 holds, 1 fails, 2 unknown,
3 error (malformed input, a usage error, a formula nested too deeply).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import arith, semantics, traces, transform
from .pltl import ParseError, check_prop, same_formula
from .semantics import EvalConfig

EXIT = {"holds": 0, "fails": 1, "unknown": 2, "error": 3}


@dataclass
class RunReport:
    command: str
    inputs: dict
    bounds: dict
    verdict: str | None = None
    reason: str | None = None
    detail: dict = field(default_factory=dict)
    timing_ms: float = 0.0
    # printed after the text report only; not part of the JSON report
    text_tail: str | None = None

    def to_obj(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "bounds": self.bounds,
            "verdict": self.verdict,
            "reason": self.reason,
            "detail": self.detail,
            "timing_ms": round(self.timing_ms, 3),
        }

    def emit(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(self.to_obj(), sort_keys=True, indent=2))
            return
        print(f"command: {self.command}")
        for k in sorted(self.inputs):
            print(f"  {k}: {self.inputs[k]}")
        for k in sorted(self.bounds):
            print(f"  {k}: {self.bounds[k]}")
        if self.verdict is not None:
            print(f"verdict: {self.verdict}")
        if self.reason:
            print(f"reason: {self.reason}")
        for k in sorted(self.detail):
            print(f"{k}: {self.detail[k]}")
        if self.text_tail is not None:
            print(self.text_tail)


def read_formula_file(path: str) -> tuple[frozenset[str], semantics.Hyper]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith("ap:"):
        raise ParseError("formula file must start with an 'ap:' header line", 1, 1)
    # each name is checked where it stands, so an error points at it
    col = lines[0].index("ap:") + 3
    ap = set()
    for part in lines[0][col:].split(","):
        name = part.strip()
        if name:
            check_prop(name, 1, col + part.index(name) + 1)
            ap.add(name)
        col += len(part) + 1
    # the header's place is kept, so error lines count from the file's start
    body = "\n".join([""] + lines[1:])
    return frozenset(ap), semantics.parse_hyper(body, ap)


def formula_text(ap, formula: semantics.Hyper) -> str:
    """formula's text over ap, checked to read back as formula: atoms prop_var
    are read at the longest proposition prefix, so some names print ambiguously."""
    rendered = semantics.render_hyper(formula)
    if not same_formula(semantics.parse_hyper(rendered, ap), formula):
        raise ValueError("the output text would read back as a different formula")
    return rendered


def write_formula_file(path, ap, body: str) -> None:
    Path(path).write_text(f"ap: {', '.join(sorted(ap))}\n{body}\n", encoding="utf-8")


def _cfg(args) -> EvalConfig:
    return EvalConfig(until_cutoff=args.until_cutoff)


def _eval_flags(sp) -> None:
    sp.add_argument("--until-cutoff", type=int, default=200)
    sp.add_argument("--json", action="store_true")


def cmd_eval(args) -> RunReport:
    with open(args.traces, encoding="utf-8") as fp:
        _, universe = traces.load_trace_set(fp)
    _, formula = read_formula_file(args.formula)
    verdict = semantics.check_traceset(universe, formula, _cfg(args))
    return RunReport(
        "eval", {"traces": args.traces, "formula": args.formula},
        {"until_cutoff": args.until_cutoff}, verdict.status, verdict.reason)


def cmd_check(args) -> RunReport:
    with open(args.system, encoding="utf-8") as fp:
        ts = traces.load_transition_system(fp)
    _, formula = read_formula_file(args.formula)
    verdict = semantics.check_ts(ts, formula, args.max_prefix, args.max_loop, _cfg(args))
    return RunReport(
        "check", {"system": args.system, "formula": args.formula},
        {"max_prefix": args.max_prefix, "max_loop": args.max_loop,
         "until_cutoff": args.until_cutoff},
        verdict.status, verdict.reason)


def _encoding(args) -> str:
    """args.encoding; --strict-fidelity where it changes nothing is a usage error."""
    if args.strict_fidelity and args.encoding != "context":
        raise ValueError("--strict-fidelity applies to --encoding context only")
    return args.encoding


def cmd_compile(args) -> RunReport:
    encoding = _encoding(args)
    raw = arith.parse_arith(Path(args.arith).read_text(encoding="utf-8"))
    artifact = arith.compile_arith(arith.flatten(raw), encoding, args.strict_fidelity)
    rendered = formula_text(artifact.system.ap, artifact.sentence)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "system.json", "w", encoding="utf-8") as fp:
        traces.save_transition_system(fp, artifact.system)
    write_formula_file(out / "formula.ghyltl", artifact.system.ap, rendered)
    with open(out / "varmap.json", "w", encoding="utf-8") as fp:
        json.dump({"encoding": artifact.encoding, "varmap": artifact.var_map},
                  fp, sort_keys=True, indent=2)
        fp.write("\n")
    return RunReport(
        "compile", {"arith": args.arith, "encoding": args.encoding,
                    "strict_fidelity": args.strict_fidelity},
        {}, "holds", None,
        {"outdir": str(out),
         "fragment": semantics.fragment_of(transform.hoist_prenex(artifact.sentence))})


def cmd_gadget(args) -> RunReport:
    encoding = _encoding(args)
    try:
        ok = arith.verify_gadget(args.op, args.n1, args.n2, args.n3, encoding,
                                 cfg=_cfg(args), strict_fidelity=args.strict_fidelity)
    except arith.GadgetBoundError as exc:
        verdict, reason = "unknown", str(exc)
    else:
        verdict, reason = ("holds" if ok else "fails"), None
    return RunReport(
        "gadget",
        {"encoding": args.encoding, "op": args.op,
         "n1": args.n1, "n2": args.n2, "n3": args.n3,
         "strict_fidelity": args.strict_fidelity},
        {"until_cutoff": args.until_cutoff},
        verdict, reason)


def cmd_prenex(args) -> RunReport:
    ap, formula = read_formula_file(args.formula)
    out_formula = transform.prenexify(formula, ap)
    out_ap = ap if out_formula is formula else ap | {transform.MARK}
    rendered = formula_text(out_ap, out_formula)
    if args.out:
        write_formula_file(args.out, out_ap, rendered)
    return RunReport(
        "prenex", {"formula": args.formula}, {}, "holds", None,
        {"already_prenex": out_formula is formula,
         "output": args.out if args.out else rendered,
         "ap": ", ".join(sorted(out_ap))},
        text_tail=None if args.out else rendered)


def cmd_sat(args) -> RunReport:
    ap, formula = read_formula_file(args.formula)
    model = semantics.bounded_sat(formula, args.max_traces, args.max_prefix,
                                  args.max_loop, ap, _cfg(args))
    verdict, reason, detail = "holds", None, {}
    if model is None:
        # a search exhausted within its bounds says nothing of larger models
        verdict, reason = "unknown", (f"sat-bound(max_traces={args.max_traces},"
                                      f"max_prefix={args.max_prefix},max_loop={args.max_loop})")
    else:
        obj = traces.trace_set_to_obj(ap, model)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fp:
                json.dump(obj, fp, sort_keys=True, indent=2)
                fp.write("\n")
            detail["model"] = args.out
        else:
            detail["model"] = json.dumps(obj, sort_keys=True)
    return RunReport(
        "sat", {"formula": args.formula},
        {"max_traces": args.max_traces, "max_prefix": args.max_prefix,
         "max_loop": args.max_loop, "until_cutoff": args.until_cutoff},
        verdict, reason, detail)


def cmd_oracle(args) -> RunReport:
    raw = arith.parse_arith(Path(args.arith).read_text(encoding="utf-8"))
    flat = arith.flatten(raw)
    value = arith.arith_eval_bounded(flat, args.bound, args.bit_cap)
    if semantics.bounded_answer_sound(flat, value):
        verdict, reason, detail = ("holds" if value else "fails"), None, {}
    else:
        verdict, reason, detail = "unknown", \
            f"arith-bound(bound={args.bound},bit_cap={args.bit_cap})", {"bounded_value": value}
    return RunReport(
        "oracle", {"arith": args.arith},
        {"bound": args.bound, "bit_cap": args.bit_cap},
        verdict, reason, detail)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which reads as unknown; raise
    # instead, so main reports it as an error like any other bad input
    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every main call."""
    p = _ArgumentParser(prog="ghyltl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="check a sentence against a trace-set file")
    sp.add_argument("traces")
    sp.add_argument("formula")
    _eval_flags(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("check", help="bounded check against a transition system")
    sp.add_argument("system")
    sp.add_argument("formula")
    sp.add_argument("--max-prefix", type=int, default=3)
    sp.add_argument("--max-loop", type=int, default=2)
    _eval_flags(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("compile", help="compile arithmetic into a (system, sentence) pair")
    sp.add_argument("arith")
    sp.add_argument("outdir")
    sp.add_argument("--encoding", choices=("stutter", "context"), required=True)
    sp.add_argument("--strict-fidelity", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("gadget", help="verify an addition/multiplication gadget instance")
    sp.add_argument("--encoding", choices=("stutter", "context"), required=True)
    sp.add_argument("--op", choices=("add", "mul"), required=True)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)
    sp.add_argument("--n3", type=int, required=True)
    sp.add_argument("--strict-fidelity", action="store_true")
    _eval_flags(sp)
    sp.set_defaults(func=cmd_gadget)

    sp = sub.add_parser("prenex", help="hoist quantifiers using position traces")
    sp.add_argument("formula")
    sp.add_argument("--out", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_prenex)

    sp = sub.add_parser("sat", help="bounded satisfiability search")
    sp.add_argument("formula")
    sp.add_argument("--max-traces", type=int, default=3)
    sp.add_argument("--max-prefix", type=int, default=3)
    sp.add_argument("--max-loop", type=int, default=2)
    sp.add_argument("--out", default=None)
    _eval_flags(sp)
    sp.set_defaults(func=cmd_sat)

    sp = sub.add_parser("oracle", help="bounded second-order arithmetic evaluation")
    sp.add_argument("arith")
    sp.add_argument("--bound", type=int, default=12)
    sp.add_argument("--bit-cap", type=int, default=12)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_oracle)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        report = args.func(args)
        report.timing_ms = (time.perf_counter() - t0) * 1e3
        report.emit(args.json)
    except Exception as exc:
        # usage, ParseError and JSON errors are ValueErrors, a formula nested
        # too deeply a RecursionError; none is a traceback or an exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return EXIT[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
