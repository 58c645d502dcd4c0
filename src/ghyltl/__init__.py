"""Generalized HyperLTL with stuttering and contexts over lasso traces."""

from .traces import LassoTrace, PointedTrace, TransitionSystem, lasso, spike_trace
from .semantics import (EvalConfig, Verdict, bounded_sat, check_traceset, check_ts,
                        evaluate, fragment_of, parse_hyper, render_hyper)
from .transform import pos_traces, prenexify
from .arith import arith_eval_bounded, compile_arith, flatten, parse_arith, verify_gadget

__all__ = [
    "LassoTrace", "PointedTrace", "TransitionSystem", "lasso", "spike_trace",
    "EvalConfig", "Verdict", "bounded_sat", "check_traceset", "check_ts",
    "evaluate", "fragment_of", "parse_hyper", "render_hyper",
    "pos_traces", "prenexify",
    "arith_eval_bounded", "compile_arith", "flatten", "parse_arith", "verify_gadget",
]
