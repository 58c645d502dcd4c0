"""Per-layer spans recorded from outside the program.

Each wrapped public function gets a span per call.  Its self time is the span
minus the time covered by wrapped calls made inside it.  The wrapper replaces
every binding of the function in the loaded ``ghyltl`` modules, because the
modules import each other's functions by name (``stutter.valuation_profile``
is ``pltl.valuation_profile``, ``arith.evaluate`` is ``semantics.evaluate``).
"""

from __future__ import annotations

import functools
import sys
import time

WRAPPED = (
    "traces.enumerate_lassos", "traces.normalize", "traces.load_trace_set",
    "pltl.valuation_profile",
    "stutter.changepoint_profile", "stutter.assign_succ", "stutter.assign_pred",
    "semantics.check_traceset", "semantics.evaluate", "semantics.bounded_sat",
    "semantics.parse_hyper",
    "transform.prenexify", "transform.pos_traces",
    "arith.verify_gadget", "arith.gadget_formula", "arith.gadget_universe",
    "cli.main", "cli.read_formula_file",
)

# Extra counts: distinct memo keys requested, and formula size around prenexify.
DISTINCT = ("pltl.valuation_profile", "stutter.changepoint_profile")
SIZED = "transform.prenexify"


class Tracer:
    def __init__(self) -> None:
        self.calls = {name: 0 for name in WRAPPED}
        self.self_s = {name: 0.0 for name in WRAPPED}
        self.keys = {name: set() for name in DISTINCT}
        self.nodes = [0, 0]  # postorder sizes before and after SIZED
        self._child = [0.0]  # wrapped-child time of each open span, innermost last

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in WRAPPED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in DISTINCT:
            out[f"{name}.distinct"] = (len(self.keys[name]), "count")
        out[f"{SIZED}.nodes_in"] = (self.nodes[0], "count")
        out[f"{SIZED}.nodes_out"] = (self.nodes[1], "count")
        return out

    def _wrap(self, name: str, fn):
        calls, self_s, child = self.calls, self.self_s, self._child
        keys = self.keys.get(name)
        nodes = self.nodes if name == SIZED else None
        postorder = sys.modules["ghyltl.semantics"].postorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if keys is not None:
                keys.add((args[0], args[1]))
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self_s[name] += span - child.pop()
                child[-1] += span
            if nodes is not None:
                nodes[0] += len(postorder(args[0]))
                nodes[1] += len(postorder(out))
            return out

        return wrapper

    def install(self) -> None:
        """Replace every binding of each wrapped function in ghyltl's modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ghyltl" or n.startswith("ghyltl.")]
        for name in WRAPPED:
            mod, attr = name.split(".")
            fn = getattr(sys.modules[f"ghyltl.{mod}"], attr)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
