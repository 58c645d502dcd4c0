"""Lasso traces, pointed traces, and transition systems.

An infinite trace over a proposition set is represented finitely as a lasso:
a finite prefix followed by a nonempty loop repeated forever.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable

Letter = frozenset[str]


def _letter(props: Iterable[str]) -> Letter:
    return frozenset(props)


def _letters(letters: Iterable[Iterable[str]]) -> tuple[Letter, ...]:
    """letters as a tuple of frozensets: letters itself when it is one."""
    if type(letters) is tuple and all(type(l) is frozenset for l in letters):
        return letters
    return tuple(map(frozenset, letters))


@dataclass(frozen=True)
class LassoTrace:
    """Ultimately periodic trace ``prefix . loop^omega`` over the alphabet 2^ap."""

    ap: frozenset[str]
    prefix: tuple[Letter, ...]
    loop: tuple[Letter, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # frozenset returns a frozenset as is; a field is set again only
        # when converting changed it
        ap, prefix, loop = frozenset(self.ap), _letters(self.prefix), _letters(self.loop)
        if ap is not self.ap:
            object.__setattr__(self, "ap", ap)
        if prefix is not self.prefix:
            object.__setattr__(self, "prefix", prefix)
        if loop is not self.loop:
            object.__setattr__(self, "loop", loop)
        if not loop:
            raise ValueError("lasso loop must be nonempty")
        if len(ap.union(*prefix, *loop)) != len(ap):
            stray = next(s for s in (letter - ap for letter in prefix + loop) if s)
            raise ValueError(f"letter mentions propositions outside ap: {sorted(stray)}")

    def letter(self, i: int) -> Letter:
        """Letter at position i of the denoted infinite trace."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def sort_key(self) -> tuple:
        return (
            len(self.prefix),
            len(self.loop),
            tuple(tuple(sorted(l)) for l in self.prefix),
            tuple(tuple(sorted(l)) for l in self.loop),
        )

    def __repr__(self) -> str:
        def word(ls):
            return "".join("{" + ",".join(sorted(l)) + "}" for l in ls)

        return f"LassoTrace({word(self.prefix)}({word(self.loop)})^w)"


@dataclass(frozen=True)
class PointedTrace:
    """Position pos of trace; letter caches trace.letter(pos) and takes no
    part in equality, hashing or repr."""

    trace: LassoTrace
    pos: int
    letter: Letter = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.pos < 0:
            raise ValueError("position must be nonnegative")
        object.__setattr__(self, "letter", self.trace.letter(self.pos))


def lasso(ap: Iterable[str], prefix: Iterable[Iterable[str]], loop: Iterable[Iterable[str]],
          name: str | None = None) -> LassoTrace:
    """Convenience constructor accepting plain lists/sets."""
    return LassoTrace(frozenset(ap), tuple(_letter(p) for p in prefix),
                      tuple(_letter(p) for p in loop), name)


def spike_trace(ap: Iterable[str], mark: str, pos: int, name: str | None = None) -> LassoTrace:
    """The trace empty^pos {mark} empty^omega (a single marked position)."""
    if pos < 0:
        raise ValueError("position must be nonnegative")
    ap = frozenset(ap) | {mark}
    prefix = tuple(frozenset() for _ in range(pos)) + (frozenset({mark}),)
    return LassoTrace(ap, prefix, (frozenset(),), name)


def normalize(t: LassoTrace) -> LassoTrace:
    """Canonical minimal (prefix, loop) representation of the same infinite trace.

    Reduces the loop to its primitive root, then rolls trailing prefix letters
    into the loop.  Two lassos denote the same infinite word iff their
    normalizations are equal.  A lasso that already is canonical (a
    primitive loop whose last letter differs from the prefix's) is returned
    as is.
    """
    loop, n = t.loop, len(t.loop)
    for d in range(1, n + 1):
        if n % d == 0 and loop == loop[:d] * (n // d):
            break
    if d == n and not (t.prefix and t.prefix[-1] == loop[-1]):
        return t  # already canonical
    loop, prefix = list(loop[:d]), list(t.prefix)
    while prefix and prefix[-1] == loop[-1]:
        prefix.pop()
        loop = [loop[-1]] + loop[:-1]
    return LassoTrace(t.ap, tuple(prefix), tuple(loop), t.name)


def pointwise_union(t1: LassoTrace, t2: LassoTrace) -> LassoTrace:
    """Union the letters of two traces over disjoint alphabets, position by position."""
    if t1.ap & t2.ap:
        raise ValueError(f"pointwise_union requires disjoint ap sets, got overlap {sorted(t1.ap & t2.ap)}")
    plen = max(len(t1.prefix), len(t2.prefix))
    llen = math.lcm(len(t1.loop), len(t2.loop))
    prefix = tuple(t1.letter(i) | t2.letter(i) for i in range(plen))
    loop = tuple(t1.letter(plen + j) | t2.letter(plen + j) for j in range(llen))
    return LassoTrace(t1.ap | t2.ap, prefix, loop)


def enumerate_lassos(ap: Iterable[str], max_prefix: int, max_loop: int) -> list[LassoTrace]:
    """All lasso representations with |prefix| <= max_prefix, 1 <= |loop| <= max_loop.

    Returns distinct representations (no canonicalization), in a deterministic
    order: by prefix length, then loop length, then letters, which is
    LassoTrace.sort_key order.  The letters are listed in the order of their
    sorted members, so each product below runs in that order and nothing is
    sorted afterwards.
    """
    if max_prefix < 0 or max_loop < 1:
        raise ValueError(f"need max_prefix >= 0 and max_loop >= 1, got {max_prefix}, {max_loop}")
    ap = frozenset(ap)
    letters = sorted([frozenset(c) for n in range(len(ap) + 1)
                      for c in itertools.combinations(sorted(ap), n)], key=sorted)
    out = []
    for a in range(max_prefix + 1):
        for b in range(1, max_loop + 1):
            for prefix in itertools.product(letters, repeat=a):
                for loop in itertools.product(letters, repeat=b):
                    out.append(LassoTrace(ap, prefix, loop))
    return out


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """Finite transition system; every vertex needs at least one outgoing edge."""

    ap: frozenset[str]
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    initial: frozenset[str]
    labels: dict[str, Letter]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ap", frozenset(self.ap))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", frozenset((s, d) for s, d in self.edges))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "labels", {v: _letter(l) for v, l in self.labels.items()})
        if not self.vertices:
            raise ValueError("transition system needs at least one vertex")
        vs = set(self.vertices)
        for s, d in self.edges:
            if s not in vs or d not in vs:
                raise ValueError(f"edge ({s},{d}) mentions unknown vertex")
        if not self.initial <= vs:
            raise ValueError("initial vertices must be vertices")
        for v in self.vertices:
            if v not in self.labels:
                raise ValueError(f"vertex {v} has no label")
            if self.labels[v] - self.ap:
                raise ValueError(f"label of {v} outside ap")
            if not any(s == v for s, _ in self.edges):
                raise ValueError(f"vertex {v} has no outgoing edge")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (self.ap == other.ap and set(self.vertices) == set(other.vertices)
                and self.edges == other.edges and self.initial == other.initial
                and self.labels == other.labels)

    def successors(self, v: str) -> list[str]:
        return sorted(d for s, d in self.edges if s == v)


def enumerate_ts_traces(ts: TransitionSystem, max_prefix: int, max_loop: int) -> list[LassoTrace]:
    """Label images of all lasso runs with stem <= max_prefix and cycle <= max_loop.

    Output is canonicalized and deduplicated; an empty initial set yields an
    empty list with a warning.
    """
    if max_prefix < 0 or max_loop < 1:
        raise ValueError(f"need max_prefix >= 0 and max_loop >= 1, got {max_prefix}, {max_loop}")
    if not ts.initial:
        warnings.warn("transition system has no initial vertices; trace set is empty")
        return []
    seen: set[LassoTrace] = set()
    out: list[LassoTrace] = []

    def paths(path: tuple[str, ...], length: int) -> Iterable[tuple[str, ...]]:
        # the runs of `length` vertices that extend path, in successor order
        if len(path) == length:
            yield path
            return
        for nxt in ts.successors(path[-1]):
            yield from paths(path + (nxt,), length)

    for a, v0 in itertools.product(range(max_prefix + 1), sorted(ts.initial)):
        for stem in paths((v0,), a + 1):
            # stem has a+1 vertices: a prefix vertices plus the loop entry
            prefix_vs, entry = stem[:-1], stem[-1]
            for b in range(1, max_loop + 1):
                for cyc in paths((entry,), b):
                    # a cycle is a path whose last vertex has an edge back
                    # to the entry
                    if (cyc[-1], entry) not in ts.edges:
                        continue
                    trace = normalize(LassoTrace(
                        ts.ap,
                        tuple(ts.labels[v] for v in prefix_vs),
                        tuple(ts.labels[v] for v in cyc),
                    ))
                    if trace not in seen:
                        seen.add(trace)
                        out.append(trace)
    out.sort(key=LassoTrace.sort_key)
    return out


# -- JSON interchange ---------------------------------------------------------
#
# Trace sets:  {"ap": [...], "traces": [{"name":..., "prefix": [[...]], "loop": [[...]]}]}
# Systems:     {"ap": [...], "vertices": [{"id":..., "label": [...]}],
#               "edges": [[src, dst], ...], "initial": [...]}
# Vertex ids are all strings or all integers (not booleans), each id once.


def trace_set_to_obj(ap: Iterable[str], traces: Iterable[LassoTrace]) -> dict:
    return {
        "ap": sorted(ap),
        "traces": [
            {
                "name": t.name if t.name is not None else f"t{i}",
                "prefix": [sorted(l) for l in t.prefix],
                "loop": [sorted(l) for l in t.loop],
            }
            for i, t in enumerate(traces)
        ],
    }


def _get(obj, path: str, key: str):
    """obj[key]; the ValueErrors name the field by its path in the document."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path or 'document'} must be a JSON object")
    if key not in obj:
        raise ValueError(f"missing field {path + '.' if path else ''}{key}")
    return obj[key]


def _list(obj, path: str, key: str, item=None, what: str = "") -> list:
    """obj[key] checked to be a list whose members all satisfy item."""
    val = _get(obj, path, key)
    if not isinstance(val, list) or (item is not None and not all(map(item, val))):
        raise ValueError(f"field {path + '.' if path else ''}{key} must be a list{what}")
    return val


def _is_name(v) -> bool:
    return isinstance(v, str)


def _is_letter(v) -> bool:
    return isinstance(v, list) and all(map(_is_name, v))


def _is_vertex(v) -> bool:
    # JSON true and 1 compare and hash equal, so booleans are no vertex ids
    return isinstance(v, (str, int)) and not isinstance(v, bool)


def _word(obj, path: str, key: str) -> tuple[Letter, ...]:
    return tuple(frozenset(l) for l in
                 _list(obj, path, key, _is_letter, " of letters (lists of strings)"))


def trace_set_from_obj(obj: dict) -> tuple[frozenset[str], list[LassoTrace]]:
    ap = frozenset(_list(obj, "", "ap", _is_name, " of strings"))
    traces = []
    for i, e in enumerate(_list(obj, "", "traces")):
        path = f"traces[{i}]"
        prefix, loop, name = _word(e, path, "prefix"), _word(e, path, "loop"), e.get("name")
        if name is not None and not _is_name(name):
            raise ValueError(f"field {path}.name must be a string or null")
        traces.append(LassoTrace(ap, prefix, loop, name))
    return ap, traces


def save_trace_set(fp: IO[str], ap: Iterable[str], traces: Iterable[LassoTrace]) -> None:
    json.dump(trace_set_to_obj(ap, traces), fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_trace_set(fp: IO[str]) -> tuple[frozenset[str], list[LassoTrace]]:
    return trace_set_from_obj(json.load(fp))


def ts_to_obj(ts: TransitionSystem) -> dict:
    return {
        "ap": sorted(ts.ap),
        "vertices": [{"id": v, "label": sorted(ts.labels[v])} for v in ts.vertices],
        "edges": sorted([s, d] for s, d in ts.edges),
        "initial": sorted(ts.initial),
    }


def ts_from_obj(obj: dict) -> TransitionSystem:
    ids, labels = [], {}
    for i, v in enumerate(_list(obj, "", "vertices")):
        path = f"vertices[{i}]"
        vid = _get(v, path, "id")
        if not _is_vertex(vid):
            raise ValueError(f"field {path}.id must be a string or integer")
        if vid in labels or (ids and type(vid) is not type(ids[0])):
            # vertices are sorted, so strings and integers do not mix
            raise ValueError(f"field {path}.id repeats an id or mixes strings and integers")
        ids.append(vid)
        labels[vid] = frozenset(_list(v, path, "label", _is_name, " of strings"))
    edges = _list(obj, "", "edges",
                  lambda e: isinstance(e, list) and len(e) == 2 and all(map(_is_vertex, e)),
                  " of [source, target] vertex pairs")
    return TransitionSystem(
        ap=frozenset(_list(obj, "", "ap", _is_name, " of strings")),
        vertices=tuple(ids),
        edges=frozenset((s, d) for s, d in edges),
        initial=frozenset(_list(obj, "", "initial", _is_vertex, " of vertices")),
        labels=labels,
    )


def save_transition_system(fp: IO[str], ts: TransitionSystem) -> None:
    json.dump(ts_to_obj(ts), fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_transition_system(fp: IO[str]) -> TransitionSystem:
    return ts_from_obj(json.load(fp))
