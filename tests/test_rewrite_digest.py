"""The bytes of the formula rewrites, pinned by one sha256 over seeded inputs.

alpha_unique, hoist_prenex and prenexify (Lemma 1) and the arithmetic
rewrites (flatten, dealias and both compilers) all rebuild formulas node by
node, so a change to how a rewrite walks or rebuilds its input would show
here even where the verdict tests cannot see it.  The digest was computed
once and is kept as a constant; a refusal counts by its exception class and
message.
"""

import hashlib
import random

from ghyltl import arith
from ghyltl import semantics as hy
from ghyltl.semantics import EMPTY_GAMMA, Atom, Context, Exists, Forall, Not, Or, Until, \
    Yesterday
from ghyltl.transform import alpha_unique, hoist_prenex, prenexify

from helpers import gen_arith, gen_sentence

AP = ("p", "q")

REWRITE_SHA256 = "c820c60268ef176d9661001c4b20b276689e49703ca0c9cf132a20d4a4a268d8"


def _shapes(f1, f2):
    """Six ways to put a pair of prenex sentences under a connective or
    temporal operator, each with a quantifier outside the prenex block."""
    pa, qa = Atom("p", "a"), Atom("q", "a")
    return [
        Or(Not(f1), f2),
        Exists("a", hy.ev(EMPTY_GAMMA, hy.h_and(pa, f2))),
        Forall("a", Until(EMPTY_GAMMA, f1, Or(qa, f2))),
        Exists("a", Context(frozenset({"a"}), hy.once(EMPTY_GAMMA, hy.h_and(f1, pa)))),
        hy.h_iff(f1, f2),
        Exists("a", Yesterday(EMPTY_GAMMA, hy.alw(EMPTY_GAMMA, Or(f1, pa)))),
    ]


def _sentences() -> list:
    rng = random.Random(20)
    out = []
    for _ in range(250):
        f1, f2 = (gen_sentence(rng, AP, rng.randint(1, 2), rng.randint(0, 3),
                               stutter=True, contexts=True, past=True) for _ in range(2))
        out += _shapes(f1, f2)
    return out


def _outcome(rewrite, f) -> str:
    try:
        return hy.render_hyper(rewrite(f))
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _arith_lines() -> list[str]:
    rng = random.Random(20)
    texts = ["exists a. exists B. (a * (a + 1) = 6 <-> a + 2 in B)",
             "forall a. exists b. (a + a = b & b * b = b)"]
    texts += [gen_arith(rng, [], rng.randint(1, 2)) for _ in range(24)]
    out = []
    for text in texts:
        flat = arith.flatten(arith.parse_arith(text))
        out += [text, repr(flat), repr(arith.dealias(flat))]
        for art in (arith.compile_arith(flat, "stutter"), arith.compile_arith(flat, "context")):
            out += [hy.render_hyper(art.sentence), repr(sorted(art.var_map.items()))]
    return out


def _lines() -> list[str]:
    out = []
    for f in _sentences():
        out += [_outcome(alpha_unique, f), _outcome(hoist_prenex, f),
                _outcome(lambda g: prenexify(g, AP), f)]
    return out + _arith_lines()


def test_rewrite_digest():
    digest = hashlib.sha256("\n".join(_lines()).encode()).hexdigest()
    assert digest == REWRITE_SHA256


def test_rewrite_corpus_covers_refusals():
    # every hoist with a quantifier under a temporal operator refuses
    refused = [_outcome(hoist_prenex, f).startswith("ValueError") for f in _sentences()]
    assert len(refused) == 1500 and sum(refused) == 1000
