"""The front end's bytes, pinned by one sha256 over a seeded corpus.

The printer and the parsers are shared by the PLTL and hyper families, and
the benchmark writes its formula files with render_hyper, so a drift in either
would silently change what is parsed and measured.  The digest was computed
once and is kept as a constant; the same corpus must also parse back to the
formulas it was rendered from.  A second digest pins what each parser makes of
valid and broken inputs: trees and error messages.
"""

import hashlib
import random
import re

import pytest

from ghyltl import arith
from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.arith import RawAtom, TConst, TPlus, TTimes, TVar
from ghyltl.transform import MARK, prenexify

from helpers import LEMMA1_AP, LEMMA1_SENTENCES, gen_arith, gen_pltl, gen_sentence

PLTL_AP = ("a", "b")
HYPER_AP = ("p", "q")

CORPUS_SHA256 = "355250e257f56967976e3f83b73606d448a767efccb17ea565dc42a1f94a07c5"


def _hyper_props(f: hy.Hyper) -> frozenset[str]:
    """Propositions of f's atoms and of the PLTL members of its indices."""
    out: set[str] = set()
    stack: list = []
    for n in hy.postorder(f):
        if isinstance(n, hy.Atom):
            out.add(n.prop)
        elif isinstance(n, (hy.Next, hy.Until, hy.Yesterday, hy.Since)):
            stack.extend(n.gamma)
    while stack:
        g = stack.pop()
        if isinstance(g, pl.Atom):
            out.add(g.name)
        elif isinstance(g, pl.Top):
            continue
        elif isinstance(g, (pl.Not, pl.Next, pl.Yesterday)):
            stack.append(g.sub)
        else:
            stack += (g.left, g.right)
    return frozenset(out)


def _corpus() -> list[tuple[str, object, str, frozenset[str]]]:
    """(family, formula, rendered text, proposition universe) per entry."""
    out = []
    rng = random.Random(2024)
    for _ in range(3000):
        f = gen_pltl(rng, PLTL_AP, rng.randint(0, 5))
        out.append(("pltl", f, pl.render_pltl(f), frozenset(PLTL_AP)))
    for _ in range(3000):
        f = gen_sentence(rng, HYPER_AP, rng.randint(1, 3), rng.randint(0, 5),
                         stutter=True, contexts=True, past=True)
        out.append(("hyper", f, hy.render_hyper(f), frozenset(HYPER_AP)))
    prenex_ap = frozenset(LEMMA1_AP) | {MARK}
    for text in LEMMA1_SENTENCES:
        f = prenexify(hy.parse_hyper(text, LEMMA1_AP), LEMMA1_AP)
        out.append(("hyper", f, hy.render_hyper(f), prenex_ap))
    for relation in ("add", "mul"):
        for encoding in ("stutter", "context"):
            for strict in (False, True):
                f = arith.gadget_formula(relation, encoding, strict)
                out.append(("hyper", f, hy.render_hyper(f), _hyper_props(f)))
    return out


def test_corpus_digest_and_roundtrip():
    corpus = _corpus()
    digest = hashlib.sha256("\n".join(text for _, _, text, _ in corpus).encode()).hexdigest()
    assert digest == CORPUS_SHA256
    for family, f, text, ap in corpus:
        parse = pl.parse_pltl if family == "pltl" else hy.parse_hyper
        assert parse(text, ap) == f, text


# -- parse results and errors -------------------------------------------------
#
# Each family's parser is run over random token strings, and over generated
# texts together with their token-level mutants (one token dropped,
# duplicated, or swapped with its neighbour).  A parsed input contributes its
# tree, a PLTL or hyper error its full message; an arithmetic error
# contributes only the word "error", so the arithmetic messages may be
# reworded but no input may move between parsing and failing.

PARSE_SHA256 = "125450c85991731e95bbb5f6b343f70eba76b78dae347acd3e3cba12634601ef"

_WORDS = {
    "pltl": "a b c ! | & -> <-> ( ) X Y F G O H U S true false".split(),
    "hyper": ("p_x q_y p_ r_x x ! | & -> <-> ( ) [ ] { } , . X Y F G O H U S C "
              "true false exists forall p").split(),
    "arith": "a b X 0 1 true ( ) + * = < in ! | & -> <-> . exists forall".split(),
}

_TOKEN = re.compile(r"<->|->|\w+|\S")


def _canon(x) -> str:
    """repr with set members sorted, so it does not depend on string hashing."""
    if isinstance(x, frozenset):
        return "{" + ", ".join(sorted(map(_canon, x))) + "}"
    if hasattr(x, "__dataclass_fields__"):
        args = ", ".join(_canon(getattr(x, n)) for n in x.__dataclass_fields__)
        return f"{type(x).__name__}({args})"
    return repr(x)


def _mutants(rng: random.Random, text: str) -> list[str]:
    """text and three mutants of it, tokens joined by spaces."""
    toks = _TOKEN.findall(text)
    i = rng.randrange(len(toks))
    j = min(i + 1, len(toks) - 1)
    swapped = toks[:]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return [text] + [" ".join(t) for t in (toks[:i] + toks[i + 1:], toks[:i + 1] + toks[i:],
                                           swapped)]


def _parse_inputs() -> list[tuple[str, str]]:
    """(family, text) per input."""
    rng = random.Random(5)
    out = []
    for family, words in _WORDS.items():
        for _ in range(1500):
            out.append((family, " ".join(rng.choices(words, k=rng.randint(1, 10)))))
    for _ in range(500):
        texts = [("pltl", pl.render_pltl(gen_pltl(rng, PLTL_AP, rng.randint(1, 4)))),
                 ("hyper", hy.render_hyper(gen_sentence(rng, HYPER_AP, rng.randint(1, 2),
                                                        rng.randint(1, 3), stutter=True,
                                                        contexts=True, past=True))),
                 ("arith", gen_arith(rng, [], rng.randint(1, 3)))]
        for family, text in texts:
            out += [(family, m) for m in _mutants(rng, text)]
    return out


def _parse_result(family: str, text: str) -> str:
    try:
        if family == "pltl":
            tree = pl.parse_pltl(text, PLTL_AP)
        elif family == "hyper":
            tree = hy.parse_hyper(text, HYPER_AP)
        else:
            tree = arith.parse_arith(text)
    except pl.ParseError as exc:
        return "error" if family == "arith" else str(exc)
    return _canon(tree)


def test_parse_results_digest():
    lines = [f"{family}\t{text}\t{_parse_result(family, text)}"
             for family, text in _parse_inputs()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PARSE_SHA256


# Which parentheses open a term: a group whose matching ')' is followed by
# + * = < or in is the start of a comparison, any other is a formula.
V = TVar
ARITH_TREES = [
    ("(a + b) * c = d", RawAtom("=", TTimes(TPlus(V("a"), V("b")), V("c")), V("d"))),
    ("a + b * c = d", RawAtom("=", TPlus(V("a"), TTimes(V("b"), V("c"))), V("d"))),
    ("a + b + c < a * b * c", RawAtom("<", TPlus(TPlus(V("a"), V("b")), V("c")),
                                      TTimes(TTimes(V("a"), V("b")), V("c")))),
    ("((a)) < b", RawAtom("<", V("a"), V("b"))),
    ("((a = b))", RawAtom("=", V("a"), V("b"))),
    ("(a = b) & (c < d)", pl.p_and(RawAtom("=", V("a"), V("b")), RawAtom("<", V("c"), V("d")))),
    ("!(a < b)", pl.Not(RawAtom("<", V("a"), V("b")))),
    ("(a + 1) in X", RawAtom("in", TPlus(V("a"), TConst(1)), "X")),
    ("true = a", RawAtom("=", V("true"), V("a"))),
]


@pytest.mark.parametrize("text,tree", ARITH_TREES, ids=[t for t, _ in ARITH_TREES])
def test_arith_parentheses(text, tree):
    assert arith.parse_arith(text) == tree
