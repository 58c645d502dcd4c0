"""The front end's bytes, pinned by one sha256 over a seeded corpus.

The printer and the parsers are shared by the PLTL and hyper families, and
the benchmark writes its formula files with render_hyper, so a drift in either
would silently change what is parsed and measured.  The digest was computed
once and is kept as a constant; the same corpus must also parse back to the
formulas it was rendered from.
"""

import hashlib
import random

from ghyltl import arith
from ghyltl import pltl as pl
from ghyltl import semantics as hy
from ghyltl.transform import MARK, prenexify

from helpers import LEMMA1_AP, LEMMA1_SENTENCES, gen_pltl, gen_sentence

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
