import io
import json
import math
import random

import pytest

from ghyltl.traces import (LassoTrace, TransitionSystem, enumerate_lassos,
                           enumerate_ts_traces, lasso, load_trace_set,
                           load_transition_system, normalize, pointwise_union,
                           save_trace_set, save_transition_system,
                           spike_trace, trace_set_from_obj, trace_set_to_obj)

from helpers import gen_trace, replay_run


def test_letter_prefix_and_loop():
    t = lasso({"p"}, [{"p"}], [set()])
    assert t.letter(0) == {"p"}
    t2 = lasso({"p"}, [], [{"p"}, set()])
    assert t2.letter(5) == frozenset()
    t3 = lasso({"hash"}, [set(), set(), set(), {"hash"}], [set()])
    assert t3.letter(3) == {"hash"}


def test_letter_loop_periodicity():
    rng = random.Random(7)
    for _ in range(50):
        t = gen_trace(rng, ("a", "b"), 4, 3)
        for i in range(len(t.prefix), len(t.prefix) + 6):
            for k in range(4):
                assert t.letter(i + len(t.loop) * k) == t.letter(i)


def test_trace_validation():
    with pytest.raises(ValueError):
        lasso({"p"}, [], [])
    with pytest.raises(ValueError):
        lasso({"p"}, [{"q"}], [set()])
    with pytest.raises(ValueError):
        LassoTrace(frozenset(), (), ())


def test_stray_propositions_are_named_from_the_first_offending_letter():
    with pytest.raises(ValueError, match=r"outside ap: \['q'\]$"):
        lasso({"p"}, [{"p"}, {"q", "p"}, {"r"}], [{"s"}])
    with pytest.raises(ValueError, match=r"outside ap: \['s', 't'\]$"):
        lasso({"p"}, [{"p"}], [set(), {"t", "s", "p"}, {"r"}])


def test_enumerate_lassos_come_in_sort_key_order():
    for ap, bounds in [((), (2, 2)), (("p",), (3, 2)), (("q", "p", "r"), (2, 2)),
                       (("b", "a_1", "a"), (1, 3))]:
        out = enumerate_lassos(ap, *bounds)
        keys = [t.sort_key() for t in out]
        assert keys == sorted(set(keys)), ap
        letters = 2 ** len(ap)
        assert len(out) == sum(letters ** a for a in range(bounds[0] + 1)) * \
            sum(letters ** b for b in range(1, bounds[1] + 1))


def test_enumerate_lassos_counts():
    assert len(enumerate_lassos(set(), 0, 1)) == 1
    assert len(enumerate_lassos({"hash"}, 0, 1)) == 2
    assert len(enumerate_lassos({"hash"}, 1, 1)) == 6
    with pytest.raises(ValueError):
        enumerate_lassos({"p"}, 1, 0)


def test_normalize_identifies_equal_words():
    a = lasso({"p"}, [{"p"}], [set(), {"p"}])
    b = lasso({"p"}, [], [{"p"}, set()])
    assert normalize(a) == normalize(b)
    c = lasso({"p"}, [], [{"p"}, set(), {"p"}, set()])
    assert normalize(c) == normalize(b)
    # rotations of a pure loop are different words
    assert normalize(lasso({"p"}, [], [{"p"}, set()])) != normalize(
        lasso({"p"}, [], [set(), {"p"}]))


def test_normalize_preserves_letters():
    rng = random.Random(3)
    for _ in range(200):
        t = gen_trace(rng, ("a", "b"), 3, 4)
        n = normalize(t)
        for i in range(len(t.prefix) + 3 * len(t.loop) + 3):
            assert t.letter(i) == n.letter(i)


def _normalize_by_rebuilding(t):
    """normalize as it was before canonical lassos were returned as is."""
    loop = list(t.loop)
    for d in range(1, len(loop) + 1):
        if len(loop) % d == 0 and loop == loop[:d] * (len(loop) // d):
            loop = loop[:d]
            break
    prefix = list(t.prefix)
    while prefix and prefix[-1] == loop[-1]:
        prefix.pop()
        loop = [loop[-1]] + loop[:-1]
    return LassoTrace(t.ap, tuple(prefix), tuple(loop), t.name)


def test_normalize_returns_a_canonical_lasso_as_is():
    lassos = enumerate_lassos({"p", "q"}, 2, 3)
    assert len(lassos) == 21 * 84
    kept = 0
    for t in lassos:
        n, want = normalize(t), _normalize_by_rebuilding(t)
        assert n == want and (n is t) == (want == t), t
        assert normalize(n) is n
        kept += n is t
    assert 0 < kept < len(lassos)


def test_pointwise_union():
    spike = spike_trace((), "hy_y3", 3)
    dollars = lasso({"dlr"}, [], [{"dlr"}, set()])
    u = pointwise_union(spike, dollars)
    for i in range(10):
        assert ("hy_y3" in u.letter(i)) == (i == 3)
        assert ("dlr" in u.letter(i)) == (i % 2 == 0)
    assert len(u.loop) == math.lcm(len(spike.loop), len(dollars.loop))


def test_spike_trace_rejects_a_negative_position():
    assert spike_trace((), "p", 0).prefix == (frozenset({"p"}),)
    with pytest.raises(ValueError, match="nonnegative"):
        spike_trace((), "p", -1)


def test_pointwise_union_loop_lcm():
    a = lasso({"a"}, [], [{"a"}, set()])
    b = lasso({"b"}, [], [set(), {"b"}, {"b"}])
    assert len(pointwise_union(a, b).loop) == 6


def test_pointwise_union_identity_and_commutativity():
    rng = random.Random(11)
    empty = lasso((), [], [set()])
    for _ in range(50):
        t = gen_trace(rng, ("a", "b"), 3, 3)
        u = pointwise_union(t, empty)
        for i in range(12):
            assert u.letter(i) == t.letter(i)
    t1 = gen_trace(rng, ("a",), 2, 2)
    t2 = gen_trace(rng, ("b",), 3, 3)
    u12, u21 = pointwise_union(t1, t2), pointwise_union(t2, t1)
    bound = 2 * math.lcm(len(t1.loop), len(t2.loop)) + max(len(t1.prefix), len(t2.prefix))
    for i in range(bound):
        assert u12.letter(i) == u21.letter(i)


def test_pointwise_union_rejects_overlap():
    t = lasso({"p"}, [], [{"p"}])
    with pytest.raises(ValueError):
        pointwise_union(t, t)


def _two_cycle() -> TransitionSystem:
    return TransitionSystem(
        ap=frozenset({"p", "q"}),
        vertices=("u", "v"),
        edges=frozenset({("u", "v"), ("v", "u")}),
        initial=frozenset({"u", "v"}),
        labels={"u": frozenset({"p"}), "v": frozenset({"q"})},
    )


def test_ts_validation():
    with pytest.raises(ValueError):
        TransitionSystem(frozenset({"p"}), ("u",), frozenset(), frozenset({"u"}),
                         {"u": frozenset()})
    with pytest.raises(ValueError):
        TransitionSystem(frozenset({"p"}), ("u",), frozenset({("u", "u")}),
                         frozenset({"u"}), {})


def test_enumerate_ts_traces_single_loop():
    ts = TransitionSystem(frozenset({"p"}), ("v",), frozenset({("v", "v")}),
                          frozenset({"v"}), {"v": frozenset({"p"})})
    out = enumerate_ts_traces(ts, 0, 1)
    assert out == [lasso({"p"}, [], [{"p"}])]


def test_enumerate_ts_traces_two_cycle():
    out = enumerate_ts_traces(_two_cycle(), 0, 2)
    words = {(t.prefix, t.loop) for t in out}
    pq = normalize(lasso({"p", "q"}, [], [{"p"}, {"q"}]))
    qp = normalize(lasso({"p", "q"}, [], [{"q"}, {"p"}]))
    assert (pq.prefix, pq.loop) in words
    assert (qp.prefix, qp.loop) in words


def test_enumerate_ts_traces_replay():
    ts = _two_cycle()
    for a, b in [(0, 1), (1, 2), (2, 2)]:
        for t in enumerate_ts_traces(ts, a, b):
            # find some run matching the trace to confirm membership
            assert _has_matching_run(ts, t, a, b)


def _has_matching_run(ts: TransitionSystem, t: LassoTrace, max_prefix: int,
                      max_loop: int) -> bool:
    from itertools import product
    for plen in range(max_prefix + 1):
        for llen in range(1, max_loop + 1):
            for run in product(sorted(ts.vertices), repeat=plen + llen):
                prefix_vs, cycle_vs = run[:plen], run[plen:]
                if not replay_run(ts, prefix_vs, cycle_vs):
                    continue
                cand = normalize(LassoTrace(
                    ts.ap, tuple(ts.labels[v] for v in prefix_vs),
                    tuple(ts.labels[v] for v in cycle_vs)))
                if cand == t:
                    return True
    return False


def test_enumerate_ts_traces_empty_initial_warns():
    ts = TransitionSystem(frozenset({"p"}), ("v",), frozenset({("v", "v")}),
                          frozenset(), {"v": frozenset({"p"})})
    with pytest.warns(UserWarning):
        out = enumerate_ts_traces(ts, 1, 1)
    assert out == []


def test_trace_set_json_roundtrip():
    rng = random.Random(5)
    ap = frozenset({"a", "b"})
    ts = [gen_trace(rng, ("a", "b"), 2, 2) for _ in range(4)]
    buf = io.StringIO()
    save_trace_set(buf, ap, ts)
    ap2, ts2 = load_trace_set(io.StringIO(buf.getvalue()))
    assert ap2 == ap
    assert ts2 == ts


def test_trace_set_field_order_irrelevant():
    obj = {"traces": [{"loop": [["p"]], "prefix": [], "name": "t"}], "ap": ["p"]}
    ap, ts = trace_set_from_obj(obj)
    assert ap == {"p"}
    assert ts[0].loop == (frozenset({"p"}),)
    # names round-trip but do not affect trace equality
    assert ts[0] == lasso({"p"}, [], [{"p"}], name="other")
    assert trace_set_to_obj(ap, ts)["traces"][0]["name"] == "t"


@pytest.mark.parametrize("name", [[1, 2], 5, True, {"n": "t"}],
                         ids=["list", "int", "bool", "object"])
def test_trace_set_rejects_a_name_that_is_not_a_string(name):
    good = {"prefix": [], "loop": [["p"]]}
    obj = {"ap": ["p"], "traces": [good, {**good, "name": name}]}
    with pytest.raises(ValueError, match=r"traces\[1\]\.name"):
        trace_set_from_obj(obj)
    # a string, null or no name at all is accepted
    for ok in ({**good, "name": "t"}, {**good, "name": None}, good):
        assert trace_set_from_obj({"ap": ["p"], "traces": [ok]})[1][0].name == ok.get("name")


def test_transition_system_json_roundtrip():
    ts = _two_cycle()
    buf = io.StringIO()
    save_transition_system(buf, ts)
    ts2 = load_transition_system(io.StringIO(buf.getvalue()))
    assert ts2 == ts
    obj = json.loads(buf.getvalue())
    assert set(obj) == {"ap", "vertices", "edges", "initial"}
