from dataclasses import replace

import pytest

from shufflecheck.automata import grave, normalize, word
from shufflecheck.decision import (
    Budgets,
    InvalidQuery,
    MalformedCertificate,
    Verdict,
    decide_sp,
    parse_verdict,
    replay_certificate,
    serialize_verdict,
)
from conftest import depth_chain, mk_dfa, random_dfa


SMALL = Budgets(falsifier_maxlen=5, km_node_cap=20_000, forward_cap=50_000)


def test_budget_profiles():
    assert Budgets.profile("ci").falsifier_maxlen < Budgets().falsifier_maxlen
    assert Budgets.profile("deep").forward_cap > Budgets().forward_cap
    with pytest.raises(InvalidQuery):
        Budgets.profile("bogus")


def test_prefix_mode_requires_prefix_closed(single_ab, astar_b):
    with pytest.raises(InvalidQuery):
        decide_sp(single_ab, astar_b, "prefix")


def test_alphabet_mismatch_rejected(alt, ring3):
    with pytest.raises(InvalidQuery):
        decide_sp(alt, ring3)


def test_unknown_mode_rejected(alt):
    with pytest.raises(InvalidQuery):
        decide_sp(alt, alt, "sideways")


def test_holds_pipeline_prefix(alt):
    v = decide_sp(alt, alt, "prefix")
    assert v.outcome == "holds"
    assert replay_certificate(alt, alt, v)


def test_fails_pipeline_general(ring3, ring9):
    v = decide_sp(ring3, ring9, "general")
    assert v.outcome == "fails"
    assert v.route == "falsifier"
    assert v.certificate["word"] == word("abaa")
    assert v.certificate["factor"] == word("aa")
    assert replay_certificate(ring3, ring9, v)


def test_holds_via_fragment_route(two_start, tracker4):
    from shufflecheck.automata import Dfa

    V = Dfa(
        tracker4.alphabet, tracker4.states, dict(tracker4.delta),
        tracker4.initial, tracker4.states, "dfa",
    )
    v = decide_sp(two_start, V, "general", SMALL)
    assert v.outcome == "holds"
    assert replay_certificate(two_start, V, v)


def test_report_roundtrip(ring3, ring9):
    v = decide_sp(ring3, ring9, "general", SMALL)
    text = serialize_verdict(v)
    back = parse_verdict(text)
    assert back.outcome == v.outcome
    assert back.mode == v.mode
    assert back.route == v.route
    assert back.certificate["word"] == v.certificate["word"]
    assert back.certificate["positions"] == v.certificate["positions"]
    assert back.budgets == v.budgets
    assert replay_certificate(ring3, ring9, back)


def test_report_roundtrip_holds_delta(two_start, tracker4):
    from shufflecheck.automata import Dfa

    V = Dfa(
        tracker4.alphabet, tracker4.states, dict(tracker4.delta),
        tracker4.initial, tracker4.states, "dfa",
    )
    v = decide_sp(two_start, V, "general", SMALL)
    back = parse_verdict(serialize_verdict(v))
    assert back.certificate.get("delta") == v.certificate.get("delta")
    assert replay_certificate(two_start, V, back)


def test_falsifier_overflow_leaves_the_exact_stages_to_decide(ring3, ring9):
    # a falsifier bound of 33 overflows the oracle's length limit
    v = decide_sp(ring3, ring9, "general", replace(SMALL, falsifier_maxlen=33))
    assert v.outcome == "fails"
    assert v.route != "falsifier"
    assert replay_certificate(ring3, ring9, v)


def test_parse_verdict_budget_lines(ring3, ring9):
    text = serialize_verdict(decide_sp(ring3, ring9, "general", SMALL))
    head, _, tail = text.partition("BUDGETS:\n")
    # reports written before three unread budgets were retired still parse
    old = head + "BUDGETS:\noracle_maxlen: 8\noracle_card_cap: 200000\n" + (
        "frontier_cap: 100000\n" + tail
    )
    assert parse_verdict(old).budgets == SMALL
    with pytest.raises(MalformedCertificate):
        parse_verdict(head + "BUDGETS:\nkm_node_cap: lots\n" + tail)
    with pytest.raises(MalformedCertificate):
        parse_verdict(head + "BUDGETS:\nbogus_cap: 1\n" + tail)


def test_parse_verdict_rejects_garbage():
    with pytest.raises(MalformedCertificate):
        parse_verdict("VERDICT: maybe\nMODE: prefix\nROUTE: x\n")
    with pytest.raises(MalformedCertificate):
        parse_verdict("VERDICT: holds\nMODE: prefix\n")
    with pytest.raises(MalformedCertificate):
        parse_verdict("VERDICT: holds\nMODE: prefix\nROUTE: r\nstray: 1\n")


def test_tampered_certificate_fails_replay(ring3, ring9):
    v = decide_sp(ring3, ring9, "general", SMALL)
    tampered = dict(v.certificate)
    tampered["factor"] = word("ab")  # still in the constraint language
    from dataclasses import replace

    assert not replay_certificate(ring3, ring9, replace(v, certificate=tampered))


def test_random_pairs_consistent(rng):
    from shufflecheck.automata import EmptyLanguage
    from shufflecheck.oracle import sp_falsify

    checked = 0
    while checked < 15:
        P = random_dfa(rng)
        V = random_dfa(rng)
        try:
            P = normalize(P)
            V = normalize(V)
        except EmptyLanguage:
            continue
        v = decide_sp(P, V, "general", SMALL)
        cex = sp_falsify(P, V, 5)
        if v.outcome == "holds":
            assert cex is None
        if v.outcome == "fails":
            assert replay_certificate(P, V, v)
        checked += 1


@pytest.mark.parametrize(
    "p, v, mode, budgets, outcome, route",
    [
        ("ring3", "ring9", "general", SMALL, "fails", "falsifier"),
        ("single_ab", "alt", "prefix", SMALL, "holds", "prefix-fragment"),
        ("single_ab", "alt", "general", SMALL, "holds", "zero-fragment"),
        ("tracker4", "tracker4", "prefix", SMALL, "holds", "zero-fragment"),
        ("single_abc", "ring9", "general", SMALL, "fails", "zero-fragment"),
        ("alt", "alt", "prefix", SMALL, "holds", "net-uncoverable"),
        ("alt", "alt", "general", SMALL, "holds", "net-uncoverable"),
        # three components of ab first close a violation, at length 6,
        # beyond the falsifier bound of SMALL
        ("single_ab", "mod3_a", "general", SMALL, "fails", "net-reachability"),
        # forward_cap 3 stops the backward search from F (five markings)
        # but not the forward product (three states), so the zero route
        # takes its forward branch
        ("single_a", "b_chain", "general", replace(SMALL, forward_cap=3),
         "holds", "zero-fragment"),
    ],
    ids=lambda x: f"forward_cap={x.forward_cap}" if isinstance(x, Budgets) else None,
)
def test_route_table(request, p, v, mode, budgets, outcome, route):
    P, V = request.getfixturevalue(p), request.getfixturevalue(v)
    verdict = decide_sp(P, V, mode, budgets)
    assert (verdict.outcome, verdict.route) == (outcome, route)
    assert replay_certificate(P, V, verdict)


@pytest.mark.parametrize("maxlen, note", [(33, "overflow"), (6, None)])
def test_falsifier_overflow_is_reported(ring3, ring9, maxlen, note):
    v = decide_sp(ring3, ring9, "general", replace(SMALL, falsifier_maxlen=maxlen))
    assert v.stats.get("falsifier") == note
    assert parse_verdict(serialize_verdict(v)).stats == {
        k: str(x) for k, x in v.stats.items()
    }


def test_falsifier_stage_calls_the_module_global(ring3, ring9, monkeypatch):
    # the benchmark tracer wraps decision.sp_falsify; the stage must look
    # that name up at call time
    from shufflecheck import decision

    calls = []
    real = decision.sp_falsify

    def spy(P, V, maxlen):
        calls.append(maxlen)
        return real(P, V, maxlen)

    monkeypatch.setattr(decision, "sp_falsify", spy)
    v = decide_sp(ring3, ring9, "general", SMALL)
    assert calls == [SMALL.falsifier_maxlen]
    assert v.route == "falsifier"


@pytest.mark.parametrize("mode", ["prefix", "general"])
def test_forged_prefix_fragment_rejected(ring3, ring9, mode):
    # (ring3, ring9) fails at abaa; one start step is no closed fragment,
    # and general mode never settles a pair by the prefix route
    forged = Verdict(
        "holds", mode, "prefix-fragment", {"delta": ("(0) a (2:1) [start]",)}
    )
    assert not replay_certificate(ring3, ring9, forged)


def test_prefix_fragment_missing_a_step_rejected(single_ab):
    V = depth_chain(4)
    v = decide_sp(single_ab, V, "prefix", SMALL)
    assert v.route == "prefix-fragment"
    assert replay_certificate(single_ab, V, v)
    lines = v.certificate["delta"]
    for i in range(len(lines)):
        cut = replace(v, certificate={"delta": lines[:i] + lines[i + 1:]})
        assert not replay_certificate(single_ab, V, cut), lines[i]
