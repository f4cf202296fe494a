import random
from collections import Counter, defaultdict, deque
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shufflecheck.automata import EmptyLanguage, Letter, complete, grave, normalize
from shufflecheck.engine import (
    Computation,
    CounterVector,
    ShuffleTransition,
    ZERO,
    engine_for,
    parse_transition,
)
from shufflecheck import representation
from shufflecheck.decision import InvalidQuery, check_query
from shufflecheck.petri import decide_alf_pre_finite, decide_alf_zero_finite
from shufflecheck.representation import (
    CHECK_ZERO,
    NotSubsetOfShuffle,
    TrackLetter,
    build_delta_paren,
    build_w_delta,
    check_closure_prefix,
    check_closure_zero,
    compute_s_sets,
    decode_witness,
    mu_nu_project,
    w_delta_moves,
)
from conftest import depth_chain, even_length, mk_dfa, random_dfa, sigma_star
from oracle_reference import srf1


FRAGMENT = frozenset(
    parse_transition(t)
    for t in [
        "(0) a (II:1) [start]",
        "(0) b (II:1) [start]",
        "(II:1) b (II:2) [start]",
        "(II:1) c (0) [end]",
        "(II:2) c (II:1) [end]",
    ]
)


def vec(**counts):
    return CounterVector.make(counts)


def test_s_sets_golden(two_start):
    s1, s2, s3 = compute_s_sets(two_start, FRAGMENT)
    assert s1 == frozenset([ZERO, vec(II=1), vec(II=2)])
    assert s2 == frozenset([ZERO, vec(II=1), vec(II=2)])
    assert s3 == frozenset([ZERO, vec(II=1)])


def test_s2_holds_remainders_that_delta_never_reaches(single_abc):
    # two components open, then one moves on: deleting the one that moved
    # leaves II:1, deleting the other leaves III:1, which delta never
    # reaches
    fragment = frozenset(
        parse_transition(t)
        for t in [
            "(0) a (II:1) [start]",
            "(II:1) a (II:2) [start]",
            "(II:2) b (II:1 III:1) [inner]",
        ]
    )
    s1, s2, s3 = compute_s_sets(single_abc, fragment)
    assert s1 == frozenset([ZERO, vec(II=1), vec(II=2), vec(II=1, III=1)])
    assert s3 == frozenset([ZERO, vec(II=1), vec(III=1)])
    assert s2 == s1 | {vec(III=1)}


def test_s_sets_reject_invalid_fragment(two_start):
    bad = FRAGMENT | {parse_transition("(0) c (II:1) [start]")}
    with pytest.raises(NotSubsetOfShuffle):
        compute_s_sets(two_start, bad)


def test_delta_paren_golden(two_start):
    system = build_delta_paren(two_start, FRAGMENT)
    assert len(system.delta2) == 6
    assert len(system.delta3) == 3
    assert len(system.columns) == 17


def test_column_validation(two_start):
    x1 = parse_transition("(II:1) b (II:2) [start]")
    x2 = parse_transition("(0) b (II:1) [start]")
    col = TrackLetter(x1, x2, vec(II=1))
    assert not col.track3_active
    with pytest.raises(ValueError):
        TrackLetter(x1, x2, ZERO)  # counters no longer add up
    with pytest.raises(ValueError):
        TrackLetter(x1, vec(II=1), vec(II=1))  # no active decomposition


counts = st.dictionaries(st.sampled_from("pqr"), st.integers(0, 3), max_size=3)


@given(counts, counts)
def test_column_counters_must_add_up(m2, m3):
    # the composite is the remainder step shifted by the resting component
    rest, comp = CounterVector.make(m2), CounterVector.make(m3)
    x2 = ShuffleTransition(rest, Letter("a"), rest.add(vec(p=1)), "start")
    x1 = x2.shift(comp)
    assert TrackLetter(x1, x2, comp) == TrackLetter(x1, x2, comp)
    with pytest.raises(ValueError):
        TrackLetter(x1, x2, comp.add(vec(q=1)))
    if not comp.is_zero():
        with pytest.raises(ValueError):
            TrackLetter(x1, x2, ZERO)


def test_w_delta_golden(two_start):
    w = build_w_delta(two_start, FRAGMENT)
    assert len(w.automaton.delta) == 17
    # deterministic by construction; initial state all-zero
    assert w.decode[w.automaton.initial] == (ZERO, ZERO, ZERO)
    # the deleted-component sentinel appears as a third-track state
    assert any(s[2] is CHECK_ZERO for s in w.decode.values())


def test_w_delta_tracks_compose(two_start):
    w = build_w_delta(two_start, FRAGMENT)
    # walk every length-<=4 path; both projections must be computations
    # and their running counters must add up to track 1
    def walk(state, cols, depth):
        mu, nu = mu_nu_project(cols)
        Computation(mu)
        Computation(nu)
        if depth == 0:
            return
        for a in w.automaton.alphabet:
            nxt = w.automaton.delta.get((state, a))
            if nxt is not None:
                walk(nxt, cols + (a.symbol,), depth - 1)

    walk(w.automaton.initial, (), 4)


def test_decode_witness_positions(two_start):
    w = build_w_delta(two_start, FRAGMENT)
    # find a path using at least one checked column
    def find(state, cols, depth):
        if any(c.track3_active for c in cols):
            return cols
        if depth == 0:
            return None
        for a in w.automaton.alphabet:
            nxt = w.automaton.delta.get((state, a))
            if nxt is not None:
                got = find(nxt, cols + (a.symbol,), depth - 1)
                if got is not None:
                    return got
        return None

    cols = find(w.automaton.initial, (), 3)
    assert cols is not None
    word, remainder, component, positions = decode_witness(cols)
    assert len(word) == len(cols)
    assert len(component) == len(positions)
    assert tuple(word[i] for i in positions) == component
    rest = tuple(a for i, a in enumerate(word) if i not in set(positions))
    assert rest == remainder


def test_one_deletion_equality_on_fragment(two_start):
    # the recognizer's fiber over a composite computation must equal the
    # brute-force one-deletion set, for every fragment computation
    w = build_w_delta(two_start, FRAGMENT)
    by_mu = defaultdict(set)

    def walk(state, cols, depth):
        mu, nu = mu_nu_project(cols)
        by_mu[tuple(mu)].add(tuple(nu))
        if depth == 0:
            return
        for a in w.automaton.alphabet:
            nxt = w.automaton.delta.get((state, a))
            if nxt is not None:
                walk(nxt, cols + (a.symbol,), depth - 1)

    walk(w.automaton.initial, (), 5)

    frontier = [Computation(())]
    count = 0
    while frontier:
        c = frontier.pop()
        expected = {tuple(u) for u in srf1(two_start, c)}
        assert by_mu.get(tuple(c), set()) == expected
        count += 1
        if len(c) < 5:
            for t in FRAGMENT:
                if t.source == c.final:
                    frontier.append(Computation(tuple(c) + (t,)))
    assert count > 20


def test_closure_prefix_golden(two_start, tracker4):
    out = check_closure_prefix(two_start, tracker4, FRAGMENT)
    assert out.holds


def all_successors(eng, f) -> frozenset:
    """Every step of the engine out of f, on any letter."""
    return frozenset().union(*(eng.successors(f, a) for a in eng.P.alphabet))


def steps_to_norm_2(P) -> frozenset:
    """Every step of P's engine out of a vector reached within norm 2 that
    ends within norm 2."""
    eng = engine_for(P)
    return frozenset(
        t
        for f in reachable_vectors(eng, 2)
        for t in all_successors(eng, f)
        if t.target.norm <= 2
    )


def reachable_vectors(eng, max_norm: int) -> frozenset:
    """Vectors reachable from 0 without exceeding the given norm, by
    exhaustive search: the reference for the rule that keeps S2."""
    seen = {ZERO}
    frontier = [ZERO]
    while frontier:
        f = frontier.pop()
        for a in eng.P.alphabet:
            for g in {t.target for t in eng.successors(f, a)}:
                if g.norm <= max_norm and g not in seen:
                    seen.add(g)
                    frontier.append(g)
    return frozenset(seen)


def test_closure_detects_violation(single_ab, astar_b):
    # composite aab is accepted, the remainder b after deleting the
    # component is not
    delta = steps_to_norm_2(single_ab)
    out = check_closure_zero(single_ab, astar_b, delta)
    assert not out.holds
    _, _, component, _ = decode_witness(out.witness)
    assert len(component) > 0


def grave_transfer(P, delta) -> frozenset:
    """Move a fragment to the all-states-final automaton: the downward
    closure of its vectors, with every valid step between them."""
    eng = engine_for(grave(P))
    vectors = set()
    for t in delta:
        vectors.add(t.source)
        vectors.add(t.target)
    closure = set(vectors)
    queue = deque(vectors)
    while queue:
        f = queue.popleft()
        for d in f.decrements():
            if d not in closure:
                closure.add(d)
                queue.append(d)
    letters = {t.letter for t in delta}
    out = set()
    for f in closure:
        for a in letters:
            for t in eng.successors(f, a):
                if t.target in closure:
                    out.add(t)
    return frozenset(out)


def test_grave_transfer_downward_closed(two_start):
    moved = grave_transfer(two_start, FRAGMENT)
    vectors = {t.source for t in moved} | {t.target for t in moved}
    for f in vectors:
        for g in f.decrements():
            assert g in vectors
    # the grave automaton admits extra closings at every state
    assert len(moved) >= len(FRAGMENT)


def test_closure_search_golden(single_ab, astar_b):
    # the search's visiting order fixes the witness and the state count:
    # 10 of the 12 states the full search discovers, the other two having
    # complete(V)'s sink as their composite V-state
    delta = steps_to_norm_2(single_ab)
    out = check_closure_zero(single_ab, astar_b, delta)
    assert tuple(str(c) for c in out.witness) == (
        "[(0) a (II:1) | (0) | (0) ^a (II:1)]",
        "[(II:1) b (0) | (0) | (II:1) ^b (0)]",
    )
    assert out.states_explored == 10


def test_closure_prefix_depth_chain_golden(single_ab):
    comp, V = grave(normalize(single_ab)), normalize(depth_chain(14))
    alf = decide_alf_pre_finite(comp, V)
    assert alf.status == "finite"
    w = build_w_delta(comp, alf.delta)
    assert len(w.automaton.states) == 44
    assert len(w.automaton.delta) == 165
    out = check_closure_prefix(comp, V, alf.delta)
    assert out.holds
    # of the 719 states the full search visits, 269 have the sink of
    # complete(V) as their composite V-state
    assert out.states_explored == 450


def _column_key(col) -> tuple:
    """W's alphabet order by its definition: the composite's text, the
    remainder's text before the column, whether track 3 moves, then the
    column's text and the composite's kind."""
    before = col.x2.source if isinstance(col.x2, ShuffleTransition) else col.x2
    return str(col.x1), str(before), col.track3_active, str(col), col.x1.kind


def _reference_columns(system) -> frozenset:
    """Every consistent column over the fragment by its definition: each
    step of the fragment with each remainder step (delta2') or component
    step (delta3') of its letter and kind whose counters, with the resting
    track's, add up to it."""
    by_event2: dict = {}
    for x2 in system.delta2:
        by_event2.setdefault((x2.letter, x2.kind), []).append(x2)
    by_event3: dict = {}
    for x3 in system.delta3:
        by_event3.setdefault((x3.letter.unchecked(), x3.kind), []).append(x3)
    columns = set()
    for x1 in system.delta:
        event = (x1.letter, x1.kind)
        for x2 in by_event2.get(event, ()):
            v = x1.source.sub(x2.source)
            if v is None or x1.target.sub(x2.target) != v:
                continue
            if v in system.s3:
                columns.add(TrackLetter(x1, x2, v))
            if v == ZERO:
                columns.add(TrackLetter(x1, x2, CHECK_ZERO))
        for x3 in by_event3.get(event, ()):
            v = x1.source.sub(x3.source)
            if v is None or x1.target.sub(x3.target) != v:
                continue
            if v in system.s2:
                columns.add(TrackLetter(x1, v, x3))
    return frozenset(columns)


def _reference_moves(columns, state) -> list:
    """W's moves out of state by their definition: the columns of
    `_reference_columns` whose tracks start where the state stands, each
    with the state it leads to, in column order (`_column_key`)."""
    s1, s2, s3 = state
    out = []
    for col in sorted(columns, key=_column_key):
        if col.x1.source != s1:
            continue
        # a resting track must hold the state's own value
        if isinstance(col.x2, ShuffleTransition):
            if col.x2.source != s2:
                continue
            n2 = col.x2.target
        elif col.x2 != s2:
            continue
        else:
            n2 = s2
        if col.track3_active:
            if col.x3.source != s3:
                continue
            n3 = CHECK_ZERO if col.x3.target == ZERO else col.x3.target
        elif col.x3 != s3:
            continue
        else:
            n3 = s3
        out.append((col, (col.x1.target, n2, n3)))
    return out


def _fragments_of_draws(n):
    """(composite, fragment) for every finite prefix and zero fragment of
    the first n criterion-10 draws."""
    return ((comp, delta) for _mode, comp, _V, delta in _draws_with_fragments(n))


def _draws_with_fragments(n):
    """(mode, composite, V, fragment) for every finite prefix and zero
    fragment of the first n criterion-10 draws."""
    rng = random.Random(101010)
    for _ in range(n):
        P, V = random_dfa(rng), random_dfa(rng)
        try:
            P, V = normalize(P), normalize(V)
        except EmptyLanguage:
            continue
        for mode, comp, fragment in (
            ("prefix", grave(P), decide_alf_pre_finite),
            ("general", P, decide_alf_zero_finite),
        ):
            try:
                check_query(P, V, mode)
            except InvalidQuery:
                continue
            alf = fragment(comp, V)
            if alf.status == "finite":
                yield mode, comp, V, alf.delta


def _arbitrary_fragments(n, alphabets=("abc", "ab")):
    """(composite, V, fragment) for n seeded random pairs: P and V over
    each of the alphabets in turn, each fragment a random set of the valid
    steps up to norm 3, in P and in grave(P).  Most are not closed and
    many are not reached from 0, as a forged certificate's need not be.
    The steps are sorted before sampling, since their sets' order follows
    the hash seed."""
    rng = random.Random(2121)
    for i in range(n):
        alpha = alphabets[i % len(alphabets)]
        P, V = random_dfa(rng, 3, alpha), random_dfa(rng, 3, alpha)
        for comp in (P, grave(P)):
            eng = engine_for(comp)
            valid = sorted(
                (
                    t
                    for f in reachable_vectors(eng, 3)
                    for t in all_successors(eng, f)
                    if t.target.norm <= 3
                ),
                key=ShuffleTransition.tagged_str,
            )
            if valid:
                k = rng.randint(1, min(len(valid), 40))
                yield comp, V, frozenset(rng.sample(valid, k))


def _candidate_states(system) -> list:
    """The W-states `build_delta_paren` reads its columns from: s1 the
    source of a step of the fragment, s3 in S3 or the sentinel, and
    s2 = s1 - s3 in S2."""
    out = []
    for f in {t.source for t in system.delta}:
        for h in (*system.s3, CHECK_ZERO):
            rest = f.sub(ZERO if h is CHECK_ZERO else h)
            if rest in system.s2:
                out.append((f, rest, h))
    return out


def test_w_moves_match_the_recognizer_and_the_columns(two_start, single_ab):
    # the column set is the definition's, and on every W-state the moves
    # made on demand are the recognizer's transitions, in its order, and
    # the definition's columns that the state can read
    comp = grave(normalize(single_ab))
    chain = decide_alf_pre_finite(comp, normalize(depth_chain(14))).delta
    # most of the draws' fragments are empty; 600 draws give 33 that are not
    cases = [
        (two_start, FRAGMENT),
        (comp, chain),
        *_fragments_of_draws(600),
        *((P, delta) for P, _V, delta in _arbitrary_fragments(150)),
    ]
    transitions = leaving = 0
    for P, delta in cases:
        w = build_w_delta(P, delta)
        columns = _reference_columns(w.system)
        assert build_delta_paren(P, delta).columns == columns
        assert w.system.columns == columns
        moves = w_delta_moves(P, delta)
        edges = defaultdict(list)
        for (src, a), tgt in w.automaton.delta.items():
            edges[src].append((a.symbol, w.decode[tgt]))
        for name, state in w.decode.items():
            got = list(moves(state))
            assert got == edges[name]
            assert got == _reference_moves(columns, state)
        transitions += len(w.automaton.delta)
        # a state that no walk from 0 reaches may have moves whose
        # remainder leaves S2; they are not columns of W
        leaving += any(
            n2 not in w.system.s2
            for state in _candidate_states(w.system)
            for _col, (_n1, n2, _n3) in moves(state)
        )
    assert sum(1 for _, delta in cases if delta) > 30 and transitions > 300
    assert leaving > 0


def test_moves_make_the_columns_the_checked_constructor_makes(two_start, single_ab):
    # the move function checks each state's counters once, and the
    # constructor checks each column as it is made
    comp = grave(normalize(single_ab))
    chain = decide_alf_pre_finite(comp, normalize(depth_chain(14))).delta
    cases = [(two_start, FRAGMENT), (comp, chain), *_fragments_of_draws(600)]
    columns = 0
    for P, delta in cases:
        moves = w_delta_moves(P, delta)
        for state in build_w_delta(P, delta).decode.values():
            columns += len(moves(state))
    assert columns > 300
    # (II:1, 0, 0) breaks s1 = s2 + s3
    with pytest.raises(ValueError, match="column counters do not add up"):
        w_delta_moves(two_start, FRAGMENT)((vec(II=1), ZERO, ZERO))


def test_closure_checks_build_neither_columns_nor_recognizer(
    two_start, tracker4, single_ab, astar_b, monkeypatch
):
    # nor the track ranges or the steps delta2'/delta3' of W
    def refuse(*args):
        raise AssertionError("the closure search built part of W")

    for name in (
        "build_delta_paren",
        "build_w_delta",
        "compute_s_sets",
        "_delta2_prime",
        "_delta3_prime",
    ):
        monkeypatch.setattr(representation, name, refuse)
    # every column passes the constructor's check, which counts it
    made = []
    post_init = TrackLetter.__post_init__

    def count_checked(self):
        made.append((self.x1, self.x2, self.x3))
        post_init(self)

    monkeypatch.setattr(TrackLetter, "__post_init__", count_checked)
    assert check_closure_prefix(two_start, tracker4, FRAGMENT).holds
    assert check_closure_zero(two_start, tracker4, FRAGMENT).holds
    assert made == []
    # a Fails search makes its witness's columns and no other
    delta = steps_to_norm_2(single_ab)
    out = check_closure_zero(single_ab, astar_b, delta)
    assert not out.holds and len(out.witness) == 2
    assert made == [(c.x1, c.x2, c.x3) for c in reversed(out.witness)]


def _live_states(V) -> set:
    """The states of V from which some word reaches a final state, as a
    fixed point: a final state, or one with a letter into a live state."""
    live = set(V.finals)
    grown = True
    while grown:
        grown = False
        for (q, _a), p in V.delta.items():
            if p in live and q not in live:
                live.add(q)
                grown = True
    return live


def _reference_closure(P, V, delta, require_zero: bool) -> tuple:
    """(holds, witness, states discovered, those of them whose composite
    V-state is live) of the closure search by its definition: breadth
    first over W_delta x V x V, each state's columns tried in the order of
    W's alphabet, with no state left out."""
    w = build_w_delta(P, delta)
    W, V = w.automaton, complete(V)
    live = _live_states(V)

    def explored(parent) -> tuple:
        return len(parent), sum(vmu in live for _ws, vmu, _vnu in parent)

    start = (W.initial, V.initial, V.initial)
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        ws, vmu, vnu = state
        if vmu in V.finals and vnu not in V.finals:
            if not require_zero or w.decode[ws][0] == ZERO:
                witness = []
                while parent[state] is not None:
                    state, col = parent[state]
                    witness.append(col)
                return False, tuple(reversed(witness)), *explored(parent)
        for a in W.alphabet:
            nws = W.delta.get((ws, a))
            if nws is None:
                continue
            col = a.symbol
            if not col.track3_active:
                vnu_next = V.delta[(vnu, col.x2.letter)]
            else:
                vnu_next = vnu
            nxt = (nws, V.delta[(vmu, col.x1.letter)], vnu_next)
            if nxt not in parent:
                parent[nxt] = (state, col)
                queue.append(nxt)
    return True, None, *explored(parent)


def test_closure_search_matches_the_recognizer_search_on_arbitrary_fragments(
    single_ab,
):
    # the search over (remainder, tracked component) finds what the search
    # over W_delta finds, in the same order, on fragments that are neither
    # closed nor reached from 0, as a forged certificate's need not be, and
    # on the large ones the routes find: the depth chains' prefix fragments
    # and the draws' zero fragments, each with its own V.  It leaves out
    # the states whose composite V-state is dead, and so counts exactly
    # the live ones among those the full search has discovered by then
    comp = grave(normalize(single_ab))
    chains = [
        (comp, V, decide_alf_pre_finite(comp, V).delta)
        for V in (normalize(depth_chain(14)), normalize(depth_chain(18)))
    ]
    zero = [
        (P, V, delta)
        for mode, P, V, delta in _draws_with_fragments(600)
        if mode == "general"
    ]
    searches = fails = largest = pruned = 0
    for P, V, delta in [*_arbitrary_fragments(150), *chains, *zero]:
        for check, require_zero in (
            (check_closure_prefix, False),
            (check_closure_zero, True),
        ):
            out = check(P, V, delta)
            holds, witness, discovered, live = _reference_closure(P, V, delta, require_zero)
            assert (out.holds, out.witness) == (holds, witness)
            assert out.states_explored == live
            searches += 1
            fails += not out.holds
            largest = max(largest, discovered)
            pruned += live < discovered
    assert searches >= 200 and fails >= 20 and len(zero) > 10
    assert largest > 1000 and pruned > 100


def _assert_closure_checks_match_the_reference(P, V, delta):
    for check, require_zero in (
        (check_closure_prefix, False),
        (check_closure_zero, True),
    ):
        out = check(P, V, delta)
        holds, witness, _discovered, live = _reference_closure(P, V, delta, require_zero)
        assert (out.holds, out.witness, out.states_explored) == (holds, witness, live)


def test_forged_step_out_of_a_state_no_component_occupies(single_ab, astar_b):
    # a component at I would move on a, so (I:1) a (II:1) passes the step
    # check, though no component occupies I, the initial state; packing
    # gives I a field because delta names it
    forged = parse_transition("(I:1) a (II:1) [inner]")
    for delta in (frozenset([forged]), steps_to_norm_2(single_ab) | {forged}):
        _assert_closure_checks_match_the_reference(single_ab, astar_b, delta)
    at_i = vec(I=1)
    ((col, nxt),) = w_delta_moves(single_ab, [forged])((at_i, at_i, ZERO))
    assert (col.x1, col.x2, col.x3) == (forged, forged, ZERO)
    assert nxt == (vec(II=1), vec(II=1), ZERO)


def test_closure_checks_reject_an_invalid_step_where_v_accepts_nothing(single_ab):
    # the search leaves out every state when V's initial state is dead,
    # but it checks the fragment first
    dead = mk_dfa("ab", [("1", "a", "1")], "1", ["2"])
    valid = parse_transition("(0) a (II:1) [start]")
    for check in (check_closure_prefix, check_closure_zero):
        out = check(single_ab, dead, [valid])
        assert (out.holds, out.witness, out.states_explored) == (True, None, 0)
        with pytest.raises(NotSubsetOfShuffle):
            check(single_ab, dead, [valid, parse_transition("(0) b (II:1) [start]")])


def test_counts_past_16_bits_get_fields_wide_enough(single_abc):
    # packed in 16-bit fields, (II:65536) would read as (III:1), which the
    # genuine steps reach, and the step opening a component there would
    # move from it
    big = 1 << 16
    far = parse_transition(f"(II:{big}) a (II:{big + 1}) [start]")
    delta = steps_to_norm_2(single_abc) | {far}
    for V in (sigma_star("abc"), even_length("abc")):
        _assert_closure_checks_match_the_reference(single_abc, V, delta)
    # from there, far is the remainder's step or opens the tracked one
    at_far = vec(II=big)
    opening = parse_transition("(0) a (II:1) [start]").checked()
    moves = w_delta_moves(single_abc, delta)((at_far, at_far, ZERO))
    assert [(col.x1, col.x2, col.x3, nxt) for col, nxt in moves] == [
        (far, far, ZERO, (far.target, far.target, ZERO)),
        (far, at_far, opening, (far.target, at_far, vec(II=1))),
    ]


def test_moves_keep_column_order_for_any_letter():
    # the order comes from a column's parts, not its text, so it holds for
    # letters whose text sorts at "| " or after, and for letters outside
    # ASCII; the moves and the closure checks match their definitions
    cases = list(_arbitrary_fragments(100, ("|b", "a|", "~b", "éb", "}a")))
    for P, V, delta in cases:
        w = build_w_delta(P, delta)
        columns = _reference_columns(w.system)
        moves = w_delta_moves(P, delta)
        for state in w.decode.values():
            assert list(moves(state)) == _reference_moves(columns, state)
        _assert_closure_checks_match_the_reference(P, V, delta)
    assert sum(1 for _P, _V, delta in cases if len(delta) > 10) > 50


def test_remainder_column_comes_first_for_a_tilde():
    # "~" sorts after "| ", so by text a component column would come before
    # the remainder column of the same step; by its parts it comes after,
    # in W's alphabet and among a state's moves
    P = mk_dfa("~", [("1", "~", "1")], "1", ["1"])
    delta = steps_to_norm_2(P)
    w = build_w_delta(P, delta)
    alphabet = [a.symbol for a in w.automaton.alphabet]
    assert alphabet == sorted(w.system.columns, key=_column_key)
    # whether track 3 moves, in order, for the columns of each composite
    # step from each remainder, and for the moves of each step of a state
    tracks = defaultdict(list)
    for col in alphabet:
        tracks[col.x1, _column_key(col)[1]].append(col.track3_active)
    moves = w_delta_moves(P, delta)
    for state in w.decode.values():
        for col, _nxt in moves(state):
            tracks[col.x1, state].append(col.track3_active)
    assert all(active == sorted(active) for active in tracks.values())
    assert sum(len(set(active)) == 2 for active in tracks.values()) > 10
    for V in (sigma_star("~"), even_length("~")):
        _assert_closure_checks_match_the_reference(P, V, delta)


def _vectors_over(states, max_norm: int) -> set:
    """Every counter vector over states of norm at most max_norm."""
    return {
        CounterVector.make(Counter(combo))
        for n in range(max_norm + 1)
        for combo in combinations_with_replacement(sorted(states), n)
    }


def test_s2_support_rule_matches_the_reachable_vectors(single_ab):
    # a vector is reachable exactly when its support lies in the states a
    # component can occupy; by that rule every difference of an S1 and an
    # S3 vector is reachable, so compute_s_sets keeps them all in S2
    rng = random.Random(19)
    compared = 0
    for i in range(300):
        P = random_dfa(rng, 4, "ab" if i % 2 else "abc")
        variants = [P, grave(P)]
        try:
            variants.append(normalize(P))
        except EmptyLanguage:
            pass
        for comp in variants:
            eng = engine_for(comp)
            for n in range(4):
                assert reachable_vectors(eng, n) == _vectors_over(
                    eng.component_states, n
                )
                compared += 1
    assert compared > 3000
    # and S2 is the set of differences that the reference reaches, on the
    # depth chains and the draws' fragments: all of them
    comp = grave(normalize(single_ab))
    cases = [
        (comp, decide_alf_pre_finite(comp, normalize(depth_chain(m))).delta)
        for m in (1, 4, 14)
    ]
    for P, delta in [*cases, *_fragments_of_draws(200)]:
        s1, s2, s3 = compute_s_sets(P, delta)
        differences = {g.sub(h) for g in s1 for h in s3} - {None}
        cap = max(f.norm for f in differences)
        assert s2 == differences & reachable_vectors(engine_for(P), cap)


def test_tied_columns_ordered_by_kind():
    # P = a*: a start_end and an inner step with equal ends print alike,
    # so the moves and W's alphabet order them by text, then kind
    P = mk_dfa("a", [("1", "a", "1")], "1", ["1"])
    delta = steps_to_norm_2(P)
    w = build_w_delta(P, delta)
    columns = w.system.columns
    assert (len(columns), len({str(c) for c in columns})) == (32, 27)
    alphabet = [a.symbol for a in w.automaton.alphabet]
    assert alphabet == sorted(columns, key=_column_key)
    moves = w_delta_moves(P, delta)
    tied = 0
    for state in w.decode.values():
        keys = [_column_key(col) for col, _ in moves(state)]
        assert keys == sorted(keys)
        tied += len({key[3] for key in keys}) < len(keys)
    assert (len(w.decode), tied) == (8, 5)
