import re

import pytest

from shufflecheck import decision
from shufflecheck.automata import serialize_automaton
from shufflecheck.cli import main
from conftest import depth_chain, mk_dfa, sigma_star


@pytest.fixture
def files(tmp_path, alt, ring3, ring9, two_start, tracker4, single_letter, a7b_prefixes):
    paths = {}
    for name, a in [
        ("alt", alt),
        ("ring3", ring3),
        ("ring9", ring9),
        ("two_start", two_start),
        ("tracker4", tracker4),
        ("single_letter", single_letter),
        ("a7b_prefixes", a7b_prefixes),
    ]:
        p = tmp_path / f"{name}.aut"
        p.write_text(serialize_automaton(a))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_decide_exit_codes(files, capsys):
    assert main(["decide", files["alt"], files["alt"], "--mode", "prefix"]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: holds" in out
    assert main(["decide", files["ring3"], files["ring9"], "--mode", "general"]) == 1
    out = capsys.readouterr().out
    assert "VERDICT: fails" in out
    assert "word: a b a a" in out


def test_decide_then_replay(files, capsys):
    main(["decide", files["ring3"], files["ring9"], "--mode", "general"])
    report = files["dir"] / "report.txt"
    report.write_text(capsys.readouterr().out)
    code = main(["replay", files["ring3"], files["ring9"], str(report)])
    assert code == 0
    assert "replay: ok" in capsys.readouterr().out


def test_falsify(files, capsys):
    assert main(["falsify", files["ring3"], files["ring9"], "--mode", "general"]) == 1
    out = capsys.readouterr().out
    assert "word: a b a a" in out and "positions: 0 1" in out
    assert main(["falsify", files["alt"], files["alt"]]) == 2


def test_decide_semiautomaton_violation_beyond_the_falsifier(files, capsys):
    code = main(
        ["decide", files["single_letter"], files["a7b_prefixes"], "--mode", "general"]
    )
    assert code == 1
    assert "word: a a a a a a a b" in capsys.readouterr().out


def test_falsify_rejects_a_constraint_decide_rejects(files, capsys, tmp_path):
    # {aa, ba} is not prefix closed, so prefix mode has no question to ask
    two = tmp_path / "two.aut"
    two.write_text(serialize_automaton(
        mk_dfa("ab", [("1", "a", "2"), ("1", "b", "2"), ("2", "a", "3")], "1", ["3"])
    ))
    assert main(["falsify", str(two), str(two), "--mode", "prefix"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err) and "prefix-closed" in err


def test_falsify_rejects_a_narrower_component_alphabet(files, capsys, tmp_path):
    only_a = tmp_path / "only_a.aut"
    only_a.write_text(serialize_automaton(mk_dfa("a", [("1", "a", "2")], "1", ["2"])))
    assert main(["falsify", str(only_a), files["alt"], "--mode", "general"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err) and "alphabets differ" in err


def test_wdelta(files, capsys, tmp_path):
    delta = tmp_path / "delta.txt"
    delta.write_text(
        "(0) a (II:1) [start]\n(0) b (II:1) [start]\n"
        "(II:1) b (II:2) [start]\n(II:1) c (0) [end]\n"
        "(II:2) c (II:1) [end]\n"
    )
    assert main(["wdelta", files["two_start"], "--delta", str(delta)]) == 0
    out = capsys.readouterr().out
    assert "columns: 17" in out
    assert "wdelta-transitions: 17" in out


def test_segments_ball(files, capsys):
    assert main(["segments", files["two_start"], "--ball", "2", "--roles"]) == 0
    out = capsys.readouterr().out
    assert "compatible: true" in out
    assert main(["segments", files["ring3"], "--ball", "0"]) == 1
    assert "compatible: false" in capsys.readouterr().out


def test_segments_file(files, capsys, tmp_path):
    seg = tmp_path / "seg.txt"
    seg.write_text("(0)\n(II:1)\n")
    assert main(["segments", files["two_start"], "--segment", str(seg)]) == 0
    seg.write_text("K 1\n")
    assert main(["segments", files["two_start"], "--segment", str(seg)]) == 0


def test_petri_km_and_emit(files, capsys):
    assert main(
        ["petri", files["two_start"], files["tracker4"], "--analyze", "km"]
    ) == 0
    out = capsys.readouterr().out
    assert "km: bounded" in out
    assert main(
        ["petri", files["two_start"], files["tracker4"], "--emit", "dot"]
    ) == 0
    assert "digraph" in capsys.readouterr().out
    assert main(
        ["petri", files["two_start"], files["tracker4"], "--emit", "pnml"]
    ) == 0
    assert "<pnml>" in capsys.readouterr().out


# a DOT quoted string: anything but a double quote or a backslash, or a
# backslash and the character it escapes
_DOT_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_DOT_NODE = re.compile(rf"  {_DOT_QUOTED} \[shape=(?:circle|box)(?:, label={_DOT_QUOTED})?\];")
_DOT_ARC = re.compile(rf"  {_DOT_QUOTED} -> {_DOT_QUOTED};")


def _dot_unescaped(text):
    return re.sub(r"\\(.)", r"\1", text)


def test_petri_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    # P-states named p"0 and q\1 give places P::p"0 and P::q\1; every id
    # and label of the DOT output must stay one quoted string
    comp = mk_dfa("ab", [('p"0', "a", "q\\1"), ("q\\1", "b", 'p"0')], 'p"0', ['p"0'])
    tracker = mk_dfa("ab", [("1", "a", "1"), ("1", "b", "1")], "1", ["1"])
    P, V = tmp_path / "P.aut", tmp_path / "V.aut"
    P.write_text(serialize_automaton(comp))
    V.write_text(serialize_automaton(tracker))
    assert main(["petri", str(P), str(V), "--which", "npv", "--emit", "dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    body = lines[lines.index("digraph net {") + 2 : lines.index("}")]
    nodes, arcs = set(), []
    for line in body:
        node, arc = _DOT_NODE.fullmatch(line), _DOT_ARC.fullmatch(line)
        assert node or arc, line
        if node:
            name, label = _dot_unescaped(node[1]), node[2]
            nodes.add(name)
            if label is not None:
                # the place's name, then its initial tokens after a DOT \n
                assert _dot_unescaped(re.sub(r"\\n\d+$", "", label)) == name
        else:
            arcs += [_dot_unescaped(arc[1]), _dot_unescaped(arc[2])]
    assert {'P::p"0', "P::q\\1", "V::1"} <= nodes
    assert set(arcs) <= nodes and 'P::p"0' in arcs


def test_petri_km_unbounded(files, capsys, single_ab):
    # a on state 1 loops, so the npv net pumps the II:1 counter
    pre = mk_dfa(
        "ab", [("1", "a", "1"), ("1", "b", "2")], "1", [], "semiautomaton"
    )
    comp, tracker = files["dir"] / "single_ab.aut", files["dir"] / "pre.aut"
    comp.write_text(serialize_automaton(single_ab))
    tracker.write_text(serialize_automaton(pre))
    assert main(["petri", str(comp), str(tracker), "--analyze", "km"]) == 0
    out = capsys.readouterr().out
    assert "km: unbounded" in out
    assert "pump-prefix:\n" in out
    assert "pump-cycle: start|(0) a (II:1)|1\n" in out
    assert "pump-replays: true" in out


def test_family_check(files, capsys):
    assert main(["family", files["alt"], files["alt"], "--size", "2", "--check"]) == 0
    assert "self-similar: true" in capsys.readouterr().out
    code = main(
        ["family", files["ring3"], files["ring9"], "--size", "3", "--check",
         "--maxlen", "4"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "word: a@1 b@1 a@2 a@3" in out


def test_shuffle_membership(files, capsys):
    assert main(["shuffle", files["ring3"], "abcabc"]) == 0
    assert main(["shuffle", files["ring3"], "ba"]) == 1
    assert main(["shuffle", files["two_start"], "ab"]) == 1
    assert main(["shuffle", files["two_start"], "ab", "--prefix"]) == 0


def test_shuffle_reads_a_word_as_a_report_writes_it(capsys, tmp_path):
    # a report writes a word as letters between spaces, which is the only
    # way to name a letter longer than one character
    paths = {}
    for name, text in (("ab", "a b"), ("handshake", "req ack")):
        first, second = text.split()
        paths[name] = tmp_path / f"{name}.aut"
        paths[name].write_text(
            f"kind: dfa\nalphabet: {text}\nstates: 0 1 2\ninitial: 0\nfinals: 2\n"
            f"trans: 0 {first} 1\ntrans: 1 {second} 2\n"
        )
    ab, handshake = str(paths["ab"]), str(paths["handshake"])
    assert main(["shuffle", ab, "a a b b"]) == 0
    assert main(["shuffle", ab, "aabb"]) == 0
    assert main(["shuffle", ab, "a b b a"]) == 1
    assert main(["shuffle", handshake, "req req ack ack"]) == 0
    assert main(["shuffle", handshake, "req ack ack"]) == 1
    assert main(["shuffle", handshake, "req req ack"]) == 1
    assert main(["shuffle", handshake, "req req ack", "--prefix"]) == 0
    out, err = capsys.readouterr()
    assert out.split() == [
        "member", "member", "non-member", "member", "non-member", "non-member", "member"
    ]
    assert err == ""


def test_error_exit_code(files, capsys):
    assert main(["decide", files["alt"], "/nonexistent.aut"]) == 3
    # alphabet mismatch
    assert main(["decide", files["alt"], files["ring3"]]) == 3


def test_falsifier_overflow_exits_3(files, capsys):
    code = main(["falsify", files["ring3"], files["ring9"], "--maxlen", "33"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_replay_bad_budget_value_exits_3(files, capsys):
    main(["decide", files["ring3"], files["ring9"], "--mode", "general"])
    report = files["dir"] / "report.txt"
    report.write_text(
        capsys.readouterr().out.replace("km_node_cap: 200000", "km_node_cap: lots")
    )
    assert main(["replay", files["ring3"], files["ring9"], str(report)]) == 3
    assert "error: " in capsys.readouterr().err


def test_replay_bad_position_exits_3_without_traceback(files, capsys):
    main(["decide", files["ring3"], files["ring9"], "--mode", "general"])
    out = capsys.readouterr().out
    head, _, tail = out.partition("positions: ")
    assert tail, out
    report = files["dir"] / "report.txt"
    report.write_text(head + "positions: one\n" + tail.partition("\n")[2])
    assert main(["replay", files["ring3"], files["ring9"], str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_unexpected_error_exits_3(files, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken stage")

    monkeypatch.setattr(decision, "decide_sp", broken)
    assert main(["decide", files["alt"], files["alt"]]) == 3
    assert "error: unexpected RuntimeError: broken stage" in capsys.readouterr().err


def test_falsify_alphabet_mismatch_exits_3(files, capsys):
    # ring3 reads c, which alt's alphabet lacks
    assert main(["falsify", files["ring3"], files["alt"], "--mode", "general"]) == 3
    assert "component and constraint alphabets differ" in capsys.readouterr().err


def test_usage_errors_exit_3(files, capsys):
    # argparse's own usage exit is 2, which the CLI reserves for Unknown
    assert main(["decide", files["alt"]]) == 3
    assert main(["decide", files["alt"], files["alt"], "--mode", "both"]) == 3
    assert main(["falsify", files["alt"], files["alt"], "--maxlen", "six"]) == 3
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0


def test_negative_bounds_exit_3(files, capsys):
    assert main(["falsify", files["ring3"], files["ring9"], "--maxlen", "-1"]) == 3
    assert main(["segments", files["two_start"], "--ball", "-1"]) == 3
    assert main(
        ["family", files["alt"], files["alt"], "--size", "2", "--check",
         "--maxlen", "-1"]
    ) == 3
    err = capsys.readouterr().err
    assert "not a non-negative integer: '-1'" in err
    assert "unexpected" not in err and "Traceback" not in err


def _one_error_line(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and "unexpected" not in err


def test_wdelta_invalid_step_exits_3(files, capsys, tmp_path):
    ab = mk_dfa("ab", [("1", "a", "2"), ("2", "b", "3")], "1", ["3"])
    comp, delta = tmp_path / "ab.aut", tmp_path / "delta.txt"
    comp.write_text(serialize_automaton(ab))
    delta.write_text("(0) b (2:1) [start]\n")
    assert main(["wdelta", str(comp), "--delta", str(delta)]) == 3
    assert _one_error_line(capsys.readouterr().err)


def test_checked_component_letter_exits_3(single_abc, ring9, capsys, tmp_path):
    # "^a" names the checked copy of a, which track 3 keeps apart from P's
    # letters, so a pair over it is invalid input
    paths = []
    for name, A in (("abc", single_abc), ("ring9", ring9)):
        path = tmp_path / f"{name}.aut"
        path.write_text(re.sub(r"(?<= )a(?= |$)", "^a", serialize_automaton(A), flags=re.M))
        paths.append(str(path))
    assert "alphabet: ^a b c\n" in (tmp_path / "abc.aut").read_text()
    assert main(["decide", *paths, "--mode", "general"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) and "Traceback" not in err
    assert "checked letter" in err


def test_wdelta_refuses_a_checked_component_letter(capsys, tmp_path):
    # wdelta applies decide's rule for component names: a checked letter
    # in P is refused with one error line, before any column is made
    comp, delta = tmp_path / "checked.aut", tmp_path / "delta.txt"
    comp.write_text(
        "kind: dfa\nalphabet: ^a b\nstates: 0 1\ninitial: 0\nfinals: 0\n"
        "trans: 0 ^a 1\ntrans: 1 b 0\n"
    )
    delta.write_text("(0) ^a (1:1) [start]\n(1:1) b (0) [end]\n")
    assert main(["wdelta", str(comp), "--delta", str(delta)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and _one_error_line(err) and "Traceback" not in err
    assert "letter '^a' is a checked letter" in err


def test_petri_and_segments_read_a_checked_component_letter_as_any_letter(
    capsys, tmp_path
):
    # neither command builds a column, so the rule that keeps checked
    # letters out of decide's components does not apply: renaming ^a to a
    # renames it in the output and changes nothing else
    texts = {
        "P": "kind: dfa\nalphabet: ^a b\nstates: 0 1\ninitial: 0\nfinals: 0\n"
             "trans: 0 ^a 1\ntrans: 1 b 0\n",
        "V": "kind: dfa\nalphabet: ^a b\nstates: 0\ninitial: 0\nfinals: 0\n"
             "trans: 0 ^a 0\ntrans: 0 b 0\n",
    }
    paths = {}
    for name, text in texts.items():
        for form, letter in (("checked", "^a"), ("plain", "a")):
            paths[name, form] = tmp_path / f"{name}-{form}.aut"
            paths[name, form].write_text(text.replace("^a", letter))
    commands = [
        ["petri", "P", "V", "--which", "npvfull", "--analyze", "km", "--emit", "dot"],
        ["petri", "P", "V", "--analyze", "km", "--emit", "pnml"],
        ["segments", "P", "--ball", "2", "--roles"],
        ["segments", "P", "--ball", "1", "--emit"],
    ]
    for command in commands:
        runs = {}
        for form in ("checked", "plain"):
            argv = [str(paths.get((arg, form), arg)) for arg in command]
            code = main(argv)
            runs[form] = (code, *capsys.readouterr())
        code, out, err = runs["checked"]
        assert "^a" in out, command
        assert (code, out.replace("^a", "a"), err) == runs["plain"], command


def test_foreign_letter_step_is_not_a_valid_step(single_ab, capsys, tmp_path):
    # ab never reads zz, so a fragment holding a zz step is no certificate
    comp, chain, delta = (tmp_path / n for n in ("ab.aut", "chain.aut", "delta.txt"))
    comp.write_text(serialize_automaton(single_ab))
    chain.write_text(serialize_automaton(depth_chain(3)))
    delta.write_text("(0) zz (0) [start_end]\n")
    assert main(["wdelta", str(comp), "--delta", str(delta)]) == 3
    err = capsys.readouterr().err
    assert _one_error_line(err) and err.endswith("is not a valid step\n")
    for mode in ("prefix", "general"):
        forged = decision.Verdict(
            "holds", mode, "zero-fragment", {"delta": ("(0) zz (0) [start_end]",)}
        )
        report = tmp_path / f"{mode}.txt"
        report.write_text(decision.serialize_verdict(forged))
        assert main(["replay", str(comp), str(chain), str(report)]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("replay: mismatch\n", "")


def test_replay_of_a_fragment_holds_with_empty_delta(capsys, tmp_path):
    # P reads only the empty word: each mode holds on its fragment route
    # with an empty delta, which the report writes as no delta line
    comp, lang = tmp_path / "eps.aut", tmp_path / "astar.aut"
    comp.write_text(serialize_automaton(mk_dfa("ab", [], "I", ["I"])))
    lang.write_text(serialize_automaton(mk_dfa("ab", [("1", "a", "1")], "1", ["1"])))
    for mode, route in (("prefix", "prefix-fragment"), ("general", "zero-fragment")):
        assert main(["decide", str(comp), str(lang), "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert f"ROUTE: {route}" in out and "delta:" not in out
        report = tmp_path / f"{mode}.txt"
        report.write_text(out)
        assert main(["replay", str(comp), str(lang), str(report)]) == 0
        assert capsys.readouterr().out == "replay: ok\n"


def test_family_bad_base_exits_3(files, capsys, single_ab, tmp_path):
    # {ab} lacks the empty word
    base = tmp_path / "base.aut"
    base.write_text(serialize_automaton(single_ab))
    assert main(["family", str(base), files["alt"], "--size", "2"]) == 3
    assert _one_error_line(capsys.readouterr().err)
    # a* is prefix closed but not inside {ε}
    astar = mk_dfa("ab", [("1", "a", "1")], "1", ["1"])
    eps = mk_dfa("ab", [], "1", ["1"])
    constraint = tmp_path / "eps.aut"
    base.write_text(serialize_automaton(astar))
    constraint.write_text(serialize_automaton(eps))
    assert main(["family", str(base), str(constraint), "--size", "2"]) == 3
    err = capsys.readouterr().err
    assert _one_error_line(err) and "not included" in err


def test_petri_alphabet_mismatch_exits_3(files, capsys, single_ab, tmp_path):
    # {ab} reads b, which a constraint over {a} lacks
    comp, constraint = tmp_path / "ab.aut", tmp_path / "a.aut"
    comp.write_text(serialize_automaton(single_ab))
    constraint.write_text(serialize_automaton(mk_dfa("a", [("1", "a", "1")], "1", ["1"])))
    for which in ("npv", "npvfull"):
        assert main(["petri", str(comp), str(constraint), "--which", which]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert _one_error_line(err) and "alphabets differ" in err


def test_family_size_below_1_exits_3(files, capsys):
    for size in ("-1", "0"):
        code = main(["family", files["alt"], files["alt"], "--size", size, "--check"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"not a positive integer: '{size}'" in err
        assert "unexpected" not in err and "Traceback" not in err


def test_segment_bad_bound_exits_3(files, capsys, tmp_path):
    seg = tmp_path / "seg.txt"
    for bound in ("-1", "x"):
        seg.write_text(f"K {bound}\n")
        assert main(["segments", files["two_start"], "--segment", str(seg)]) == 3
        err = capsys.readouterr().err
        assert _one_error_line(err) and repr(bound) in err


def test_replay_rejects_a_query_decide_rejects(files, capsys, tmp_path):
    # {aa, ba} is not prefix closed: decide refuses it in prefix mode, and
    # replay refuses a prefix-mode report on it
    two = tmp_path / "two.aut"
    two.write_text(serialize_automaton(
        mk_dfa("ab", [("1", "a", "2"), ("1", "b", "2"), ("2", "a", "3")], "1", ["3"])
    ))
    assert main(["decide", str(two), str(two), "--mode", "prefix"]) == 3
    assert "prefix-closed" in capsys.readouterr().err
    report = tmp_path / "report.txt"
    report.write_text("\n".join([
        "VERDICT: fails", "MODE: prefix", "ROUTE: falsifier", "CERTIFICATE:",
        "word: a a", "factor: a", "component: a", "positions: 1", "",
    ]))
    assert main(["replay", str(two), str(two), str(report)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err) and "prefix-closed" in err


@pytest.mark.parametrize(
    "start, second, name",
    [("a(", "II", "letter 'a('"), ("a", "q(II", "state 'q(II'")],
)
def test_decide_rejects_unreadable_component_names(capsys, tmp_path, start, second, name):
    # {ac, bc} with a letter or a state that a report could not read back
    P = tmp_path / "p.aut"
    P.write_text(serialize_automaton(mk_dfa(
        [start, "b", "c"],
        [("I", start, second), ("I", "b", second), (second, "c", "III")],
        "I",
        ["III"],
    )))
    V = tmp_path / "v.aut"
    V.write_text(serialize_automaton(sigma_star([start, "b", "c"])))
    assert main(["decide", str(P), str(V), "--mode", "prefix"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err) and name in err


@pytest.mark.parametrize("text", ["(II:1)\n", ""], ids=["no-zero", "empty"])
def test_segment_not_downward_closed_exits_3(files, capsys, tmp_path, text):
    seg = tmp_path / "seg.txt"
    seg.write_text(text)
    assert main(["segments", files["two_start"], "--segment", str(seg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err) and "downward closed" in err


def test_segment_frontier_cap_exits_3(files, capsys, monkeypatch):
    # a search past its frontier cap is a budget error, not a crash
    from shufflecheck import segments

    monkeypatch.setattr(segments, "FRONTIER_CAP", 1)
    assert main(["segments", files["alt"], "--ball", "3"]) == 3
    err = capsys.readouterr().err
    assert _one_error_line(err) and "Traceback" not in err
    assert "more than 1 reachable vector sets" in err


def test_unreadable_text_exits_3_without_traceback(files, capsys, tmp_path):
    # a bad kind, a count that str.isdigit takes but int refuses, or a
    # number of more digits than int converts (4,300) is an input error, in
    # a report, a delta file, a segment file and an automaton file alike
    report, delta, seg, long_delta, long_aut = (
        tmp_path / n
        for n in ("report.txt", "delta.txt", "seg.txt", "long.txt", "long.aut")
    )
    forged = decision.Verdict(
        "holds", "general", "zero-fragment", {"delta": ("(0) a (1:1) [bogus]",)}
    )
    report.write_text(decision.serialize_verdict(forged))
    delta.write_text("(0) a (1:²)\n")
    seg.write_text("(0)\n(1:²)\n")
    digits = "1" * 5000
    long_delta.write_text(f"(0) a (a:{digits})\n")
    long_aut.write_text(
        f"kind: dfa\nalphabet: a@{digits}\nstates: 1\ninitial: 1\nfinals: 1\n"
    )
    for argv in (
        ["replay", files["ring3"], files["ring9"], str(report)],
        ["wdelta", files["ring3"], "--delta", str(delta)],
        ["segments", files["two_start"], "--segment", str(seg)],
        ["wdelta", files["ring3"], "--delta", str(long_delta)],
        ["decide", str(long_aut), files["ring3"]],
    ):
        assert main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and _one_error_line(err), (argv, err)
        assert "Traceback" not in err
