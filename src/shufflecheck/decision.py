"""Top-level decision pipeline and certificate handling.

The pipeline layers a bounded falsifier, the two fragment-finiteness
routes, and the deletion-net analysis.  Every verdict carries a
certificate that can be re-validated independently of the run that
produced it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Optional

from .automata import (
    Dfa,
    ParseError,
    ShufflecheckError,
    accepts,
    grave,
    normalize,
    parse_letter,
)
from .engine import (
    BudgetExceeded,
    parse_fragment,
    shuffle_member,
    sp_falsify,
)
from .petri import (
    DEFAULT_FORWARD_CAP,
    DEFAULT_KM_NODE_CAP,
    decide_alf_pre_finite,
    decide_alf_zero_finite,
    decide_sp_via_net,
    prefix_delta_closed,
)
from .representation import (
    NotSubsetOfShuffle,
    check_closure_prefix,
    check_closure_zero,
    decode_witness,
)

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

PREFIX = "prefix"
GENERAL = "general"


class InvalidQuery(ShufflecheckError):
    pass


class MalformedCertificate(ShufflecheckError):
    pass


# km_node_cap bounds, in states kept, the fragment walks (the prefix
# route's walk and the zero route's backward walk, whose set R then bounds
# its forward walk), and in nodes the net route's Karp–Miller tree.
# forward_cap bounds the net route's witness search (`petri._witness_search`,
# the net's marking BFS run on the deletion system), at each norm level
# and after, in states kept.
@dataclass(frozen=True)
class Budgets:
    falsifier_maxlen: int = 6
    km_node_cap: int = DEFAULT_KM_NODE_CAP
    forward_cap: int = DEFAULT_FORWARD_CAP

    @staticmethod
    def profile(name: str) -> "Budgets":
        if name == "ci":
            return Budgets(falsifier_maxlen=4, km_node_cap=50_000, forward_cap=100_000)
        if name == "default":
            return Budgets()
        if name == "deep":
            return Budgets(
                falsifier_maxlen=8, km_node_cap=1_000_000, forward_cap=2_000_000
            )
        raise InvalidQuery(f"unknown budget profile {name!r}")


# Budgets that no stage read; older reports still list them.
RETIRED_BUDGETS = ("oracle_maxlen", "oracle_card_cap", "frontier_cap")


@dataclass(frozen=True)
class Verdict:
    outcome: str  # holds | fails | unknown
    mode: str  # prefix | general
    route: str
    certificate: dict = field(default_factory=dict)
    budgets: Budgets = field(default_factory=Budgets)
    stats: dict = field(default_factory=dict)


def check_alphabets(P: Dfa, V: Dfa):
    """Raise InvalidQuery unless P and V read the same letters."""
    if set(P.alphabet) != set(V.alphabet):
        raise InvalidQuery("component and constraint alphabets differ")


# A report writes a word as letters between spaces and a step as
# '(f) a (g) [kind]', so a letter or component state may hold none of these.
_UNREADABLE = re.compile(r"[\s()]")


# Kept per automaton, as `engine_for` keeps engines: decide and replay check
# the same P, and unkept the check added ~15% to random-general's replay p50.
@lru_cache(maxsize=64)
def _unreadable_name(P: Dfa) -> Optional[str]:
    """What keeps the first letter or state of P out of a query, as
    "letter 'a(' cannot be read back from a report", or None.

    A report must read each name back as itself: no letter or state may
    hold whitespace or a parenthesis, `parse_letter` must read a letter's
    text as that letter, and a state must be a string.  Distinct steps of
    P's counter system then print distinctly.  No letter may be a checked
    letter either: track 3 of a column writes P's letters as their checked
    copies, which must lie outside P's alphabet."""
    for a in P.alphabet:
        text = str(a)
        try:
            unreadable = _UNREADABLE.search(text) or parse_letter(text) is not a
        except ParseError:
            unreadable = True
        if unreadable:
            return f"letter {text!r} cannot be read back from a report"
        if a.mark is not None:
            return f"letter {text!r} is a checked letter"
    for q in P.states:
        if not isinstance(q, str) or _UNREADABLE.search(q):
            return f"state {q!r} cannot be read back from a report"
    return None


def check_component(P: Dfa):
    """Raise InvalidQuery unless P's letters and states are names a report
    reads back and no letter is a checked one (`_unreadable_name`)."""
    unreadable = _unreadable_name(P)
    if unreadable is not None:
        raise InvalidQuery(f"component {unreadable}")


def check_query(P: Dfa, V: Dfa, mode: str):
    """Raise InvalidQuery unless decide_sp answers this query.

    P and V must be normalized (`normalize`): a trimmed V recognizes a
    prefix-closed language exactly when every state is final.  P must pass
    `check_component`; V's states never reach a certificate.
    """
    if mode not in (PREFIX, GENERAL):
        raise InvalidQuery(f"unknown mode {mode!r}")
    check_alphabets(P, V)
    if mode == PREFIX and V.finals != V.states:
        raise InvalidQuery("prefix mode needs a prefix-closed constraint language")
    check_component(P)


def prepare_query(P: Dfa, V: Dfa, mode: str) -> tuple:
    """(comp, V) for a query that decide_sp answers: P and V normalized
    and checked by `check_query`, and comp the automaton whose
    interleavings the mode asks about, P's prefix recognizer in prefix
    mode and P itself in general mode.  Raises InvalidQuery otherwise."""
    P = normalize(P)
    V = normalize(V)
    check_query(P, V, mode)
    return (grave(P) if mode == PREFIX else P), V


def fails_certificate(witness) -> dict:
    """The certificate of a Fails verdict from its witness (word,
    remainder, component, positions), the shape every route gives."""
    w, u, e, positions = witness
    return {
        "word": tuple(w),
        "factor": tuple(u),
        "component": tuple(e),
        "positions": tuple(positions),
    }


def _delta_cert(fragment) -> dict:
    """The certificate of a fragment route's Holds: its packed fragment's
    lines (`Fragment.lines`), as the steps' `tagged_str` prints them."""
    return {"delta": fragment.lines()}


# Each stage maps (component language, V, budgets, notes) to None when it
# cannot settle the pair, or to (outcome, route, certificate, stats).  A
# stage that passes may write to notes, which join the verdict's stats.
# Stages call the layer functions through this module's globals when they
# run.

def _falsifier(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    try:
        cex = sp_falsify(comp, V, budgets.falsifier_maxlen)
    except BudgetExceeded:
        # inconclusive; the exact stages still decide, and the report says
        # that the falsifier bound was not searched
        notes["falsifier"] = "overflow"
        return None
    if cex is None:
        return None
    stats = {"falsifier_maxlen": budgets.falsifier_maxlen}
    return FAILS, "falsifier", fails_certificate(cex), stats


def _settle_fragment(route: str, comp: Dfa, V: Dfa, alf, check_closure):
    """Holds or Fails from a finite fragment and its exact closure check."""
    if alf.status != "finite":
        return None
    out = check_closure(comp, V, alf.fragment)
    if out.holds:
        return HOLDS, route, _delta_cert(alf.fragment), dict(alf.stats)
    witness = decode_witness(out.witness)
    return FAILS, route, fails_certificate(witness), dict(alf.stats)


def _prefix_fragment(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    alf = decide_alf_pre_finite(comp, V, budgets.km_node_cap)
    return _settle_fragment("prefix-fragment", comp, V, alf, check_closure_prefix)


def _zero_fragment(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    alf = decide_alf_zero_finite(comp, V, budgets.km_node_cap)
    return _settle_fragment("zero-fragment", comp, V, alf, check_closure_zero)


def _net(comp: Dfa, V: Dfa, budgets: Budgets, notes: dict):
    """The last stage: always settles, with Unknown when a cap stops it."""
    net = decide_sp_via_net(comp, V, budgets.km_node_cap, budgets.forward_cap)
    cert = fails_certificate(net.witness) if net.status == FAILS else {}
    return net.status, net.route, cert, dict(net.stats)


STAGES = {
    PREFIX: (_falsifier, _prefix_fragment, _zero_fragment, _net),
    GENERAL: (_falsifier, _zero_fragment, _net),
}

# The fragment routes that the stages of each mode can settle a pair by.
FRAGMENT_ROUTES = {
    PREFIX: ("prefix-fragment", "zero-fragment"),
    GENERAL: ("zero-fragment",),
}


def decide_sp(
    P: Dfa, V: Dfa, mode: str = PREFIX, budgets: Optional[Budgets] = None
) -> Verdict:
    """Decide closure of (P, V) under one-component deletion.

    Prefix mode asks about interleavings of component prefixes inside a
    prefix-closed V; general mode about interleavings of complete
    components.  The stages of STAGES[mode] run in order and the first
    one that settles the pair gives the verdict.  Exact wherever a
    finiteness or boundedness argument lands; otherwise the budgets bound
    the residual search and the verdict degrades to unknown rather than
    guessing.
    """
    if budgets is None:
        budgets = Budgets()
    comp, V = prepare_query(P, V, mode)
    notes: dict = {}
    for stage in STAGES[mode]:
        found = stage(comp, V, budgets, notes)
        if found is not None:
            break
    outcome, route, cert, stats = found
    return Verdict(outcome, mode, route, cert, budgets, {**notes, **stats})


# ---------------------------------------------------------------------------
# certificate replay

def _delete_positions(w: tuple, positions: tuple) -> tuple:
    taken = set(positions)
    return tuple(a for i, a in enumerate(w) if i not in taken)


def replay_certificate(P: Dfa, V: Dfa, verdict: Verdict) -> bool:
    """Re-validate a verdict's certificate from scratch.

    A failing certificate is checked word by word.  A holds that names a
    fragment route of its mode is checked on its recorded fragment, which
    is empty when the certificate has no delta (a report writes no line
    for an empty one); a prefix-fragment one must also be closed in the
    product with V (`petri.prefix_delta_closed`), and then the exact closure
    search runs over the fragment, which rejects it unless every step is
    valid.  A zero-fragment one is not yet checked for coverage.  Any other
    holds must carry no delta: it re-runs the net analysis, which answers
    from the net's control states alone when none of them is a
    counterexample's, as `decide_sp_via_net` does, and must name the
    route that proves them.

    A query that `decide_sp` would reject, such as a prefix-mode verdict
    on a V that is not prefix closed, a pair whose alphabets differ or a
    P with a letter or state that a report cannot read back
    (`check_query`), raises InvalidQuery whatever its certificate.
    """
    comp, V = prepare_query(P, V, verdict.mode)
    if verdict.outcome == FAILS:
        c = verdict.certificate
        try:
            w = tuple(c["word"])
            u = tuple(c["factor"])
            e = tuple(c["component"])
            positions = tuple(c["positions"])
        except KeyError as exc:
            raise MalformedCertificate(f"missing field {exc}") from exc
        if not e or len(positions) != len(e):
            return False
        if len(positions) != len(set(positions)):
            return False
        if any(i < 0 or i >= len(w) for i in positions):
            return False
        if tuple(w[i] for i in sorted(positions)) != e:
            return False
        if _delete_positions(w, positions) != u:
            return False
        if not set(w) <= set(comp.alphabet):  # e and u are letters of w
            return False
        if not accepts(comp, e):
            return False
        if not shuffle_member(comp, w) or not shuffle_member(comp, u):
            return False
        return accepts(V, w) and not accepts(V, u)
    if verdict.outcome == HOLDS:
        if verdict.route in FRAGMENT_ROUTES.get(verdict.mode, ()):
            try:
                delta = parse_fragment(verdict.certificate.get("delta", ()))
            except ParseError as exc:
                raise MalformedCertificate(str(exc)) from exc
            check_closure = check_closure_zero
            if verdict.route == "prefix-fragment":
                if not prefix_delta_closed(comp, V, delta):
                    return False
                check_closure = check_closure_prefix
            try:
                return check_closure(comp, V, delta).holds
            except NotSubsetOfShuffle:
                return False
        if "delta" in verdict.certificate:
            return False
        rerun = decide_sp_via_net(
            comp, V, verdict.budgets.km_node_cap, verdict.budgets.forward_cap
        )
        return rerun.status == HOLDS and rerun.route == verdict.route
    return True  # unknown makes no claim


# ---------------------------------------------------------------------------
# report format

def certificate_lines(cert: dict) -> list:
    """The CERTIFICATE section's lines for cert's fields, in report order."""
    lines = [
        f"{key}: " + " ".join(str(x) for x in cert[key])
        for key in ("word", "factor", "component", "positions")
        if key in cert
    ]
    return lines + [f"delta: {line}" for line in cert.get("delta", ())]


def serialize_verdict(v: Verdict) -> str:
    lines = [f"VERDICT: {v.outcome}", f"MODE: {v.mode}", f"ROUTE: {v.route}"]
    lines += ["CERTIFICATE:", *certificate_lines(v.certificate), "BUDGETS:"]
    for f in fields(Budgets):
        lines.append(f"{f.name}: {getattr(v.budgets, f.name)}")
    if v.stats:
        lines.append("STATS:")
        for k in sorted(v.stats):
            lines.append(f"{k}: {v.stats[k]}")
    return "\n".join(lines) + "\n"


def parse_verdict(text: str) -> Verdict:
    outcome = mode = route = None
    cert: dict = {}
    budget_fields: dict = {}
    stats: dict = {}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line in ("CERTIFICATE:", "BUDGETS:", "STATS:"):
            section = line[:-1]
            continue
        if ":" not in line:
            raise MalformedCertificate(f"bad report line {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "VERDICT":
            outcome = value
        elif key == "MODE":
            mode = value
        elif key == "ROUTE":
            route = value
        elif section == "CERTIFICATE":
            if key in ("word", "factor", "component"):
                cert[key] = tuple(parse_letter(t) for t in value.split())
            elif key == "positions":
                try:
                    cert[key] = tuple(int(t) for t in value.split())
                except ValueError as exc:
                    raise MalformedCertificate(f"bad position in {line!r}") from exc
            elif key == "delta":
                cert.setdefault("delta", ())
                cert["delta"] = cert["delta"] + (value,)
            else:
                raise MalformedCertificate(f"unknown certificate field {key!r}")
        elif section == "BUDGETS":
            if key in RETIRED_BUDGETS:
                continue
            try:
                budget_fields[key] = int(value)
            except ValueError as exc:
                raise MalformedCertificate(f"bad budget value {line!r}") from exc
        elif section == "STATS":
            stats[key] = value
        else:
            raise MalformedCertificate(f"line {line!r} outside any section")
    if outcome not in (HOLDS, FAILS, UNKNOWN):
        raise MalformedCertificate(f"bad or missing verdict {outcome!r}")
    if mode not in (PREFIX, GENERAL):
        raise MalformedCertificate(f"bad or missing mode {mode!r}")
    if route is None:
        raise MalformedCertificate("missing route")
    try:
        budgets = replace(Budgets(), **budget_fields)
    except TypeError as exc:
        raise MalformedCertificate(f"bad budget field: {exc}") from exc
    return Verdict(outcome, mode, route, cert, budgets, stats)
